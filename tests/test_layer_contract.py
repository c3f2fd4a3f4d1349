"""Layer contract: the engine never imports upward.

``repro.engine`` is the simulation core; ``repro.experiments`` and
``repro.cli`` are orchestration layers *above* it.  An import in the
other direction couples the core to experiment plumbing and recreates
the circular-dependency swamp the engine refactor removed, so CI
enforces the contract here (the environment has no import-linter
package; this AST-based check is the equivalent, wired into the same
``tests`` job).

The checker walks every module in the constrained packages and
resolves ``import x`` / ``from x import y`` / relative imports to
absolute module paths — string matching on source would miss aliased
and relative forms.

The same walk keeps the chaos shim (``ChaosSpec`` / ``run_chaos`` in
``repro.experiments.faults``) perfbench-only: a networked run is a
``DeploymentSpec(network=True, ...)`` everywhere else.

Last, no library code exists for the tests alone: every public
top-level function and class in ``src/repro``, every public method and
property of a public class, and every public UPPER_CASE module
constant must be named by code outside ``tests/`` (another module, a
benchmark, perfbench, an example or a CI step), bar a short allow-list
with reasons.  A name counts as reached when such code loads it as an
identifier, reads or imports it as an attribute or name, or spells it
as a string literal (``getattr(policy, "snapshot_state", None)``).
Names match by their last part, so any ``.reset`` reaches every
``reset`` method.  Dunder methods and private classes are exempt.
The CI ``reach`` job (``tools/reach/``) closes that gap: it records
which functions the product workloads actually run.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

#: package -> packages it must never import (even under TYPE_CHECKING:
#: a type-only upward dependency is still an upward dependency).
CONTRACTS = {
    "repro.engine": ("repro.experiments", "repro.cli"),
    # The layers below the engine must not reach up into it either.
    "repro.datasets": ("repro.engine", "repro.experiments", "repro.cli"),
    "repro.detection": ("repro.engine", "repro.experiments", "repro.cli"),
    "repro.energy": ("repro.engine", "repro.experiments", "repro.cli"),
    "repro.network": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.fleet",
    ),
    # Fleet mechanisms (cells, coordinator, tiled worlds) sit below
    # the engine: the engine and its policies import
    # repro.fleet, never the reverse.  The fleet may use the network
    # and checkpoint codecs, but not the orchestration layers.
    "repro.fleet": ("repro.engine", "repro.experiments", "repro.cli"),
    # The resilience layer sits between the fault model and the
    # engine: it may read repro.faults / repro.telemetry / repro.core,
    # and the engine may import it — never the reverse.  It also never
    # touches the network directly (the owning node applies its
    # decisions), so a network dependency is forbidden too.
    "repro.resilience": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.network",
    ),
    "repro.faults": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.resilience",
    ),
    "repro.telemetry": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.resilience",
    ),
    # Offline analysis reads telemetry artifacts; it must run where
    # the artifacts land, without dragging in the simulation core.
    "repro.obs": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.network",
        "repro.resilience",
    ),
    "repro.perf": ("repro.engine", "repro.experiments", "repro.cli"),
    # The predictive wake-up layer (regressors, wake config, activity
    # features) sits between the core math and the engine: the
    # predictive *policy* lives in repro.engine and imports it, never
    # the reverse.  It also reads nothing from the network or the
    # resilience ladder — it learns purely from assessment telemetry.
    "repro.predictive": (
        "repro.engine",
        "repro.experiments",
        "repro.cli",
        "repro.network",
        "repro.resilience",
    ),
    # Checkpointing encodes values and stores documents; the engine
    # decides what its state is.  The engine imports checkpoint, never
    # the other way around.
    "repro.checkpoint": ("repro.engine", "repro.experiments", "repro.cli"),
}


def module_name(path: Path, root: Path = SRC) -> str:
    """Dotted module name of a file under ``root`` (else under ROOT)."""
    base = root if path.is_relative_to(root) else ROOT
    relative = path.relative_to(base).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_modules(path: Path, root: Path = SRC) -> set[str]:
    """Absolute module names imported by a source file under ``root``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against the package
                package_parts = module_name(path, root).split(".")
                if path.name != "__init__.py":
                    package_parts = package_parts[:-1]
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if prefix:
                imports.add(prefix)
            imports.update(
                f"{prefix}.{alias.name}" if prefix else alias.name
                for alias in node.names
            )
    return imports


def violations(
    package: str, forbidden: tuple[str, ...], root: Path = SRC
) -> list[str]:
    """Imports of ``forbidden`` packages by ``package``'s modules under
    source root ``root``."""
    found = []
    package_dir = root / Path(*package.split("."))
    for path in sorted(package_dir.rglob("*.py")):
        for imported in sorted(imported_modules(path, root)):
            for banned in forbidden:
                if imported == banned or imported.startswith(banned + "."):
                    found.append(
                        f"{module_name(path, root)} imports {imported} "
                        f"(forbidden: {banned})"
                    )
    return found


#: The perfbench-only shim, and the only files that may touch it: its
#: definition and the test pinning it to the spec it spells.
SHIM = ("ChaosSpec", "run_chaos")
SHIM_MODULE = "repro.experiments.faults"
SHIM_ALLOWED = (
    SRC / "repro" / "experiments" / "faults.py",
    ROOT / "tests" / "test_chaos_shim.py",
)
SHIM_SCANNED = ("src", "tests", "benchmarks", "examples")


def shim_uses(path: Path) -> list[str]:
    """Imports of the shim names, and attribute reads of them (which
    catch ``faults.run_chaos`` after ``from ... import faults``)."""
    found = [
        imported
        for imported in sorted(imported_modules(path))
        if imported in {f"{SHIM_MODULE}.{name}" for name in SHIM}
    ]
    tree = ast.parse(path.read_text(), filename=str(path))
    found += [
        f".{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SHIM
    ]
    return found


def test_chaos_shim_is_perfbench_only():
    found = [
        f"{path.relative_to(ROOT)}: {use}"
        for top in SHIM_SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path not in SHIM_ALLOWED
        for use in shim_uses(path)
    ]
    assert not found, (
        "ChaosSpec/run_chaos exist only for perfbench; build "
        "DeploymentSpec(network=True, ...) instead:\n" + "\n".join(found)
    )


@pytest.mark.parametrize("package", sorted(CONTRACTS))
def test_no_upward_imports(package):
    forbidden = CONTRACTS[package]
    assert not violations(package, forbidden), (
        f"{package} must not import from {forbidden}:\n"
        + "\n".join(violations(package, forbidden))
    )


def test_no_process_pools():
    """Detection runs in-process; no module spawns worker processes."""
    forbidden = ("multiprocessing", "concurrent.futures")
    assert not violations("repro", forbidden), "\n".join(
        violations("repro", forbidden)
    )


def test_deployments_load_no_scipy_or_http_server():
    """A deployment process imports neither scipy (~23 MB and ~0.45 s;
    the detectors and renderer use in-repo ports of the two functions
    they need) nor ``http.server``, which only ``--metrics-port`` uses.
    Probed in a fresh interpreter through one ideal and one networked
    run, so lazily imported modules count too."""
    probe = (
        "import sys\n"
        "import repro.cli, repro.engine, repro.experiments.faults\n"
        "from repro.engine.spec import DeploymentSpec\n"
        "for network in (False, True):\n"
        "    DeploymentSpec(dataset_number=1, policy='full', budget=2.0,\n"
        "                   start=1000, end=1100, network=network).execute()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy') or m == 'http.server'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", out


#: Public definitions in ``src/repro`` that only tests may reach, each
#: with the reason it stays: a name, or a module whose whole body
#: stays.  Anything else that no module, benchmark, example or CI step
#: names is dead code: delete it with its tests, or move a test oracle
#: into ``tests/``.
TEST_ONLY_ALLOWED = {
    "repro.core.change_detector": (
        "the CUSUM re-match trigger of the GFK item in ROADMAP.md, which "
        "wires the module into the engine or deletes it"
    ),
}
REACH_SCANNED = ("benchmarks", "perfbench", "examples")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def public_definitions(tree: ast.Module) -> list[tuple[int, str, str]]:
    """``(line, qualified name, name)`` of every public top-level
    function and class (bar registered policies: the policy registry
    reaches those by name), every public method and property of a
    public class, and every public UPPER_CASE module constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            found += [
                (node.lineno, target.id, target.id)
                for target in targets
                if isinstance(target, ast.Name)
                and CONSTANT.fullmatch(target.id)
            ]
            continue
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) or node.name.startswith("_"):
            continue
        if not any(
            (getattr(d, "id", None) or getattr(d, "attr", None))
            == "register_policy"
            for d in node.decorator_list
        ):
            found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return found


def referenced_names(tree: ast.Module, reexports: bool = True) -> set[str]:
    """Names a module reads: loaded identifiers, attributes,
    identifier-shaped string literals (``getattr(obj, "name")``) and
    (unless the module is a package ``__init__`` whose imports only
    re-export) imported names.  Assignment targets and ``__all__``
    lists do not count, nor does prose in docstrings and comments."""
    exported = {
        id(node)
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in statement.targets)
        for node in ast.walk(statement.value)
    }
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and reexports:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and IDENTIFIER.fullmatch(node.value)
            and id(node) not in exported
        ):
            names.add(node.value)
    return names


def outside_tests() -> list[Path]:
    """Python files outside ``src/repro`` and ``tests/`` that count as
    reaching library code."""
    return [
        path
        for top in REACH_SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


def unreached_definitions(
    extra: tuple[Path, ...] = (), extra_root: Path = SRC
) -> list[tuple[str, str, str]]:
    """``(module, qualified name, location)`` of every public
    ``src/repro`` definition, and of every definition in the ``extra``
    files under source root ``extra_root``, that nothing outside tests
    names."""
    roots = {path: SRC for path in sorted((SRC / "repro").rglob("*.py"))}
    roots.update({path: extra_root for path in extra})
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in roots
    }
    reached = set().union(
        *(
            referenced_names(tree, reexports=path.name != "__init__.py")
            for path, tree in trees.items()
        ),
        *(
            referenced_names(ast.parse(path.read_text(), filename=str(path)))
            for path in outside_tests()
        ),
        re.findall(r"\w+", CI_FILE.read_text()),
    )
    return [
        (
            module_name(path, roots[path]),
            qualified,
            f"{os.path.relpath(path, ROOT)}:{line}",
        )
        for path, tree in trees.items()
        for line, qualified, name in public_definitions(tree)
        if name not in reached
    ]


def test_no_test_only_library_code():
    found = [
        f"{location} {qualified}"
        for module, qualified, location in unreached_definitions()
        if qualified not in TEST_ONLY_ALLOWED
        and module not in TEST_ONLY_ALLOWED
    ]
    assert not found, (
        "public definitions, methods and constants that only tests "
        "reach; delete them (and their tests) or move a test oracle "
        "into tests/:\n" + "\n".join(found)
    )


def test_test_only_allow_list_is_current():
    """Every allow-listed name still exists and is still test-only;
    every allow-listed module still holds test-only definitions and
    nothing outside tests imports it."""
    unreached = unreached_definitions()
    names = {qualified for _, qualified, _ in unreached}
    modules = {module for module, _, _ in unreached}
    importers = {
        module_name(path): imported_modules(path)
        for path in [*sorted((SRC / "repro").rglob("*.py")), *outside_tests()]
    }
    for entry in TEST_ONLY_ALLOWED:
        if entry in modules:
            assert not [
                importer
                for importer, imported in importers.items()
                if importer != entry and entry in imported
            ], f"{entry} is imported outside tests"
        else:
            assert entry in names, f"{entry} is gone or reached outside tests"


class TestCheckerCatchesViolations:
    """The contract only means something if the checker can fail.

    Canaries live in a source root under ``tmp_path``, never in
    ``src/``, so a suite running beside this one never sees them.
    """

    @staticmethod
    def _canary(root: Path, package: str, source: str) -> Path:
        bad = root / Path(*package.split(".")) / "_contract_canary.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(source)
        return bad

    def test_plain_import_detected(self, tmp_path):
        self._canary(
            tmp_path, "repro.engine", "import repro.experiments.fig4\n"
        )
        assert violations("repro.engine", ("repro.experiments",), tmp_path)

    def test_from_import_detected(self, tmp_path):
        self._canary(
            tmp_path, "repro.engine", "from repro.experiments import fig4\n"
        )
        assert violations("repro.engine", ("repro.experiments",), tmp_path)

    def test_relative_import_resolved(self, tmp_path):
        """Relative imports resolve to absolute names before matching."""
        bad = self._canary(
            tmp_path, "repro.experiments", "from . import fig4\n"
        )
        assert "repro.experiments.fig4" in imported_modules(bad, tmp_path)

    def test_test_only_definition_detected(self, tmp_path):
        assert "canary_only_tests_call" in self._unreached_in_canary(
            tmp_path, "def canary_only_tests_call():\n    pass\n"
        )

    def test_test_only_method_detected(self, tmp_path):
        unreached = self._unreached_in_canary(
            tmp_path,
            "class Canary:\n"
            "    def only_tests_call(self):\n"
            "        pass\n"
            "\n"
            "    def __repr__(self):\n"
            "        return 'canary'\n"
        )
        assert "Canary.only_tests_call" in unreached
        assert "Canary.__repr__" not in unreached  # dunders are exempt

    def test_test_only_constant_detected(self, tmp_path):
        assert "CANARY_ONLY_TESTS_READ" in self._unreached_in_canary(
            tmp_path, "CANARY_ONLY_TESTS_READ = 1\n"
        )

    @classmethod
    def _unreached_in_canary(cls, root: Path, source: str) -> set[str]:
        bad = cls._canary(root, "repro.engine", source)
        return {
            qualified
            for module, qualified, _ in unreached_definitions((bad,), root)
            if module == "repro.engine._contract_canary"
        }

    def test_shim_import_detected(self, tmp_path):
        bad = tmp_path / "uses_shim.py"
        bad.write_text(
            "from repro.experiments.faults import ChaosSpec\n"
            "from repro.experiments import faults\n"
            "faults.run_chaos\n"
        )
        assert shim_uses(bad) == [
            "repro.experiments.faults.ChaosSpec",
            ".run_chaos",
        ]
