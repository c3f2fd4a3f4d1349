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
top-level function and class in ``src/repro`` must be named by code
outside ``tests/`` (another module, a benchmark, perfbench, an
example or a CI step), bar a short allow-list with reasons.
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


def module_name(path: Path) -> str:
    base = SRC if path.is_relative_to(SRC) else ROOT
    relative = path.relative_to(base).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_modules(path: Path) -> set[str]:
    """Absolute module names imported by a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against the package
                package_parts = module_name(path).split(".")
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


def violations(package: str, forbidden: tuple[str, ...]) -> list[str]:
    found = []
    package_dir = SRC / Path(*package.split("."))
    for path in sorted(package_dir.rglob("*.py")):
        for imported in sorted(imported_modules(path)):
            for banned in forbidden:
                if imported == banned or imported.startswith(banned + "."):
                    found.append(
                        f"{module_name(path)} imports {imported} "
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


#: Public top-level definitions in ``src/repro`` that only tests may
#: reach, each with the reason it stays.  Anything else that no module,
#: benchmark, example or CI step names is dead code: delete it with its
#: tests, or move a test oracle into ``tests/``.
TEST_ONLY_ALLOWED = {
    "hog_descriptor_reference": (
        "the loop-based oracle tests/test_hog_equivalence.py checks the "
        "vectorised HOG against"
    ),
    "EnvironmentChangeDetector": (
        "the re-match trigger of the GFK item in ROADMAP.md, which wires "
        "it into the engine or deletes it"
    ),
    "load_library": (
        "the reader of the library file `repro train --save` writes; "
        "deleting it would leave that file without a reader"
    ),
}
REACH_SCANNED = ("benchmarks", "perfbench", "examples")
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"


def public_definitions(tree: ast.Module) -> list[ast.stmt]:
    """Top-level public functions and classes, bar registered policies
    (the policy registry reaches those by name)."""
    return [
        node
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        and not node.name.startswith("_")
        and not any(
            (getattr(d, "id", None) or getattr(d, "attr", None))
            == "register_policy"
            for d in node.decorator_list
        )
    ]


def referenced_names(tree: ast.Module, reexports: bool = True) -> set[str]:
    """Names a module reads: identifiers, attributes and (unless the
    module is a package ``__init__`` whose imports only re-export)
    imported names.  Docstrings and comments do not count."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and reexports:
            names.update(alias.name for alias in node.names)
    return names


def unreached_definitions() -> list[str]:
    """Public ``src/repro`` definitions that nothing outside tests names."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }
    reads = {
        path: referenced_names(tree, reexports=path.name != "__init__.py")
        for path, tree in trees.items()
    }
    outside = set().union(
        *(
            referenced_names(ast.parse(path.read_text(), filename=str(path)))
            for top in REACH_SCANNED
            for path in sorted((ROOT / top).rglob("*.py"))
        )
    )
    ci_words = set(re.findall(r"\w+", CI_FILE.read_text()))
    found = []
    for path, tree in trees.items():
        for node in public_definitions(tree):
            name = node.name
            if name in outside or name in ci_words:
                continue
            if any(name in names for names in reads.values()):
                continue
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_no_test_only_library_code():
    found = [
        entry
        for entry in unreached_definitions()
        if entry.rsplit(" ", 1)[1] not in TEST_ONLY_ALLOWED
    ]
    assert not found, (
        "public definitions that only tests reach; delete them (and "
        "their tests) or move a test oracle into tests/:\n"
        + "\n".join(found)
    )


def test_test_only_allow_list_is_current():
    """Every allow-listed name still exists and is still test-only."""
    reached_only_by_tests = {
        entry.rsplit(" ", 1)[1] for entry in unreached_definitions()
    }
    assert set(TEST_ONLY_ALLOWED) <= reached_only_by_tests


class TestCheckerCatchesViolations:
    """The contract only means something if the checker can fail."""

    def test_plain_import_detected(self, tmp_path):
        bad = SRC / "repro" / "engine" / "_contract_canary.py"
        bad.write_text("import repro.experiments.fig4\n")
        try:
            assert violations("repro.engine", ("repro.experiments",))
        finally:
            bad.unlink()

    def test_from_import_detected(self, tmp_path):
        bad = SRC / "repro" / "engine" / "_contract_canary.py"
        bad.write_text("from repro.experiments import fig4\n")
        try:
            assert violations("repro.engine", ("repro.experiments",))
        finally:
            bad.unlink()

    def test_relative_import_resolved(self):
        """Relative imports resolve to absolute names before matching."""
        bad = SRC / "repro" / "experiments" / "_contract_canary.py"
        bad.write_text("from . import fig4\n")
        try:
            resolved = imported_modules(bad)
            assert "repro.experiments.fig4" in resolved
        finally:
            bad.unlink()

    def test_test_only_definition_detected(self):
        bad = SRC / "repro" / "engine" / "_contract_canary.py"
        bad.write_text("def canary_only_tests_call():\n    pass\n")
        try:
            assert any(
                entry.endswith(" canary_only_tests_call")
                for entry in unreached_definitions()
            )
        finally:
            bad.unlink()

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
