"""Fail on public ``src/repro`` functions that no product workload runs.

Usage::

    python tools/reach/check.py TRACE_DIR [--tests TESTS_TRACE_DIR]

``TRACE_DIR`` holds the files ``tools/reach/sitecustomize.py`` wrote
while ``tools/reach/workloads.sh`` ran the benchmarks, the CLI recipes
of the CI workflow, the examples and perfbench.  The check walks the
public definitions ``tests/test_layer_contract.py`` walks and judges
the functions, methods and properties among them (abstract methods
are exempt; dunders and private names are not public).  Each one must
have run, or be on :data:`ALLOWED` with the condition under which it
runs.  An allow-list entry that ran is stale and fails the check too.

``--tests`` takes the trace of the tier-1 suite, and only splits the
summary line's count of every function definition into run by
product workloads, run only by tests, and never run.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT))

from tests.test_layer_contract import (  # noqa: E402
    module_name,
    public_definitions,
)

#: Public functions (qualified name) or whole modules that no product
#: workload runs, each with the condition under which it runs.
_GFK = (
    "the GFK match of Section IV-B.2: runs when a networked controller "
    "has a video comparator and a camera uploads frame features; no "
    "deployment passes comparator= until the ROADMAP GFK item lands"
)
_BREAKER_CHECKPOINT = (
    "runs when a checkpoint captures a resilience coordinator whose "
    "links have circuit breakers; only the networked loop creates "
    "breakers, and it resumes by replay, not from this snapshot"
)
ALLOWED = {
    "EECSController.receive_features": _GFK,
    "FeatureUpload.size_bytes": _GFK,
    "TrainingItem.subspace": _GFK,
    "TrainingLibrary.subspace": _GFK,
    "repro.core.change_detector": (
        "the CUSUM re-match trigger of the ROADMAP GFK item; runs once "
        "the engine re-matches cameras when their scene changes"
    ),
    "EECSController.frame_budget": (
        "runs when a camera's per-frame budget comes from its residual "
        "battery, i.e. when a run sets no budget; `run --budget` "
        "defaults to 2.0 and every benchmark and example sets one"
    ),
    "CircuitBreaker.snapshot": _BREAKER_CHECKPOINT,
    "CircuitBreaker.restore": _BREAKER_CHECKPOINT,
}


def read_traces(directory: Path) -> set[tuple[str, int]]:
    """``(path under src/repro, first line)`` of every code object run."""
    reached = set()
    for trace in directory.glob("*.txt"):
        for line in trace.read_text().splitlines():
            path, _, first = line.rpartition(":")
            reached.add((path, int(first)))
    return reached


def first_line(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """The line a function's code object starts on: its first
    decorator, or else its ``def``."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    names = (
        getattr(d, "id", None) or getattr(d, "attr", None)
        for d in node.decorator_list
    )
    return "abstractmethod" in names


class Definition(NamedTuple):
    """One function definition in ``src/repro``."""

    path: str  # under src/repro
    line: int  # first line of its code object
    module: str
    qualified: str
    judged: bool  # public and not abstract: the check holds it to account
    lines: int  # decorators and body included

    @property
    def key(self) -> tuple[str, int]:
        return self.path, self.line


def definitions() -> list[Definition]:
    """Every function definition in ``src/repro``."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = {
            node.lineno: node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        public = {
            line: qualified
            for line, qualified, name in public_definitions(tree)
            if line in functions and functions[line].name == name
        }
        found += [
            Definition(
                str(path.relative_to(SOURCE)),
                first_line(node),
                module_name(path),
                public.get(line, node.name),
                line in public and not is_abstract(node),
                node.end_lineno - first_line(node) + 1,
            )
            for line, node in sorted(functions.items())
        ]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", type=Path)
    parser.add_argument("--tests", type=Path, default=None)
    args = parser.parse_args(argv)
    reached = read_traces(args.traces)
    if not reached:
        print(f"error: no traces under {args.traces}", file=sys.stderr)
        return 2
    tested = read_traces(args.tests) if args.tests else set()

    found = definitions()
    unreached = [d for d in found if d.judged and d.key not in reached]
    failures = [
        f"src/repro/{d.path}:{d.line} {d.qualified}"
        for d in unreached
        if d.qualified not in ALLOWED and d.module not in ALLOWED
    ]
    names = {d.qualified for d in unreached} | {d.module for d in unreached}
    stale = [entry for entry in ALLOWED if entry not in names]

    never = [d for d in found if d.key not in reached | tested]
    test_only = [d for d in found if d.key in tested - reached]

    def count(group: list[Definition]) -> str:
        return f"{len(group)} ({sum(d.lines for d in group)} lines)"

    print(
        f"{len(found)} function definitions: "
        f"{len(found) - len(never) - len(test_only)} run by product "
        f"workloads"
        + (f", {count(test_only)} only by tests" if args.tests else "")
        + f", {count(never)} by neither"
    )
    print(
        f"{sum(d.judged for d in found)} public functions judged: "
        f"{len(unreached)} unreached, "
        f"{len(unreached) - len(failures)} of them allow-listed"
    )
    if failures:
        print(
            "public functions no product workload runs; delete them with "
            "their tests, give them a product caller, or allow-list them "
            "with the condition under which they run:"
        )
        print("\n".join(f"  {line}" for line in failures))
    if stale:
        print("allow-list entries that now run (delete them):")
        print("\n".join(f"  {entry}" for entry in stale))
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
