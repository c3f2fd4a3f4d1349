"""In-memory span tracer and the wrappers that put it around the
program's public calls.

The program is not edited: :class:`Instrumentation` replaces a fixed
list of public methods with wrappers that open a span, count calls and
sizes, and call the original; :meth:`Instrumentation.uninstall` puts
the originals back, so untraced runs execute the unmodified code.

A span's *self time* is its duration minus the time its child spans
cover.  Calls nest strictly on one thread, so children never overlap
and the covered time is the sum of their durations.  Summed over every
span, self times therefore equal the summed duration of the root
spans exactly (up to float rounding).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Stack-based span recorder with named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, parent index or None, start, end, child seconds]``
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.clock(), None, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` (the innermost open one); returns its
        duration."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self._stack.pop()
        span = self.spans[index]
        span[3] = self.clock()
        duration = span[3] - span[2]
        if span[1] is not None:
            self.spans[span[1]][4] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Summed self time of every closed span, by name."""
        totals: dict[str, float] = defaultdict(float)
        for name, _, start, end, child in self.spans:
            if end is not None:
                totals[name] += (end - start) - child
        return dict(totals)

    def root_seconds(self) -> float:
        """Summed duration of the closed root spans."""
        return sum(
            end - start
            for _, parent, start, end, _ in self.spans
            if parent is None and end is not None
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, child) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                            "self_s": None
                            if end is None
                            else (end - start) - child,
                        }
                    )
                    + "\n"
                )


def _len_arg(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _len_result(args, result) -> int:
    return len(result)


def _result(args, result):
    return result


def _file_bytes(args, result) -> int:
    return result.stat().st_size


# (module, class, method, span name or None, [(counter, measure), ...]).
# A measure maps the call's positional arguments (``self`` first) and
# its return value to the amount added to the counter.
TARGETS: list[tuple[str, str, str, str | None, list]] = [
    ("repro.engine.core", "DeploymentEngine", "run", "engine", []),
    (
        "repro.engine.environment",
        "FaultInjectedEnvironment",
        "execute",
        "engine",
        [],
    ),
    (
        "repro.engine.context",
        "DeploymentContext",
        "build",
        "context.train",
        [],
    ),
    (
        "repro.datasets.synthetic",
        "SyntheticDataset",
        "frames",
        "datasets.render",
        [],
    ),
    (
        "repro.fleet.world",
        "TiledFleetDataset",
        "frames",
        "datasets.render",
        [],
    ),
    (
        "repro.engine.executor",
        "SerialDetectionExecutor",
        "execute",
        "detection",
        [
            ("detection.calls", None),
            ("detection.tasks", lambda args, result: len(args[1].tasks)),
        ],
    ),
    (
        "repro.reid.matcher",
        "CrossCameraMatcher",
        "group",
        "reid.group",
        [
            ("reid.group.calls", None),
            ("reid.group.detections", _len_arg(1)),
            ("reid.group.groups", _len_result),
        ],
    ),
    (
        "repro.core.controller",
        "EECSController",
        "select",
        "selection.select",
        [("selection.select.calls", None)],
    ),
    (
        "repro.core.selection",
        "SelectionEngine",
        "greedy_subset",
        "selection.greedy",
        [],
    ),
    (
        "repro.core.selection",
        "SelectionEngine",
        "downgrade",
        "selection.downgrade",
        [],
    ),
    (
        "repro.core.selection",
        "SelectionEngine",
        "global_accuracy",
        "selection.global_accuracy",
        [("selection.global_accuracy.calls", None)],
    ),
    (
        "repro.fleet.runtime",
        "FleetRuntime",
        "select_round",
        "fleet.select_round",
        [],
    ),
    (
        "repro.fleet.coordinator",
        "BudgetCoordinator",
        "allocate",
        "fleet.allocate",
        [("fleet.allocate.calls", None)],
    ),
    (
        "repro.energy.meter",
        "EnergyMeter",
        "record",
        "energy.record",
        [("energy.record.calls", None)],
    ),
    (
        "repro.network.simulator",
        "EventSimulator",
        "run",
        "network.run",
        [("network.events", _result)],
    ),
    (
        "repro.network.simulator",
        "EventSimulator",
        "send",
        None,
        [("network.send.calls", None)],
    ),
    (
        "repro.network.reliability",
        "ReliableTransport",
        "send",
        None,
        [("transport.send.calls", None)],
    ),
    (
        "repro.resilience.ladder",
        "ResilienceCoordinator",
        "evaluate",
        "resilience.evaluate",
        [("resilience.evaluate.calls", None)],
    ),
    (
        "repro.telemetry.core",
        "Telemetry",
        "flush_round",
        "telemetry.flush",
        [("telemetry.flush.calls", None)],
    ),
    (
        "repro.checkpoint.store",
        "CheckpointStore",
        "save",
        "checkpoint.save",
        [("checkpoint.save.bytes", _file_bytes)],
    ),
]


def _wrap(fn: Callable, tracer: Tracer, span: str | None, counters: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(span) if span is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index is not None:
                tracer.end(index)
        for name, measure in counters:
            tracer.count(name, 1 if measure is None else measure(args, result))
        return result

    return wrapper


def _wrap_checkpointer_save(fn: Callable, tracer: Tracer):
    """``RunCheckpointer.save`` split into its capture callable (its
    own span) and ``CheckpointStore.save`` (wrapped separately)."""

    @functools.wraps(fn)
    def wrapper(self, position, capture):
        def traced_capture():
            index = tracer.begin("checkpoint.capture")
            try:
                return capture()
            finally:
                tracer.end(index)

        tracer.count("checkpoint.save.calls")
        return fn(self, position, traced_capture)

    return wrapper


def _wrap_sink_close(fn: Callable, tracer: Tracer):
    """Count a stream's bytes when its sink closes: the sink truncates
    on open and never rotates here, so the file holds every byte
    ``emit`` wrote."""

    @functools.wraps(fn)
    def wrapper(self):
        if not self.closed and self.path.exists():
            tracer.count("telemetry.stream.bytes", self.path.stat().st_size)
        return fn(self)

    return wrapper


class Instrumentation:
    """Installs and removes the wrappers around :data:`TARGETS`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[type, str, object]] = []

    def _replace(self, owner: type, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        tracer = self.tracer
        for module, cls, attr, span, counters in TARGETS:
            owner = getattr(importlib.import_module(module), cls)
            self._replace(
                owner,
                attr,
                lambda fn, s=span, c=counters: _wrap(fn, tracer, s, c),
            )
        hooks = importlib.import_module("repro.checkpoint.hooks")
        self._replace(
            hooks.RunCheckpointer,
            "save",
            lambda fn: _wrap_checkpointer_save(fn, tracer),
        )
        live = importlib.import_module("repro.telemetry.live")
        self._replace(
            live.JsonlStreamSink,
            "close",
            lambda fn: _wrap_sink_close(fn, tracer),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
