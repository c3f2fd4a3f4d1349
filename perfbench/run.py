"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper3 --seed 1 --seconds 8 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Load is a closed loop with one client: the next deployment
starts when the previous one returns.  ``--trace 0`` reports the
end-to-end metrics with no wrappers installed; ``--trace 1`` reports
the per-layer metrics of a traced run (see ``spans.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

# setup_s counts from here: imports, training, rendering and warm-up.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

# Per-deployment counters of the traced run: (metric, unit).
COUNTERS = [
    ("detection.calls", "1/deploy"),
    ("detection.tasks", "1/deploy"),
    ("reid.group.calls", "1/deploy"),
    ("reid.group.detections", "1/deploy"),
    ("reid.group.groups", "1/deploy"),
    ("selection.select.calls", "1/deploy"),
    ("selection.global_accuracy.calls", "1/deploy"),
    ("fleet.allocate.calls", "1/deploy"),
    ("energy.record.calls", "1/deploy"),
    ("network.events", "1/deploy"),
    ("network.send.calls", "1/deploy"),
    ("transport.send.calls", "1/deploy"),
    ("resilience.evaluate.calls", "1/deploy"),
    ("telemetry.flush.calls", "1/deploy"),
    ("telemetry.stream.bytes", "B/deploy"),
    ("checkpoint.save.calls", "1/deploy"),
    ("checkpoint.save.bytes", "B/deploy"),
]
# Per-deployment self times of the traced run, by span name.
SELF_TIMES = [
    "detection",
    "reid.group",
    "selection.greedy",
    "selection.downgrade",
    "selection.global_accuracy",
    "fleet.select_round",
    "fleet.allocate",
    "energy.record",
    "network.run",
    "resilience.evaluate",
    "telemetry.flush",
    "checkpoint.capture",
    "checkpoint.save",
    "engine",
]
# Self times summed over set-up (training and rendering happen there).
SETUP_SELF_TIMES = ["context.train", "datasets.render"]


@dataclass
class Phase:
    """Deployments of one timed loop."""

    durations: list = field(default_factory=list)
    camera_frames: int = 0
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def camera_frames_per_s(self) -> float:
        return self.camera_frames / sum(self.durations)


def deploy_checked(workload, items, index, references, phase, tracer=None):
    """Deploy ``items[index]``: timed (and traced, as a root ``deploy``
    span, when ``tracer`` is set), then checked.  The first checked
    outcome of each input becomes its reference, which every later
    deployment of that input must reproduce bit for bit."""
    item = items[index]
    phase.attempted += 1
    with workload.workspace() as workdir:
        root = tracer.begin("deploy") if tracer is not None else None
        start = time.perf_counter()
        try:
            raw = workload.deploy(item, workdir)
        except Exception:
            raw = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if root is not None:
            tracer.end(root)
        if raw is None:
            phase.failed += 1
            return
        outcome = workload.outcome(item, raw, workdir)
    errors = list(outcome.errors)
    reference = references[index]
    if reference is not None and outcome.digest != reference.digest:
        errors.append("result digest differs from this input's first run")
    if errors:
        phase.failed += 1
        print(f"check failed on {item!r}: {errors}", file=sys.stderr)
        return
    if reference is None:
        references[index] = outcome
    phase.durations.append(elapsed)
    phase.camera_frames += outcome.camera_frames
    for name, value in outcome.counts.items():
        phase.counts[name] = phase.counts.get(name, 0) + value


def timed_loop(workload, items, references, cycles, tracer=None) -> Phase:
    """Deploy ``cycles`` whole cycles of inputs.  A cycle is one
    repetition; each starts after a full garbage collection."""
    phase = Phase()
    start = time.perf_counter()
    for _ in range(cycles):
        gc.collect()
        for index in range(len(items)):
            deploy_checked(workload, items, index, references, phase, tracer)
    if phase.durations:
        times = sorted(phase.durations)
        print(
            f"{len(times)} deployments in {time.perf_counter() - start:.2f} s:"
            f" min {times[0]:.4f} s, median {statistics.median(times):.4f} s,"
            f" max {times[-1]:.4f} s",
            file=sys.stderr,
        )
    return phase


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase, references, setup_s) -> dict:
    # Simulated statistics of one cycle: every repetition reproduces
    # its input's reference, so this is also any whole run's value.
    references = [r for r in references if r is not None]
    joules = sum(r.joules for r in references)
    detected = sum(r.humans_detected for r in references)
    present = sum(r.humans_present for r in references)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "camera_frames_per_s": metric(phase.camera_frames_per_s, "1/s"),
        "deploy_s.p50": metric(statistics.median(phase.durations), "s"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
        "joules_per_detection": metric(joules / detected, "J"),
        "detection_rate": metric(detected / present, "ratio"),
    }


def per_layer(setup_tracer, tracer, traced, untraced) -> dict:
    deployments = len(traced.durations) + traced.failed
    counts = dict(tracer.counts)
    self_times = tracer.self_times()
    setup_times = setup_tracer.self_times()
    metrics = {
        name: metric(counts.get(name, 0) / deployments, unit)
        for name, unit in COUNTERS
    }
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = metric(
            self_times.get(name, 0.0) / deployments, "s/deploy"
        )
    for name in SETUP_SELF_TIMES:
        metrics[f"{name}.self_s"] = metric(setup_times.get(name, 0.0), "s")
    first = counts.get("transport.send.calls", 0)
    resent = traced.counts.get("transport.retransmissions", 0)
    # Nothing sent wastes nothing: the ratio is 1 without transmissions.
    metrics["network.useful_ratio"] = metric(
        first / (first + resent) if first + resent else 1.0, "ratio"
    )
    metrics["trace.wall_s"] = metric(
        tracer.root_seconds() / deployments, "s/deploy"
    )
    metrics["trace.residual_s"] = metric(
        self_times.get("deploy", 0.0) / deployments, "s/deploy"
    )
    metrics["trace.overhead_ratio"] = metric(
        traced.camera_frames_per_s / untraced.camera_frames_per_s, "ratio"
    )
    return metrics


def print_shares(metrics: dict) -> None:
    """Where the traced deployments spent their time, largest first."""
    wall = metrics["trace.wall_s"]["value"]
    rows = [
        (m["value"] / wall, name)
        for name, m in metrics.items()
        if m["unit"] == "s/deploy" and name != "trace.wall_s"
    ]
    for share, name in sorted(rows, reverse=True):
        print(f"  {share:7.1%}  {name}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out",
        help="with --trace 1, also write every traced span as JSON lines here",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = CHECKOUT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))

    import spans
    import workloads

    try:
        workload = workloads.make_workload(args.workload, CHECKOUT)
    except ValueError as exc:
        sys.exit(f"perfbench: {exc}")
    items = workload.inputs(args.seed)

    setup_tracer = spans.Tracer()
    setup_wrappers = spans.Instrumentation(setup_tracer)
    if args.trace:
        setup_wrappers.install()
    # One untimed warm-up deployment per trained context: training,
    # frame rendering and first-use caches land in set-up, not in the
    # timed loop.  Its outcome is that input's reference.
    references = [None] * len(items)
    warmup = Phase()
    for index in range(workload.contexts):
        deploy_checked(workload, items, index, references, warmup)
    setup_wrappers.uninstall()
    setup_s = time.perf_counter() - PROCESS_START

    # The cycle count comes from --seconds and the nominal cycle length,
    # not from the clock, so a run does the same work however fast the
    # host is at the moment: counts and memory repeat exactly.
    def cycles(seconds: float) -> int:
        return max(1, round(seconds / workloads.CYCLE_SECONDS))

    metrics = None
    if not args.trace:
        phase = timed_loop(workload, items, references, cycles(args.seconds))
        phases = [warmup, phase]
        if phase.durations:
            metrics = end_to_end(phase, references, setup_s)
    else:
        half = cycles(args.seconds / 2)
        untraced = timed_loop(workload, items, references, half)
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer):
            traced = timed_loop(workload, items, references, half, tracer)
        phases = [warmup, untraced, traced]
        if traced.durations and untraced.durations:
            metrics = per_layer(setup_tracer, tracer, traced, untraced)
            print_shares(metrics)
        # Every span's self time, summed, must account for the traced
        # wall time exactly: the tracer loses no time and counts none
        # twice.
        total_self = sum(tracer.self_times().values())
        if abs(total_self - tracer.root_seconds()) > 1e-9 * max(
            1.0, tracer.root_seconds()
        ):
            print("span self times do not sum to the traced wall time",
                  file=sys.stderr)
            traced.failed += 1
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if metrics is None:
        print(
            f"perfbench: no deployment succeeded ({failed} of {attempted} "
            "failed)",
            file=sys.stderr,
        )
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
