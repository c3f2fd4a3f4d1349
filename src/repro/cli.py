"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table2            # Tables II/III/IV
    python -m repro table5 --frames 16 --repeats 2
    python -m repro fig3|fig4|fig5a|fig5b|fig6
    python -m repro run --dataset 1 --mode full --budget 2.0
    python -m repro run --dataset 1 --perf-report
    python -m repro run --metrics-out m.json --trace-out t.jsonl
    python -m repro run --checkpoint-dir ckpt --result-out result.json
    python -m repro run --checkpoint-dir ckpt --resume
    python -m repro chaos --loss-rate 0.2 --crash 1 --seed 7
    python -m repro run --stream-out s.jsonl --metrics-port 0
    python -m repro run --alert-rule 'battery_fraction_remaining < 0.25'
    python -m repro telemetry-report --metrics m.json --trace t.jsonl
    python -m repro obs profile trace.jsonl
    python -m repro obs diff baseline.json candidate.json
"""

from __future__ import annotations

import argparse
import logging
import sys


def _make_telemetry(args: argparse.Namespace):
    """A Telemetry sink when any telemetry flag asked for one.

    The run id is derived from the command and seed so repeated runs of
    the same configuration produce byte-comparable dump files.
    """
    if not (
        args.metrics_out
        or args.trace_out
        or args.events_out
        or args.stream_out
        or args.metrics_port is not None
        or args.alert_rule
    ):
        return None
    from repro.telemetry import Telemetry

    return Telemetry(run_id=f"{args.command}-{args.seed}")


def _attach_live(telemetry, args: argparse.Namespace):
    """Wire the live flags: stream sink, alert rules, HTTP exporter.

    Returns the started exporter (or ``None``); the caller must pass
    it to :func:`_teardown_live` on every exit path.
    """
    if telemetry is None:
        return None
    if args.stream_out:
        from repro.telemetry import JsonlStreamSink

        telemetry.attach_sink(
            JsonlStreamSink(
                args.stream_out,
                rotate_bytes=args.stream_rotate_bytes,
                resume=bool(getattr(args, "resume", False)),
            )
        )
    if args.alert_rule:
        from repro.telemetry import AlertRuleError

        for expression in args.alert_rule:
            try:
                telemetry.add_alert_rule(expression)
            except AlertRuleError as exc:
                # Any stream sink attached above already holds an open
                # file handle; release it before bailing out.
                telemetry.close_sinks()
                raise SystemExit(f"error: {exc}")
    if args.metrics_port is None:
        return None
    from repro.telemetry.exporter import MetricsExporter

    try:
        exporter = MetricsExporter(telemetry, port=args.metrics_port)
        exporter.start()
    except OSError as exc:
        # Binding fails in the server constructor when the port is
        # already taken; surface it like every other CLI usage error
        # instead of a traceback, and release any attached sinks.
        telemetry.close_sinks()
        raise SystemExit(
            f"error: cannot serve metrics on port "
            f"{args.metrics_port}: {exc}"
        )
    print(
        f"serving /metrics and /status on "
        f"http://{exporter.host}:{exporter.port}"
    )
    return exporter


def _teardown_live(telemetry, exporter) -> None:
    if exporter is not None:
        exporter.close()
    if telemetry is not None:
        telemetry.close_sinks()


def _write_telemetry(telemetry, args: argparse.Namespace) -> None:
    if args.metrics_out:
        telemetry.write_metrics(args.metrics_out)
        print(
            f"wrote {telemetry.registry.series_count()} metric series "
            f"to {args.metrics_out}"
        )
    if args.trace_out:
        count = telemetry.write_trace(args.trace_out)
        print(f"wrote {count} spans to {args.trace_out}")
    if args.events_out:
        count = telemetry.write_events(args.events_out)
        print(f"wrote {count} events to {args.events_out}")


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-out",
        default=None,
        help="dump the metrics snapshot (JSON; .prom/.txt for the "
        "Prometheus text format)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        help="dump the span tree as JSONL (repro.span.v1)",
    )
    p.add_argument(
        "--events-out",
        default=None,
        help="dump structured events as JSONL (repro.event.v1)",
    )
    p.add_argument(
        "--stream-out",
        default=None,
        help="stream one repro.stream.v1 JSONL record per completed "
        "round/tick (atomic appends; readable while the run is live, "
        "and kill-and-resume stitches it gap-free)",
    )
    p.add_argument(
        "--stream-rotate-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the stream file atomically before it exceeds N "
        "bytes (default: never rotate)",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus text on http://127.0.0.1:PORT"
        "/metrics and run state on /status while the run executes "
        "(0 picks a free port, printed at startup)",
    )
    p.add_argument(
        "--alert-rule",
        action="append",
        default=None,
        metavar="EXPR",
        help="threshold alert evaluated at every flush, e.g. "
        "'battery_fraction_remaining < 0.25' or "
        "'breaker_open_total > 3'; transitions are emitted as "
        "alert/alert_cleared events (repeatable)",
    )
    p.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="configure the logging module's root level",
    )


def _add_checkpoint_flags(p: argparse.ArgumentParser, unit: str) -> None:
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="crash-safe checkpoint directory (repro.checkpoint.v2); "
        "snapshots are written atomically, and SIGTERM checkpoints at "
        f"the next {unit} boundary before exiting with status 3",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help=f"checkpoint cadence in completed {unit}s (default 1)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint-dir's snapshot; the completed "
        "run is bit-identical to an uninterrupted one",
    )
    p.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help=f"test hook: checkpoint then crash after {unit} N "
        "(used by the kill-and-resume CI smoke)",
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--resilience",
        action="store_true",
        help="enable the graceful-degradation layer: per-camera health "
        "scoring, circuit breakers on camera links, and the staged "
        "active -> degraded -> quarantined ladder with re-admission "
        "probes (off by default; with no faults the layer is provably "
        "inert)",
    )
    p.add_argument(
        "--health-degrade",
        type=float,
        default=None,
        metavar="H",
        help="health below which a camera is downgraded to its "
        "cheapest profile (default 0.65)",
    )
    p.add_argument(
        "--health-quarantine",
        type=float,
        default=None,
        metavar="H",
        help="health below which a camera is quarantined out of "
        "selection (default 0.35)",
    )
    p.add_argument(
        "--health-readmit",
        type=float,
        default=None,
        metavar="H",
        help="health a degraded/quarantined camera must regain to be "
        "readmitted (default 0.85)",
    )


def _make_resilience_config(args: argparse.Namespace):
    """The ResilienceConfig the flags describe (None = layer off)."""
    if not args.resilience:
        for flag in ("health_degrade", "health_quarantine", "health_readmit"):
            if getattr(args, flag) is not None:
                raise SystemExit(
                    f"--{flag.replace('_', '-')} requires --resilience"
                )
        return None
    from repro.resilience import ResilienceConfig, config_with_thresholds

    return config_with_thresholds(
        ResilienceConfig(enabled=True, seed=args.seed),
        degrade_below=args.health_degrade,
        quarantine_below=args.health_quarantine,
        readmit_above=args.health_readmit,
    )


#: Durability flags and the flag each needs: without it they would do
#: nothing, so :func:`main` refuses them as usage errors (exit 2).
_FLAG_PREREQUISITES = (
    ("stream_rotate_bytes", "stream_out"),
    ("checkpoint_every", "checkpoint_dir"),
    ("resume", "checkpoint_dir"),
    ("crash_after", "checkpoint_dir"),
)


def _missing_prerequisite(args: argparse.Namespace) -> str | None:
    """The usage error for a flag given without the flag it needs."""
    for flag, needed in _FLAG_PREREQUISITES:
        # ``is`` tests: ``--crash-after 0`` is given, ``--resume``
        # defaults to False.
        given = getattr(args, flag, None)
        if given is not None and given is not False and not getattr(
            args, needed
        ):
            return (
                f"--{flag.replace('_', '-')} requires "
                f"--{needed.replace('_', '-')}"
            )
    return None


def _make_checkpointer(args: argparse.Namespace):
    if not args.checkpoint_dir:
        return None
    from repro.checkpoint import CheckpointConfig, RunCheckpointer

    return RunCheckpointer(
        CheckpointConfig(
            directory=args.checkpoint_dir,
            every=(
                1 if args.checkpoint_every is None else args.checkpoint_every
            ),
            resume=args.resume,
            crash_after=args.crash_after,
        )
    )


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.table2_3_4 import algorithm_table, render_table

    mapping = {"table2": (1, "train"), "table3": (2, "train"),
               "table4": (1, "test")}
    number, segment = mapping[args.command]
    rows = algorithm_table(number, camera_index=args.camera, segment=segment)
    print(render_table(
        rows,
        title=f"{args.command.upper()} (dataset #{number}, "
              f"cam {args.camera + 1}, {segment})",
    ))
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.experiments.table5 import similarity_matrix
    from repro.experiments.tables import format_table

    result = similarity_matrix(
        window_frames=args.frames,
        repeats=args.repeats,
        subspace_dim=args.subspace_dim,
    )
    headers = ["train\\test"] + result.labels
    rows = [
        [f"T_{label}"] + [f"{v:.2f}" for v in result.matrix[i]]
        for i, label in enumerate(result.labels)
    ]
    print(format_table(headers, rows))
    print(f"diagonal accuracy: {result.diagonal_accuracy:.2f}")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import adaptive_vs_fixed
    from repro.experiments.tables import format_table

    results = adaptive_vs_fixed()
    print(format_table(
        ["strategy", "recall", "precision", "f_score", "choices"],
        [[r.strategy, r.recall, r.precision, r.f_score, str(r.per_dataset)]
         for r in results],
    ))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.fig4 import tradeoff_curve
    from repro.experiments.tables import format_table

    points = tradeoff_curve(dataset_number=1)
    print(format_table(
        ["config", "detected", "present", "recall", "energy (J)"],
        [[p.label, p.humans_detected, p.humans_present, p.recall,
          p.energy_joules] for p in points],
    ))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.fig5 import (
        HIGH_BUDGET,
        LOW_BUDGET,
        run_modes,
    )
    from repro.experiments.fig6 import DEFAULT_BUDGET
    from repro.experiments.tables import format_table

    if args.command == "fig5a":
        dataset, budget = 1, HIGH_BUDGET
    elif args.command == "fig5b":
        dataset, budget = 1, LOW_BUDGET
    else:
        dataset, budget = 2, DEFAULT_BUDGET
    results = run_modes(dataset_number=dataset, budget=budget)
    print(format_table(
        ["mode", "detected", "present", "energy (J)", "cameras/round"],
        [[r.mode, r.humans_detected, r.humans_present, r.energy_joules,
          str(r.cameras_per_round)] for r in results.values()],
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointError, CheckpointInterrupted
    from repro.engine.spec import DeploymentSpec

    telemetry = _make_telemetry(args)
    if telemetry is None and args.perf_report:
        # The perf report is a view over the run's spans.
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id=f"{args.command}-{args.seed}")
    config = None
    if (
        args.assessment_period is not None
        or args.recalibration_interval is not None
    ):
        from repro.core.config import EECSConfig

        defaults = EECSConfig()
        config = EECSConfig(
            assessment_period=(
                args.assessment_period
                if args.assessment_period is not None
                else defaults.assessment_period
            ),
            recalibration_interval=(
                args.recalibration_interval
                if args.recalibration_interval is not None
                else defaults.recalibration_interval
            ),
        )
    try:
        spec = DeploymentSpec(
            dataset_number=args.dataset,
            policy=args.mode,
            budget=args.budget,
            start=args.start,
            end=args.end,
            seed=args.seed,
            train_seed=args.seed,
            resilience=_make_resilience_config(args),
            fleet_cameras=args.fleet_cameras,
            cells=args.cells,
            wake_threshold=args.wake_threshold,
            predictor_warmup=args.predictor_warmup,
            wake_probe_every=args.wake_probe_every,
            max_sleepers=args.max_sleepers,
            low_energy_below=args.low_energy_below,
        )
    except ValueError as exc:
        # A spec the engine would refuse (e.g. --cells on a flat
        # policy) is a usage error, not a crash.
        raise SystemExit(f"error: {exc}")
    checkpointer = _make_checkpointer(args)
    if telemetry is None:
        engine = spec.build_engine(config=config)
    else:
        with telemetry.tracer.span("offline_training"):
            engine = spec.build_engine(config=config, telemetry=telemetry)
    exporter = _attach_live(telemetry, args)
    try:
        result = spec.execute(engine=engine, checkpointer=checkpointer)
    except CheckpointInterrupted as stop:
        print(f"interrupted: {stop}")
        if telemetry is not None:
            _write_telemetry(telemetry, args)
        return 3
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _teardown_live(telemetry, exporter)
    if args.result_out:
        from repro.checkpoint.codec import run_result_to_dict
        from repro.ioutils import atomic_write_json

        atomic_write_json(args.result_out, run_result_to_dict(result))
        print(f"wrote run result to {args.result_out}")
    print(f"mode:            {result.mode}")
    print(f"humans detected: {result.humans_detected}/{result.humans_present}")
    print(f"energy:          {result.energy_joules:.1f} J "
          f"(processing {result.processing_joules:.1f}, "
          f"communication {result.communication_joules:.2f})")
    if result.decisions:
        cameras = [d.num_active for d in result.decisions]
        print(f"cameras/round:   {cameras}")
    if args.perf_report:
        from repro.obs.profile import fold_by_name, render_table

        entries = fold_by_name(list(telemetry.tracer.iter_records()))
        print()
        print("\n".join(render_table(entries)))
    if telemetry is not None:
        _write_telemetry(telemetry, args)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.checkpoint import CheckpointError, CheckpointInterrupted
    from repro.datasets.synthetic import DATASET_SPECS
    from repro.engine.spec import DeploymentSpec
    from repro.experiments.faults import accuracy_retention
    from repro.faults.plan import FaultPlan

    # --frames N: the first N ground-truth frames of the test segment.
    dataset = DATASET_SPECS[args.dataset]
    baseline_spec = DeploymentSpec(
        dataset_number=args.dataset,
        network=True,
        start=dataset.train_end,
        end=dataset.train_end + args.frames * dataset.gt_every,
        budget=args.budget,
        seed=args.seed,
        train_seed=args.seed,
    )
    try:
        spec = replace(
            baseline_spec,
            loss_rate=args.loss_rate,
            crash_count=args.crash,
            fault_camera_count=args.fault_cameras,
            sensor_noise=args.sensor_noise,
            sensor_fp_rate=args.sensor_fp_rate,
            stuck=args.stuck,
            score_drift_per_s=args.score_drift,
            clock_skew=args.clock_skew,
            corruption_rate=args.corruption_rate,
            resilience=_make_resilience_config(args),
            fault_plan=(
                FaultPlan.load(args.fault_plan) if args.fault_plan else None
            ),
        )
    except ValueError as exc:
        # E.g. --fault-plan combined with --loss-rate: a usage error.
        raise SystemExit(f"error: {exc}")
    telemetry = _make_telemetry(args)
    checkpointer = _make_checkpointer(args)

    engine = baseline_spec.build_engine()
    baseline = baseline_spec.execute(engine=engine)
    # Only the faulty run is instrumented: its metrics are the ones
    # that show loss, retries and re-selection at work.  It is also
    # the only run checkpointed — the zero-fault baseline is cheap to
    # recompute on resume.
    exporter = _attach_live(telemetry, args)
    try:
        result = spec.execute(
            engine=engine, telemetry=telemetry, checkpointer=checkpointer
        )
    except CheckpointInterrupted as stop:
        print(f"interrupted: {stop}")
        if telemetry is not None:
            _write_telemetry(telemetry, args)
        return 3
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _teardown_live(telemetry, exporter)

    if args.result_out:
        from repro.checkpoint.codec import chaos_result_to_dict
        from repro.ioutils import atomic_write_json

        atomic_write_json(args.result_out, chaos_result_to_dict(result))
        print(f"wrote chaos result to {args.result_out}")
    print(f"zero-fault:      {baseline.humans_detected}/"
          f"{baseline.humans_present} detected "
          f"(rate {baseline.detection_rate:.3f})")
    print(f"under faults:    {result.humans_detected}/"
          f"{result.humans_present} detected "
          f"(rate {result.detection_rate:.3f})")
    print(f"retention:       {accuracy_retention(result, baseline):.3f}")
    print(f"messages:        {result.delivered_messages} delivered, "
          f"{result.dropped_messages} dropped, "
          f"{result.retransmissions} retransmitted, "
          f"{result.duplicates_dropped} duplicates suppressed, "
          f"{result.gave_up} gave up")
    print(f"radio+cpu:       {result.total_radio_joules:.2f} J drawn "
          f"(zero-fault {baseline.total_radio_joules:.2f} J)")
    print(f"selections:      {result.num_decisions} "
          f"(final assignment {result.final_assignment})")
    if result.corrupted_received or result.breaker_blocked:
        print(f"resilience:      {result.corrupted_received} corrupted "
              f"payloads discarded, {result.breaker_blocked} sends "
              f"blocked by open breakers")
    if result.camera_modes:
        modes = ", ".join(
            f"{camera}:{mode}"
            for camera, mode in sorted(result.camera_modes.items())
        )
        print(f"camera modes:    {modes}")
    if result.fault_events or result.recovery_events:
        print("events:")
        timeline = sorted(
            result.fault_events + result.recovery_events,
            key=lambda e: e.time_s,
        )
        for event in timeline:
            detail = f" — {event.detail}" if event.detail else ""
            print(f"  t={event.time_s:7.2f}s  {event.kind:<20} "
                  f"{event.subject}{detail}")
    if telemetry is not None:
        _write_telemetry(telemetry, args)
    return 0


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import render_files

    if not (args.metrics or args.trace or args.events):
        print(
            "nothing to report: pass --metrics, --trace and/or --events",
            file=sys.stderr,
        )
        return 2
    print(
        render_files(
            metrics_path=args.metrics,
            trace_path=args.trace,
            events_path=args.events,
            events_limit=args.limit,
        )
    )
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs import load_spans, render_profile

    try:
        records = load_spans(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        render_profile(records, limit=args.limit, folded=args.folded),
        end="",
    )
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import DiffThresholds, diff_runs, load_metrics, render_diff
    from repro.obs.diff import WORSE, has_regression

    overrides = {}
    for spec in args.threshold_for or ():
        name, _, value = spec.partition("=")
        if not value or name not in WORSE:
            print(
                f"error: bad --threshold-for {spec!r}; expected "
                f"indicator=fraction with indicator one of "
                f"{sorted(WORSE)}",
                file=sys.stderr,
            )
            return 2
        overrides[name] = float(value)
    try:
        baseline = load_metrics(args.baseline)
        candidate = load_metrics(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs = diff_runs(
        baseline,
        candidate,
        DiffThresholds(default=args.threshold, overrides=overrides),
    )
    print(render_diff(diffs), end="")
    return 1 if has_regression(diffs) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ALL_SECTIONS, generate_report

    sections = (
        tuple(args.sections) if args.sections else ALL_SECTIONS
    )
    report = generate_report(sections=sections, scale=args.scale)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EECS reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table2", "table3", "table4"):
        p = sub.add_parser(name, help=f"regenerate {name.upper()}")
        p.add_argument("--camera", type=int, default=0)
        p.set_defaults(func=_cmd_table)

    p = sub.add_parser("table5", help="regenerate the similarity matrix")
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--subspace-dim", type=int, default=8)
    p.set_defaults(func=_cmd_table5)

    sub.add_parser("fig3", help="adaptive vs fixed").set_defaults(
        func=_cmd_fig3
    )
    sub.add_parser("fig4", help="accuracy/energy trade-off").set_defaults(
        func=_cmd_fig4
    )
    for name in ("fig5a", "fig5b", "fig6"):
        sub.add_parser(name, help="EECS vs all-best").set_defaults(
            func=_cmd_fig5
        )

    from repro.engine.policy import available_policies

    p = sub.add_parser("run", help="one deployment run")
    p.add_argument("--dataset", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument(
        "--mode",
        "--policy",
        default="full",
        choices=available_policies(),
        help="coordination policy (every registered policy is accepted; "
        "'fixed' additionally needs an assignment and is mainly for "
        "programmatic use)",
    )
    p.add_argument(
        "--wake-threshold",
        type=float,
        default=None,
        metavar="A",
        help="predictive policy: predicted activity (detections per "
        "assessment frame) below which a camera's assessment is "
        "skipped for the round (default 0.45)",
    )
    p.add_argument(
        "--predictor-warmup",
        type=int,
        default=None,
        metavar="N",
        help="predictive policy: assessed rounds a camera must be "
        "observed before it may sleep (default 2; larger than the "
        "run's round count reproduces subset bit for bit)",
    )
    p.add_argument(
        "--wake-probe-every",
        type=int,
        default=None,
        metavar="N",
        help="predictive policy: wake every sleeping camera for a "
        "probe assessment at least every N rounds (default 4)",
    )
    p.add_argument(
        "--max-sleepers",
        type=int,
        default=None,
        metavar="N",
        help="predictive policy: at most N cameras may sleep per round "
        "(the lowest-predicted win the slots; default 1; 0 = uncapped)",
    )
    p.add_argument(
        "--low-energy-below",
        type=float,
        default=None,
        metavar="A",
        help="predictive policy: downgrade woken selected cameras "
        "predicted below activity A to their cheapest affordable "
        "detector profile (default: disabled)",
    )
    p.add_argument("--budget", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--start",
        type=int,
        default=None,
        help="first frame (default: the dataset's test segment start)",
    )
    p.add_argument(
        "--end",
        type=int,
        default=None,
        help="one past the last frame (default: the dataset end)",
    )
    p.add_argument(
        "--assessment-period",
        type=int,
        default=None,
        help="override the config's assessment period (frames)",
    )
    p.add_argument(
        "--recalibration-interval",
        type=int,
        default=None,
        help="override the config's re-calibration interval (frames); "
        "smaller intervals mean more rounds, hence more checkpoints",
    )
    p.add_argument(
        "--fleet-cameras",
        type=int,
        default=None,
        help="tile the dataset into a synthetic fleet of N cameras "
        "(training cost does not grow with fleet size)",
    )
    p.add_argument(
        "--cells",
        type=int,
        default=None,
        help="shard the fleet into N cells for the 'cell'/'cell_full' "
        "policies (default: one fleet-wide cell); other policies "
        "reject it",
    )
    p.add_argument(
        "--perf-report",
        action="store_true",
        help="print the run's phase spans folded by name after the run",
    )
    p.add_argument(
        "--result-out",
        default=None,
        help="dump the RunResult as exact JSON (two bit-identical runs "
        "produce byte-identical files)",
    )
    _add_resilience_flags(p)
    _add_checkpoint_flags(p, unit="round")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "chaos",
        help="fault-injected networked deployment (loss, crashes)",
    )
    p.add_argument("--dataset", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="uniform per-transmission packet loss on every link",
    )
    p.add_argument(
        "--crash",
        type=int,
        default=0,
        help="number of cameras to crash one third into the run",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="JSON FaultPlan file to inject instead of the plan the "
        "fault flags describe (combining it with any of them is an error)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--frames", type=int, default=18)
    p.add_argument("--budget", type=float, default=2.0)
    p.add_argument(
        "--fault-cameras",
        type=int,
        default=1,
        help="how many cameras (in id order) the sensor-level faults "
        "below target",
    )
    p.add_argument(
        "--sensor-noise",
        type=float,
        default=0.0,
        help="per-detection suppression probability during the fault "
        "window (a noisy sensor loses real detections)",
    )
    p.add_argument(
        "--sensor-fp-rate",
        type=float,
        default=0.0,
        help="Poisson rate of fabricated detections per message during "
        "the fault window",
    )
    p.add_argument(
        "--stuck",
        action="store_true",
        help="freeze the targeted sensors on their last healthy frame "
        "during the fault window",
    )
    p.add_argument(
        "--score-drift",
        type=float,
        default=0.0,
        metavar="D",
        help="calibration drift applied to detection scores "
        "(score units per simulated second)",
    )
    p.add_argument(
        "--clock-skew",
        type=float,
        default=0.0,
        help="fractional local-clock skew on the targeted cameras "
        "(0.5 = their intervals run 50%% slow)",
    )
    p.add_argument(
        "--corruption-rate",
        type=float,
        default=0.0,
        help="probability a delivered message from a targeted camera "
        "arrives garbled (discarded unacked by the receiver)",
    )
    p.add_argument(
        "--result-out",
        default=None,
        help="dump the faulty run's NetworkOutcome as exact JSON (two "
        "bit-identical runs produce byte-identical files)",
    )
    _add_resilience_flags(p)
    _add_checkpoint_flags(p, unit="frame tick")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "telemetry-report",
        help="render metrics/trace/event dump files as a text report",
    )
    p.add_argument("--metrics", default=None, help="metrics JSON dump")
    p.add_argument("--trace", default=None, help="span JSONL dump")
    p.add_argument("--events", default=None, help="event JSONL dump")
    p.add_argument(
        "--limit",
        type=int,
        default=40,
        help="event-timeline rows before truncation (truncation is "
        "announced as '(+N more events)')",
    )
    p.set_defaults(func=_cmd_telemetry_report)

    p = sub.add_parser(
        "obs",
        help="offline observability analysis over telemetry artifacts",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "profile",
        help="fold a span trace into flamegraph-style aggregates",
    )
    p.add_argument("trace", help="span JSONL dump (repro.span.v1)")
    p.add_argument(
        "--limit",
        type=int,
        default=30,
        help="span paths and slowest rounds' critical paths to show "
        "(truncation is announced as '(+N more paths)' and "
        "'(+N more rounds)')",
    )
    p.add_argument(
        "--folded",
        action="store_true",
        help="emit collapsed-stack lines (path self-µs) for external "
        "flamegraph tooling instead of the table",
    )
    p.set_defaults(func=_cmd_obs_profile)

    p = obs_sub.add_parser(
        "diff",
        help="compare two runs' efficiency indicators; exits 1 on "
        "regression",
    )
    p.add_argument("baseline", help="metrics JSON dump or stream JSONL")
    p.add_argument("candidate", help="metrics JSON dump or stream JSONL")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression tolerance (default 0.10 = 10%%)",
    )
    p.add_argument(
        "--threshold-for",
        action="append",
        default=None,
        metavar="INDICATOR=FRACTION",
        help="per-indicator override, e.g. joules_per_detection=0.05 "
        "(repeatable)",
    )
    p.set_defaults(func=_cmd_obs_diff)

    p = sub.add_parser(
        "report", help="regenerate all experiments as one Markdown report"
    )
    p.add_argument("--output", default=None, help="write to a file")
    p.add_argument(
        "--sections",
        nargs="+",
        default=None,
        help="subset of sections, e.g. table2 fig5a",
    )
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    missing = _missing_prerequisite(args)
    if missing:
        parser.error(missing)
    level = getattr(args, "log_level", None)
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
