"""Failure counting in the timed loop, with a stand-in workload."""

from contextlib import contextmanager

import run
from workloads import Outcome


class FakeWorkload:
    """Deploys return a scripted digest, error list or exception."""

    contexts = 1

    def __init__(self, script):
        self.script = iter(script)

    @contextmanager
    def workspace(self):
        yield None

    def deploy(self, item, workdir):
        step = next(self.script)
        if isinstance(step, Exception):
            raise step
        return step

    def outcome(self, item, raw, workdir):
        digest, errors = raw
        return Outcome(
            camera_frames=10,
            humans_detected=1,
            humans_present=2,
            joules=3.0,
            digest=digest,
            errors=errors,
        )


def test_raised_failed_check_and_changed_digest_each_count_as_failed():
    workload = FakeWorkload(
        [
            ("a", []),  # reference
            ("a", []),  # ok
            RuntimeError("boom"),
            ("a", ["energy does not add up"]),
            ("b", []),  # differs from the reference
            ("a", []),  # ok
        ]
    )
    references = [None]
    phase = run.timed_loop(workload, ["item"], references, cycles=6)
    assert (phase.attempted, phase.failed) == (6, 3)
    assert len(phase.durations) == 3
    assert phase.camera_frames == 30
    assert references[0].digest == "a"
