"""Configuration for the predictive wake-up policy."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class PredictiveConfig:
    """Tunables of the ``predictive`` coordination policy.

    Attributes:
        wake_threshold: Predicted activity (expected detections per
            assessment frame) below which a ready camera's assessment
            is skipped for the round.
        predictor_warmup: Assessed rounds a camera must be observed
            before the policy may skip it.  A warmup larger than the
            run's round count never skips, which is the configuration
            that reproduces ``subset`` bit for bit.
        probe_every: A sleeping camera is woken for a probe assessment
            at least every this many rounds, bounding how stale its
            regressor can get (and hence the detection-rate loss a
            wrong prediction can cost).
        max_sleepers: Sleep rationing: at most this many cameras may
            sleep in any one round (the lowest-predicted ones win the
            slots; the rest are woken with reason ``rationed``).
            Dense scenes lose detections roughly linearly in the
            number of simultaneously dark views, so capping
            concurrent sleepers — and letting the probe cycle rotate
            who sleeps — converts the same energy saving into far
            less detection loss than an uncapped threshold.  ``None``
            disables rationing (pure threshold semantics).
        forgetting: RLS forgetting factor in (0, 1]; smaller tracks
            non-stationary scenes faster.
        seed: Seeds the per-camera regressors' symmetry-breaking
            priors (the CLI ties it to the run seed).
    """

    wake_threshold: float = 0.45
    predictor_warmup: int = 2
    probe_every: int = 4
    max_sleepers: int | None = 1
    forgetting: float = 0.9
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.wake_threshold < 0.0:
            raise ValueError(
                f"wake_threshold must be >= 0, got {self.wake_threshold}"
            )
        if self.predictor_warmup < 1:
            raise ValueError(
                f"predictor_warmup must be >= 1, got "
                f"{self.predictor_warmup}"
            )
        if self.probe_every < 1:
            raise ValueError(
                f"probe_every must be >= 1, got {self.probe_every}"
            )
        if self.max_sleepers is not None and self.max_sleepers < 1:
            raise ValueError(
                f"max_sleepers must be >= 1 (or None for uncapped), "
                f"got {self.max_sleepers}"
            )
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(
                f"forgetting must be in (0, 1], got {self.forgetting}"
            )

    @classmethod
    def from_overrides(
        cls,
        wake_threshold: float | None = None,
        predictor_warmup: int | None = None,
        probe_every: int | None = None,
        max_sleepers: int | None = None,
        forgetting: float | None = None,
        seed: int | None = None,
    ) -> "PredictiveConfig":
        """Defaults with any subset overridden (``None`` = keep the
        default) — the CLI/spec construction path.  ``max_sleepers=0``
        means uncapped (the CLI's spelling of ``None``, which here
        already means "keep the default")."""
        base = cls()
        return cls(
            wake_threshold=(
                base.wake_threshold
                if wake_threshold is None
                else wake_threshold
            ),
            predictor_warmup=(
                base.predictor_warmup
                if predictor_warmup is None
                else predictor_warmup
            ),
            probe_every=(
                base.probe_every if probe_every is None else probe_every
            ),
            max_sleepers=(
                base.max_sleepers
                if max_sleepers is None
                else (None if max_sleepers == 0 else max_sleepers)
            ),
            forgetting=(
                base.forgetting if forgetting is None else forgetting
            ),
            seed=base.seed if seed is None else seed,
        )

    def to_dict(self) -> dict:
        """Plain JSON values — the checkpoint fingerprint payload, so
        a resume under a different wake configuration is refused."""
        return asdict(self)
