"""The predictive wake-up coordination policy.

EECS assesses every camera every round: each assessment period, every
camera runs all affordable algorithms and uploads metadata, even if
the controller then leaves it out of the operating subset.  On quiet
cameras that standing assessment cost dominates the energy bill and
caps network lifetime.

``predictive`` keeps the EECS selection machinery intact but gates the
assessment itself with per-camera online regressors
(:mod:`repro.predictive`): a camera whose predicted activity falls
below the wake threshold sleeps through the round — no detection, no
upload, no energy — and a periodic probe bounds how stale its
regressor can get.  A warmup floor keeps every camera awake until its
regressor has observed enough rounds; with a warmup longer than the
run, the policy never skips and reproduces ``subset`` bit for bit
(the ``entropy_alias`` below shares subset's rng stream, exactly as
the hierarchical cell policy does at one cell).

Every wake/skip decision is emitted as a telemetry event
(``camera_wake`` / ``camera_skip``, see :mod:`repro.telemetry.schema`)
so a live dashboard can audit what the regressors are doing.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.policy import RoundPlan, SubsetPolicy, register_policy
from repro.predictive import (
    PredictiveConfig,
    PredictorBank,
    camera_activity,
)


@register_policy
class PredictivePolicy(SubsetPolicy):
    """EECS subset selection behind a learned wake-up gate."""

    name = "predictive"
    #: Warmup rounds (and every woken round) must reproduce subset's
    #: detections exactly, so the policy shares subset's rng stream.
    entropy_alias = "subset"
    enable_downgrade = False

    def __init__(self, config: PredictiveConfig | None = None) -> None:
        self.config = config or PredictiveConfig()
        self._bank: PredictorBank | None = None
        #: Consecutive rounds each camera has slept.
        self._sleep: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Round planning: subset's schedule, plus fresh per-run state
    # ------------------------------------------------------------------
    def plan_rounds(self, engine, records, budget, assignment):
        self._bank = PredictorBank(
            list(engine.dataset.camera_ids),
            forgetting=self.config.forgetting,
            seed=self.config.seed,
        )
        self._sleep = {c: 0 for c in engine.dataset.camera_ids}
        return super().plan_rounds(engine, records, budget, assignment)

    # ------------------------------------------------------------------
    # The wake-up gate
    # ------------------------------------------------------------------
    def refine_round(
        self, engine, round_plan: RoundPlan, round_index: int
    ) -> RoundPlan:
        config = self.config
        predictions: dict[str, float] = {}
        reasons: dict[str, str] = {}
        skips: list[str] = []
        for camera_id in engine.dataset.camera_ids:
            predictor = self._bank.predictor(camera_id)
            predicted = predictor.predict_next()
            if predicted is not None:
                predictions[camera_id] = predicted
            if not predictor.ready(config.predictor_warmup):
                reasons[camera_id] = "warmup"
            elif self._sleep[camera_id] + 1 >= config.probe_every:
                reasons[camera_id] = "probe"
            elif predicted < config.wake_threshold:
                skips.append(camera_id)
            else:
                reasons[camera_id] = "predicted_active"
        if (
            config.max_sleepers is not None
            and len(skips) > config.max_sleepers
        ):
            # Sleep rationing: only the cameras the regressors are most
            # confident about (lowest predicted activity) win the sleep
            # slots; the rest stay awake so fused coverage never loses
            # more than max_sleepers views at once.
            ranked = sorted(
                skips, key=lambda c: (predictions.get(c, 0.0), c)
            )
            for camera_id in ranked[config.max_sleepers :]:
                reasons[camera_id] = "rationed"
            skips = ranked[: config.max_sleepers]
        if skips and len(skips) == len(engine.dataset.camera_ids):
            # Never sleep the whole fleet: selection needs at least one
            # assessed camera.  Rescue the likeliest-active sleeper.
            rescued = max(
                skips, key=lambda c: (predictions.get(c, 0.0), c)
            )
            skips.remove(rescued)
            reasons[rescued] = "quorum"

        for camera_id in engine.dataset.camera_ids:
            if camera_id in reasons:
                self._sleep[camera_id] = 0
            else:
                self._sleep[camera_id] += 1
        if engine.telemetry is not None:
            for camera_id in engine.dataset.camera_ids:
                woken = camera_id in reasons
                engine.telemetry.event(
                    "camera_wake" if woken else "camera_skip",
                    time_s=engine.clock.now_s,
                    node_id=camera_id,
                    round=round_index,
                    predicted=predictions.get(camera_id),
                    threshold=config.wake_threshold,
                    reason=reasons.get(camera_id, "predicted_idle"),
                )
        if not skips:
            return round_plan
        return replace(round_plan, skip_cameras=tuple(sorted(skips)))

    # ------------------------------------------------------------------
    # Selection: subset's decision, plus observation
    # ------------------------------------------------------------------
    def select(self, engine, assessment, budget_overrides, meter=None):
        decision = super().select(
            engine, assessment, budget_overrides, meter
        )
        # The regressors learn from the *assessed* activity.
        for camera_id in assessment.camera_ids:
            observation = camera_activity(assessment, camera_id)
            if observation is not None:
                self._bank.predictor(camera_id).observe(*observation)
        return decision

    # ------------------------------------------------------------------
    # Checkpoint participation
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict | None:
        if self._bank is None:
            return None
        return {
            "version": 1,
            "sleep": dict(self._sleep),
            "bank": self._bank.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        bank_state = state["bank"]
        if self._bank is None:
            self._bank = PredictorBank(
                list(bank_state),
                forgetting=self.config.forgetting,
                seed=self.config.seed,
            )
        self._bank.restore(bank_state)
        self._sleep = {
            camera_id: int(count)
            for camera_id, count in state["sleep"].items()
        }

    def config_fingerprint(self) -> dict | None:
        return self.config.to_dict()
