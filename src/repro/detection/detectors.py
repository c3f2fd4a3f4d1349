"""Simulated detection algorithms calibrated to the paper's tables.

A :class:`SimulatedDetector` scores two candidate populations per
frame:

* every pedestrian view, with a Gaussian score whose mean is the
  calibrated clean-object response minus algorithm-specific penalties
  for occlusion, small pixel size and low contrast;
* false-positive candidates seeded by the scene's clutter regions,
  with scores drawn from a *bounded exponential tail* — real detectors
  produce a wall of near-threshold false alarms (furniture edges,
  texture), which is exactly why the f_score-maximising threshold
  sits where the paper's Tables II-IV put it: drop the threshold a
  little and precision collapses.

Calibration solves for the distribution parameters analytically from
the profile's target (threshold, recall, precision), using view
statistics measured on the environment (see
:mod:`repro.detection.view_stats`).  The detector then *runs*:
thresholds move precision/recall along a genuine trade-off curve,
occluded or distant people really are missed more often, and cluttered
scenes really do produce more false alarms.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from repro.detection.base import (
    BoundingBox,
    Detection,
    DetectionColumns,
)
from repro.detection.batch import seeded_generators
from repro.detection.profiles import ResponseProfile, get_profile
from repro.detection.view_stats import (
    SIZE_REFERENCE_FRACTION,
    ViewStatistics,
    nominal_statistics,
)
from repro.vision.color import (
    COLOR_FEATURE_DIM,
    finish_color,
    synthetic_color_base,
    synthetic_color_feature,
)
from repro.world.environment import Environment
from repro.world.renderer import FrameObservation, ObjectView

ALGORITHM_NAMES = ("HOG", "ACF", "C4", "LSVM")

#: One detection as :meth:`SimulatedDetector._draw` emits it: (score,
#: box, truth id, colour shade, colour noise scale, raw colour noise).
_Row = tuple
_first = itemgetter(0)
_NO_DETECTIONS = DetectionColumns((), (), (), (), (), ())

#: Precision targets of 1.0 are treated as this value when sizing the
#: false-positive rate (a literal zero-FP target is degenerate).
_MAX_PRECISION = 0.99

#: Localisation noise: box jitter as a fraction of the box size.
_BOX_JITTER = 0.04
#: Colour-feature noise of true (pedestrian) and false detections.
_TP_COLOR_NOISE = 0.03
_FP_COLOR_NOISE = 0.08

# ----------------------------------------------------------------------
# Standard normal quantile: the Cephes ``ndtri`` algorithm, the one
# ``scipy.special.ndtri`` runs, evaluated in the same operation order so
# results are bit-identical.  A rational approximation in ``y - 0.5``
# covers the centre; the tails are rational in ``1 / sqrt(-2 log y)``.
# ----------------------------------------------------------------------
_SQRT_2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189

# Centre, |y - 0.5| <= 3/8.  The Q polynomials are monic; Cephes's
# p1evl skips the multiplication by the leading 1, which is exact, so
# spelling the 1 out here changes no bit.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Tail, sqrt(-2 log y) in [2, 8): y between exp(-32) and exp(-2).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Far tail, sqrt(-2 log y) >= 8: y below exp(-32).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of ``coef[0]·xⁿ + … + coef[n]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The ``x`` with ``Φ(x) = y0``; ``±inf`` at 1 and 0, nan outside."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXP_MINUS_2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


class SimulatedDetector:
    """One detection algorithm bound to one environment."""

    def __init__(
        self,
        profile: ResponseProfile,
        environment: Environment,
        view_statistics: ViewStatistics | None = None,
    ) -> None:
        self.name = profile.algorithm
        self.profile = profile
        self.environment = environment
        self._stats = (
            view_statistics
            if view_statistics is not None
            else nominal_statistics(environment)
        )
        self._size_ref = SIZE_REFERENCE_FRACTION * environment.height
        self._sigma = profile.score_sigma
        self._tp_mu, self._sigma_eff = self._calibrate_tp_mean()
        # The exponential tail scale of false-positive scores: narrow
        # relative to the effective score spread, so precision falls
        # quickly just below the calibrated threshold (the knee real
        # sliding-window detectors show where texture junk floods in).
        self._fp_tail = self._sigma_eff / 10.0
        (
            self._fp_loc,
            self._fp_count,
            self._conf_mu,
            self._conf_count,
        ) = self._calibrate_false_positives()
        # False alarms sit on background clutter: their noise-free
        # colour is the environment's darkened background shade.
        self._fp_shade = environment.brightness * 0.6

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _penalty_moments(self) -> tuple[float, float]:
        """Mean and std of the penalty under measured view statistics."""
        p, s = self.profile, self._stats
        mean = (
            p.occlusion_sensitivity * s.occlusion_mean
            + p.size_sensitivity * s.size_deficit_mean
            + p.contrast_sensitivity * s.contrast_deficit_mean
        )
        var = (
            (p.occlusion_sensitivity * s.occlusion_std) ** 2
            + (p.size_sensitivity * s.size_deficit_std) ** 2
            + (p.contrast_sensitivity * s.contrast_deficit_std) ** 2
        )
        return mean, float(np.sqrt(var))

    def _calibrate_tp_mean(self) -> tuple[float, float]:
        """Place the clean-object response so that
        ``P(score > threshold) = recall`` over typical views.

        Returns the solved mean and the effective score spread
        (noise plus penalty variability across views).
        """
        p = self.profile
        mean_penalty, penalty_std = self._penalty_moments()
        sigma_eff = float(np.hypot(self._sigma, penalty_std))
        z = _ndtri(p.recall)  # the standard normal quantile
        return p.threshold + mean_penalty + sigma_eff * z, sigma_eff

    def _calibrate_false_positives(self) -> tuple[float, float, float, float]:
        """Solve the two-component FP score distribution.

        The per-frame FP count above the calibrated threshold must
        equal ``TP_rate * (1 - precision) / precision``.  Two candidate
        populations realise it:

        * a dense *junk wall* (texture windows) with a sharp
          exponential knee just below the threshold — lowering the
          threshold floods the output, which is what pins the
          f_score-maximising threshold from below;
        * *confusables* (person-like structures, e.g. the "chap"
          furniture) whose scores spread like the true-positive scores
          — raising the threshold sheds them no faster than it sheds
          true positives, which pins the optimum from above.
        """
        p = self.profile
        precision = min(p.precision, _MAX_PRECISION)
        tp_per_frame = p.recall * self._stats.visible_people_mean
        target_fp = tp_per_frame * (1.0 - precision) / precision

        # Confusables carry 90% of the at-threshold FP rate; with
        # count = 3x their surviving number, their survival is 0.3,
        # placing their mean just below the threshold.
        conf_target = 0.9 * target_fp
        conf_count = 3.0 * conf_target
        conf_mu = p.threshold - 0.5244 * self._sigma_eff  # Phi^-1(0.7)

        wall_target = max(0.1 * target_fp, 1e-4)
        fp_count = max(40.0 + 6.0 * p.fp_candidates, wall_target * 2.0)
        survival = float(np.clip(wall_target / fp_count, 1e-7, 0.95))
        fp_loc = p.threshold + self._fp_tail * np.log(survival)
        # Near-perfect-precision targets would push the wall far below
        # the threshold; clamp it so the junk flood always starts
        # within a fraction of the score spread (this is what keeps
        # the swept optimum from drifting below the paper's threshold
        # on the clean "lab" scenes).
        fp_loc = max(fp_loc, p.threshold - 0.7 * self._sigma_eff)
        return float(fp_loc), float(fp_count), float(conf_mu), float(conf_count)

    # ------------------------------------------------------------------
    # Runtime response model
    # ------------------------------------------------------------------
    def _penalty(self, view: ObjectView) -> float:
        p = self.profile
        size_deficit = min(
            1.0, max(0.0, 1.0 - view.pixel_height / self._size_ref)
        )
        return (
            p.occlusion_sensitivity * view.occlusion
            + p.size_sensitivity * size_deficit
            + p.contrast_sensitivity * (1.0 - view.contrast)
        )

    def _penalties(self, views: list[ObjectView]) -> np.ndarray:
        """Vectorised :meth:`_penalty` over many views.

        Elementwise only (no reductions), with the exact expression
        structure of the scalar path, so each entry is bit-identical
        to ``_penalty(view)``.
        """
        if not views:
            return np.empty(0)
        p = self.profile
        heights = np.array([v.pixel_height for v in views])
        occlusion = np.array([v.occlusion for v in views])
        contrast = np.array([v.contrast for v in views])
        size_deficit = np.clip(1.0 - heights / self._size_ref, 0.0, 1.0)
        return (
            p.occlusion_sensitivity * occlusion
            + p.size_sensitivity * size_deficit
            + p.contrast_sensitivity * (1.0 - contrast)
        )

    def score_view(self, view: ObjectView, rng: np.random.Generator) -> float:
        """Score one pedestrian view (with score noise)."""
        return float(
            self._tp_mu - self._penalty(view) + rng.normal(scale=self._sigma)
        )

    def _jittered_box(
        self, view: ObjectView, rng: np.random.Generator
    ) -> BoundingBox:
        """Localisation noise: a few percent of the box size."""
        bx, by, bw, bh = view.bbox
        jitter = 0.04
        return BoundingBox(
            x=bx + rng.normal(scale=jitter * max(bw, 1.0)),
            y=by + rng.normal(scale=jitter * max(bh, 1.0)),
            w=max(1.0, bw * (1.0 + rng.normal(scale=jitter))),
            h=max(1.0, bh * (1.0 + rng.normal(scale=jitter))),
        )

    def _false_positive_box(
        self,
        observation: FrameObservation,
        rng: np.random.Generator,
    ) -> BoundingBox:
        """A person-shaped false alarm, preferentially on clutter."""
        env = self.environment
        clutter = observation.clutter_regions
        if clutter and rng.random() < 0.8:
            cx, cy, cw, ch = clutter[rng.integers(len(clutter))]
            # Scalar min/max compute np.clip's result without the
            # per-call ufunc dispatch; this sits on the per-FP path.
            h = float(min(env.height, max(8.0, ch * rng.uniform(0.7, 1.1))))
            w = h * rng.uniform(0.35, 0.5)
            x = float(
                min(
                    env.width - w,
                    max(0.0, cx + rng.uniform(-0.2, 0.8) * cw),
                )
            )
            y = float(min(env.height - h, max(0.0, cy + ch - h)))
        else:
            h = rng.uniform(0.15, 0.45) * env.height
            w = h * rng.uniform(0.35, 0.5)
            x = rng.uniform(0, max(1.0, env.width - w))
            y = rng.uniform(0.2 * env.height, max(1.0, env.height - h))
        return BoundingBox(x=float(x), y=float(y), w=float(w), h=float(h))

    def draw(
        self,
        observation: FrameObservation,
        rng: np.random.Generator,
        threshold: float | None = None,
    ) -> DetectionColumns:
        """Score all candidates into columns; keep those above
        ``threshold`` if given.

        Consumes ``rng`` exactly as :meth:`detect` does on the same
        arguments, and describes the same detections in the same
        order; offline training reads these columns directly.
        """
        rows = self._draw(
            observation,
            rng,
            threshold,
            self._penalties(observation.objects).tolist(),
        )
        return DetectionColumns(*zip(*rows)) if rows else _NO_DETECTIONS

    def detect(
        self,
        observation: FrameObservation,
        rng: np.random.Generator,
        threshold: float | None = None,
    ) -> list[Detection]:
        """Score all candidates; keep those above ``threshold`` if given.

        Args:
            observation: The rendered frame with its object views.
            rng: Randomness source for score noise.
            threshold: Optional score cut-off; when ``None`` all scored
                candidates are returned (callers sweep thresholds).
        """
        rows = self._draw(
            observation,
            rng,
            threshold,
            self._penalties(observation.objects).tolist(),
        )
        return self._wrap(observation, rows, {})

    def detect_batch(self, tasks) -> list[list[Detection]]:
        """Batched entry point: seed every task's generator at once,
        vectorise per-view penalties across the group, then run each
        task through the response model.

        The penalty model is deterministic and the batch seeder puts
        one reused generator in exactly each task's
        ``default_rng(list(entropy))`` state, so hoisting both out of
        the per-task loop changes nothing: every task consumes its
        coordinate-seeded stream exactly as :meth:`detect` would.
        """
        all_views: list[ObjectView] = []
        offsets = [0]
        for task in tasks:
            all_views.extend(task.observation.objects)
            offsets.append(len(all_views))
        penalties = self._penalties(all_views)
        shade_bases: dict[float, np.ndarray] = {}
        return [
            self._wrap(
                task.observation,
                self._draw(
                    task.observation,
                    rng,
                    task.threshold,
                    penalties[offsets[index] : offsets[index + 1]].tolist(),
                ),
                shade_bases,
            )
            for index, (task, rng) in enumerate(
                zip(tasks, seeded_generators(t.entropy for t in tasks))
            )
        ]

    def _draw(
        self,
        observation: FrameObservation,
        rng: np.random.Generator,
        threshold: float | None,
        penalties: list[float],
    ) -> list[_Row]:
        """The response model with view penalties precomputed: the one
        draw routine behind :meth:`draw`, :meth:`detect` and
        :meth:`detect_batch`.

        Returns one plain ``(score, box, truth_id, color_shade,
        color_scale, color_noise)`` row per detection — the entries of
        :class:`~repro.detection.base.DetectionColumns`, which is their
        transpose — in decreasing score order, tied scores in draw
        order.  Colours stay raw noise, and no object is built per
        detection.

        Draws the generator in the reference order (one score normal
        per view; box jitter, then colour noise, for survivors; the
        false-positive populations last) but through batched fills —
        ``standard_normal(44)`` consumes exactly the 4 + 40 values the
        unbatched path draws one by one, and an ``exponential(size=n)``
        fill matches n sequential scalar draws — so the rows describe
        :meth:`detect_reference`'s detections bit for bit.
        """
        rows = []
        append = rows.append
        mu = self._tp_mu
        sigma = self._sigma
        normal = rng.standard_normal
        for view, penalty in zip(observation.objects, penalties):
            score = mu - penalty + sigma * normal()
            if threshold is not None and score < threshold:
                continue
            gauss = normal(4 + COLOR_FEATURE_DIM)
            dx, dy, dw, dh = gauss[:4].tolist()
            bx, by, bw, bh = view.bbox
            box = (
                bx + _BOX_JITTER * max(bw, 1.0) * dx,
                by + _BOX_JITTER * max(bh, 1.0) * dy,
                max(1.0, bw * (1.0 + _BOX_JITTER * dw)),
                max(1.0, bh * (1.0 + _BOX_JITTER * dh)),
            )
            append((
                score,
                box,
                view.person_id,
                view.shade,
                _TP_COLOR_NOISE,
                gauss[4:],
            ))
        n_wall = rng.poisson(self._fp_count)
        n_conf = rng.poisson(self._conf_count) if self._conf_count > 0 else 0
        fp_scores = self._fp_loc + rng.exponential(self._fp_tail, size=n_wall)
        if n_conf:
            fp_scores = np.concatenate((
                fp_scores,
                self._conf_mu + rng.normal(scale=self._sigma_eff, size=n_conf),
            ))
        if threshold is not None:
            fp_scores = fp_scores[fp_scores >= threshold]
        self._draw_false_positives(
            rows, fp_scores.tolist(), observation.clutter_regions, rng
        )
        # Stable, so tied scores keep draw order, as the reference's
        # ``key=-score`` sort does.
        rows.sort(key=_first, reverse=True)
        return rows

    def _draw_false_positives(
        self,
        rows: list[_Row],
        scores: list[float],
        clutter: list[tuple[float, float, float, float]],
        rng: np.random.Generator,
    ) -> None:
        """Append a false-positive row per score, in order: a
        person-shaped box, preferentially on clutter, then its colour
        noise.

        The box takes the draws of :meth:`_false_positive_box`, inlined:
        each ``lo + (hi - lo) * random()`` is ``Generator.uniform(lo,
        hi)``'s own arithmetic on the same double, and each conditional
        expression picks what the builtin ``min``/``max`` would, so
        every box is bit-identical.
        """
        append = rows.append
        normal = rng.standard_normal
        n_clutter = len(clutter)
        width = float(self.environment.width)
        height = float(self.environment.height)
        random = rng.random
        integers = rng.integers
        fp_shade = self._fp_shade
        for score in scores:
            if clutter and random() < 0.8:
                cx, cy, cw, ch = clutter[integers(n_clutter)]
                h = ch * (0.7 + (1.1 - 0.7) * random())
                h = h if h > 8.0 else 8.0
                h = h if h < height else height
                w = h * (0.35 + (0.5 - 0.35) * random())
                x = cx + (-0.2 + (0.8 - -0.2) * random()) * cw
                x = x if x > 0.0 else 0.0
                x = x if x < width - w else width - w
                y = cy + ch - h
                y = y if y > 0.0 else 0.0
                y = y if y < height - h else height - h
            else:
                h = (0.15 + (0.45 - 0.15) * random()) * height
                w = h * (0.35 + (0.5 - 0.35) * random())
                x = width - w
                x = 0.0 + ((x if x > 1.0 else 1.0) - 0.0) * random()
                low = 0.2 * height
                y = height - h
                y = low + ((y if y > 1.0 else 1.0) - low) * random()
            append((
                score,
                (x, y, w, h),
                None,
                fp_shade,
                _FP_COLOR_NOISE,
                normal(COLOR_FEATURE_DIM),
            ))

    def _wrap(
        self,
        observation: FrameObservation,
        rows: list[_Row],
        shade_bases: dict[float, np.ndarray],
    ) -> list[Detection]:
        """One :class:`Detection` per row of :meth:`_draw`, in order.

        Each colour is finished in its own fresh 40-element array.
        ``shade_bases`` memoises the noise-free colour base per shade;
        callers share it across a batch.
        """
        camera_id = observation.camera_id
        frame_index = observation.frame_index
        name = self.name
        detections = []
        append = detections.append
        for score, box, truth_id, shade, scale, noise in rows:
            base = shade_bases.get(shade)
            if base is None:
                base = shade_bases[shade] = synthetic_color_base(shade)
            append(
                Detection(
                    bbox=BoundingBox(*box),
                    score=score,
                    camera_id=camera_id,
                    frame_index=frame_index,
                    algorithm=name,
                    color_feature=finish_color(noise, scale, base),
                    truth_id=truth_id,
                )
            )
        return detections

    def detect_reference(
        self,
        observation: FrameObservation,
        rng: np.random.Generator,
        threshold: float | None = None,
    ) -> list[Detection]:
        """The pinned one-draw-at-a-time response model.

        Kept verbatim as the oracle for the batched-path equivalence
        tests and as the honest baseline in the scale benchmarks; any
        divergence from :meth:`detect` is a bug in the batched path.
        """
        detections: list[Detection] = []
        for view in observation.objects:
            score = self.score_view(view, rng)
            if threshold is not None and score < threshold:
                continue
            detections.append(
                Detection(
                    bbox=self._jittered_box(view, rng),
                    score=score,
                    camera_id=observation.camera_id,
                    frame_index=observation.frame_index,
                    algorithm=self.name,
                    color_feature=synthetic_color_feature(view.shade, rng),
                    truth_id=view.person_id,
                )
            )
        background_shade = self.environment.brightness
        n_wall = rng.poisson(self._fp_count)
        n_conf = rng.poisson(self._conf_count) if self._conf_count > 0 else 0
        fp_scores = [
            float(self._fp_loc + rng.exponential(self._fp_tail))
            for _ in range(n_wall)
        ]
        fp_scores.extend(
            float(self._conf_mu + rng.normal(scale=self._sigma_eff))
            for _ in range(n_conf)
        )
        for score in fp_scores:
            if threshold is not None and score < threshold:
                continue
            detections.append(
                Detection(
                    bbox=self._false_positive_box(observation, rng),
                    score=score,
                    camera_id=observation.camera_id,
                    frame_index=observation.frame_index,
                    algorithm=self.name,
                    color_feature=synthetic_color_feature(
                        background_shade * 0.6, rng, noise=0.08
                    ),
                    truth_id=None,
                )
            )
        detections.sort(key=lambda d: -d.score)
        return detections


def make_detector(
    algorithm: str,
    environment: Environment,
    view_statistics: ViewStatistics | None = None,
) -> SimulatedDetector:
    """Build the calibrated detector for one algorithm/environment pair."""
    profile = get_profile(algorithm, environment.family)
    return SimulatedDetector(profile, environment, view_statistics)


def make_detector_suite(
    environment: Environment,
    algorithms: tuple[str, ...] = ALGORITHM_NAMES,
    view_statistics: ViewStatistics | None = None,
) -> dict[str, SimulatedDetector]:
    """All pre-installed detectors for one environment, keyed by name."""
    return {
        name: make_detector(name, environment, view_statistics)
        for name in algorithms
    }
