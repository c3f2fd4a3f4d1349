"""Multi-object tracking over fused detections.

Each confirmed track holds one Kalman filter on the ground plane.  Per
frame the tracker predicts all tracks, greedily associates the frame's
re-identified object groups (nearest gating distance first), updates
matched tracks, spawns tentative tracks for unmatched groups, and
retires tracks that miss too many consecutive frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.reid.fusion import ObjectGroup
from repro.tracking.kalman import KalmanFilter2D


@dataclass
class Track:
    """One tracked object.

    Attributes:
        track_id: Stable identifier assigned at spawn.
        filter: The ground-plane Kalman filter.
        hits: Number of frames with an associated detection.
        misses: Consecutive frames without one.
        confirmed: Whether the track has enough hits to count.
        truth_ids: Ground-truth ids of associated groups (evaluation
            only).
    """

    track_id: int
    filter: KalmanFilter2D
    hits: int = 1
    misses: int = 0
    confirmed: bool = False
    truth_ids: list[int] = field(default_factory=list)

    @property
    def majority_truth_id(self) -> int | None:
        """Most frequent associated ground-truth id (evaluation only)."""
        if not self.truth_ids:
            return None
        values, counts = np.unique(self.truth_ids, return_counts=True)
        return int(values[np.argmax(counts)])


class GroundPlaneTracker:
    """Tracks re-identified objects across frames."""

    def __init__(
        self,
        dt: float = 1.0,
        gate: float = 3.5,
        confirm_hits: int = 2,
        max_misses: int = 3,
        process_noise: float = 0.08,
        measurement_noise: float = 0.2,
    ) -> None:
        if confirm_hits < 1:
            raise ValueError("confirm_hits must be >= 1")
        if max_misses < 0:
            raise ValueError("max_misses cannot be negative")
        self.dt = dt
        self.gate = gate
        self.confirm_hits = confirm_hits
        self.max_misses = max_misses
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise
        self.tracks: list[Track] = []
        self.retired: list[Track] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def _spawn(self, position: np.ndarray, truth_id: int | None) -> Track:
        track = Track(
            track_id=self._next_id,
            filter=KalmanFilter2D(
                position,
                dt=self.dt,
                process_noise=self.process_noise,
                measurement_noise=self.measurement_noise,
            ),
        )
        if truth_id is not None:
            track.truth_ids.append(truth_id)
        if self.confirm_hits <= 1:
            track.confirmed = True
        self._next_id += 1
        self.tracks.append(track)
        return track

    def step(self, groups: list[ObjectGroup]) -> list[Track]:
        """Advance one frame with that frame's fused object groups.

        Returns the currently confirmed tracks.
        """
        for track in self.tracks:
            track.filter.predict()

        measurements = []
        for group in groups:
            if group.ground_point is None:
                continue
            measurements.append(
                (np.array(group.ground_point), group.majority_truth_id)
            )

        # Greedy gated assignment: smallest gating distance first.
        candidates = []
        for t_idx, track in enumerate(self.tracks):
            for m_idx, (position, _) in enumerate(measurements):
                distance = track.filter.gating_distance(position)
                if distance <= self.gate:
                    candidates.append((distance, t_idx, m_idx))
        candidates.sort()
        assigned_tracks: set[int] = set()
        assigned_measurements: set[int] = set()
        for distance, t_idx, m_idx in candidates:
            if t_idx in assigned_tracks or m_idx in assigned_measurements:
                continue
            assigned_tracks.add(t_idx)
            assigned_measurements.add(m_idx)
            track = self.tracks[t_idx]
            position, truth_id = measurements[m_idx]
            track.filter.update(position)
            track.hits += 1
            track.misses = 0
            if truth_id is not None:
                track.truth_ids.append(truth_id)
            if track.hits >= self.confirm_hits:
                track.confirmed = True

        # Unmatched tracks accumulate misses; retire the stale ones.
        survivors = []
        for t_idx, track in enumerate(self.tracks):
            if t_idx not in assigned_tracks:
                track.misses += 1
            if track.misses > self.max_misses:
                self.retired.append(track)
            else:
                survivors.append(track)
        self.tracks = survivors

        # Unmatched measurements spawn tentative tracks.
        for m_idx, (position, truth_id) in enumerate(measurements):
            if m_idx not in assigned_measurements:
                self._spawn(position, truth_id)

        return self.confirmed_tracks

    @property
    def confirmed_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.confirmed]

    @property
    def all_tracks_ever(self) -> list[Track]:
        return self.tracks + self.retired

    def tracked_truth_ids(self) -> set[int]:
        """Ground-truth ids covered by confirmed tracks (evaluation)."""
        ids = set()
        for track in self.confirmed_tracks:
            majority = track.majority_truth_id
            if majority is not None:
                ids.add(majority)
        return ids
