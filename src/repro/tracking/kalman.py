"""A constant-velocity Kalman filter on the ground plane.

State is ``[x, y, vx, vy]``; measurements are ground-plane positions
``[x, y]`` produced by the cross-camera matcher.  Standard predict /
update equations with configurable process and measurement noise.
"""

from __future__ import annotations

import numpy as np


class KalmanFilter2D:
    """Constant-velocity tracker for one object."""

    def __init__(
        self,
        initial_position: np.ndarray,
        dt: float = 1.0,
        process_noise: float = 0.05,
        measurement_noise: float = 0.15,
        initial_velocity_std: float = 1.0,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        position = np.asarray(initial_position, dtype=float).ravel()
        if position.shape != (2,):
            raise ValueError("initial_position must be length-2")
        self.state = np.array([position[0], position[1], 0.0, 0.0])
        self.covariance = np.diag([
            measurement_noise**2,
            measurement_noise**2,
            initial_velocity_std**2,
            initial_velocity_std**2,
        ])
        self._F = np.array([
            [1, 0, dt, 0],
            [0, 1, 0, dt],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ], dtype=float)
        self._H = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ], dtype=float)
        # Discrete white-noise acceleration model.
        q = process_noise**2
        dt2, dt3, dt4 = dt**2, dt**3, dt**4
        self._Q = q * np.array([
            [dt4 / 4, 0, dt3 / 2, 0],
            [0, dt4 / 4, 0, dt3 / 2],
            [dt3 / 2, 0, dt2, 0],
            [0, dt3 / 2, 0, dt2],
        ])
        self._R = measurement_noise**2 * np.eye(2)

    @property
    def position(self) -> np.ndarray:
        return np.array(self.state[:2])

    def predict(self) -> np.ndarray:
        """Advance one time step; returns the predicted position."""
        self.state = self._F @ self.state
        self.covariance = self._F @ self.covariance @ self._F.T + self._Q
        return self.position

    def update(self, measurement: np.ndarray) -> None:
        """Fuse one position measurement."""
        z = np.asarray(measurement, dtype=float).ravel()
        if z.shape != (2,):
            raise ValueError("measurement must be length-2")
        innovation = z - self._H @ self.state
        s = self._H @ self.covariance @ self._H.T + self._R
        gain = self.covariance @ self._H.T @ np.linalg.inv(s)
        self.state = self.state + gain @ innovation
        identity = np.eye(4)
        self.covariance = (identity - gain @ self._H) @ self.covariance

    def gating_distance(self, measurement: np.ndarray) -> float:
        """Mahalanobis distance of a measurement to the prediction."""
        z = np.asarray(measurement, dtype=float).ravel()
        innovation = z - self._H @ self.state
        s = self._H @ self.covariance @ self._H.T + self._R
        value = float(innovation @ np.linalg.inv(s) @ innovation)
        return float(np.sqrt(max(0.0, value)))
