"""Trajectories: timestamped sequences of device locations.

A trajectory in the paper's sense is a sequence of ``(location, timestamp)``
tuples — device mobility is implicit in the spacing of locations over time.
:class:`Trajectory` stores parallel arrays (``t``, ``lat``, ``lon``) and
offers resampling, concatenation, speed statistics, and slicing — the
operations the datasets, context pipeline and evaluation harness need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .coords import LocalFrame, haversine_m


@dataclass
class Trajectory:
    """Timestamped device path.

    Attributes:
        t: seconds since trajectory start, strictly increasing, shape [T].
        lat, lon: WGS-84 coordinates, shape [T].
        scenario: free-form scenario tag ("walk", "highway1", ...), carried
            through to dataset splits and per-scenario evaluation tables.
    """

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    scenario: str = ""

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.lat = np.asarray(self.lat, dtype=float)
        self.lon = np.asarray(self.lon, dtype=float)
        if not (self.t.shape == self.lat.shape == self.lon.shape):
            raise ValueError("t, lat, lon must have identical shapes")
        if self.t.ndim != 1:
            raise ValueError("trajectory arrays must be 1-D")
        if len(self.t) >= 2 and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        return iter(zip(self.t, self.lat, self.lon))

    @property
    def duration_s(self) -> float:
        """Elapsed time from first to last sample."""
        return float(self.t[-1] - self.t[0]) if len(self.t) >= 2 else 0.0

    @property
    def sample_interval_s(self) -> float:
        """Median sampling interval."""
        if len(self.t) < 2:
            return 0.0
        return float(np.median(np.diff(self.t)))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def step_distances_m(self) -> np.ndarray:
        """Distance covered in each step, shape [T-1]."""
        if len(self.t) < 2:
            return np.zeros(0)
        return np.asarray(
            haversine_m(self.lat[:-1], self.lon[:-1], self.lat[1:], self.lon[1:])
        )

    def length_m(self) -> float:
        """Total path length."""
        return float(self.step_distances_m().sum())

    def speeds_mps(self) -> np.ndarray:
        """Speed per sample, shape [T]: each step's speed, with the first step's
        repeated for sample 0 (all zeros when T < 2)."""
        if len(self.t) < 2:
            return np.zeros(len(self.t))
        speeds = self.step_distances_m() / np.diff(self.t)
        return np.concatenate([speeds[:1], speeds])

    def average_speed_mps(self) -> float:
        if self.duration_s == 0.0:
            return 0.0
        return self.length_m() / self.duration_s

    def centroid(self) -> Tuple[float, float]:
        return float(self.lat.mean()), float(self.lon.mean())

    def min_distance_to(self, other: "Trajectory") -> float:
        """Minimum point-to-point distance to another trajectory (metres).

        Used by the dataset splitters to enforce the paper's requirement that
        train and test trajectories have no geographic proximity.
        """
        frame = LocalFrame(*self.centroid())
        x1, y1 = frame.to_xy(self.lat, self.lon)
        x2, y2 = frame.to_xy(other.lat, other.lon)
        dx = x1[:, None] - x2[None, :]
        dy = y1[:, None] - y2[None, :]
        return float(np.sqrt(dx**2 + dy**2).min())

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "Trajectory":
        """Sample-index slice, rebased so t[0] == 0."""
        t = self.t[start:stop]
        return Trajectory(t - t[0], self.lat[start:stop], self.lon[start:stop], self.scenario)

    def resample(self, interval_s: float) -> "Trajectory":
        """Linear-interpolate to a uniform sampling interval."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        new_t = np.arange(self.t[0], self.t[-1] + 1e-9, interval_s)
        return Trajectory(
            new_t - new_t[0],
            np.interp(new_t, self.t, self.lat),
            np.interp(new_t, self.t, self.lon),
            self.scenario,
        )

    def concat(self, other: "Trajectory") -> "Trajectory":
        """Append ``other``, one sample interval (1 s if unknown) after this trajectory."""
        offset = self.t[-1] + (self.sample_interval_s or 1.0)
        scenario = self.scenario if self.scenario == other.scenario else f"{self.scenario}+{other.scenario}"
        return Trajectory(
            np.concatenate([self.t, other.t + offset]),
            np.concatenate([self.lat, other.lat]),
            np.concatenate([self.lon, other.lon]),
            scenario,
        )


def from_waypoints(
    waypoints_latlon: Sequence[Tuple[float, float]],
    speed_mps: float,
    interval_s: float,
    scenario: str = "",
    speed_jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Trajectory:
    """Build a trajectory by driving through waypoints at roughly constant speed.

    ``speed_jitter`` (a coefficient of variation, e.g. 0.2) makes the speed
    fluctuate between waypoint legs, mimicking traffic/stops.
    """
    if len(waypoints_latlon) < 2:
        raise ValueError("need at least two waypoints")
    if speed_mps <= 0 or interval_s <= 0:
        raise ValueError("speed and interval must be positive")
    lats = np.array([w[0] for w in waypoints_latlon], dtype=float)
    lons = np.array([w[1] for w in waypoints_latlon], dtype=float)
    leg_lengths = np.asarray(haversine_m(lats[:-1], lons[:-1], lats[1:], lons[1:]))
    leg_speeds = np.full(len(leg_lengths), speed_mps)
    if speed_jitter > 0.0:
        if rng is None:
            raise ValueError("rng required when speed_jitter > 0")
        leg_speeds = leg_speeds * np.clip(rng.normal(1.0, speed_jitter, len(leg_lengths)), 0.3, 2.5)
    leg_times = leg_lengths / leg_speeds
    cumulative = np.concatenate([[0.0], np.cumsum(leg_times)])
    total = cumulative[-1]
    sample_t = np.arange(0.0, total, interval_s)
    lat = np.interp(sample_t, cumulative, lats)
    lon = np.interp(sample_t, cumulative, lons)
    return Trajectory(sample_t, lat, lon, scenario)
