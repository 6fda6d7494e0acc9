"""Batch windows: the unit of GenDT training and generation.

Paper §4.3.3: the whole series is processed as batches of length ``L``.
Training uses overlapping windows (sliding step ``Δt``, default 5) for
weight-sharing efficiency; generation uses non-overlapping windows
(``Δt = L``) to avoid smoothing artifacts.  Each window carries the raw
network context of its visible-cell set, the environment context, and (when
built from a measurement record) the target KPI values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from .extract import EnvironmentContextExtractor, NetworkContextExtractor


@dataclass
class ContextWindow:
    """One batch of context (and optionally targets).

    Attributes:
        cell_features: raw per-cell context, [L, N_b, 5].
        cell_ids: global ids of the N_b cells, aligned with axis 1.
        env_features: raw environment context, [L, 26].
        start: index of the window's first sample in the source trajectory.
        ue_lat, ue_lon: device location per step, [L].
        ue_speed: device speed per step in m/s, [L].
        interval_s: the source trajectory's sample interval.
        target: KPI targets [L, N_ch] or None during pure generation.
    """

    cell_features: np.ndarray
    cell_ids: List[int]
    env_features: np.ndarray
    start: int
    ue_lat: np.ndarray
    ue_lon: np.ndarray
    ue_speed: np.ndarray
    interval_s: float
    target: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return self.cell_features.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_features.shape[1]


def window_starts(total: int, length: int, step: int) -> List[int]:
    """Start indices of windows of ``length`` with sliding ``step``.

    The final window is anchored at ``total - length`` so the tail of the
    series is always covered (mirroring the paper's ⌊T/L⌋ batching plus a
    tail batch).
    """
    if length <= 0 or step <= 0:
        raise ValueError("length and step must be positive")
    if total < length:
        return [0] if total > 0 else []
    starts = list(range(0, total - length + 1, step))
    if starts[-1] != total - length:
        starts.append(total - length)
    return starts


class ContextBuilder:
    """Builds :class:`ContextWindow` sequences from trajectories/records.

    ``max_cells`` caps a window's visible-cell set N_b, the GNN fan-in.
    """

    def __init__(self, region: Region, max_cells: int) -> None:
        self.region = region
        self.max_cells = max_cells
        self.network = NetworkContextExtractor(region)
        self.environment = EnvironmentContextExtractor(region)

    # ------------------------------------------------------------------
    def windows_for_trajectory(
        self,
        trajectory: Trajectory,
        length: int,
        step: int,
        target_matrix: Optional[np.ndarray] = None,
    ) -> List[ContextWindow]:
        """Extract windows over a trajectory (targets optional)."""
        if target_matrix is not None and len(target_matrix) != len(trajectory):
            raise ValueError("target matrix must align with trajectory")
        if len(trajectory) == 0:
            return []
        distances = self.network.distances(trajectory)
        env = self.environment.features(trajectory)
        speeds = trajectory.speeds_mps()
        interval_s = trajectory.sample_interval_s or 1.0
        eff_length = min(length, len(trajectory))
        cells = self.region.deployment.cells
        windows: List[ContextWindow] = []
        for start in window_starts(len(trajectory), eff_length, step):
            stop = start + eff_length
            cell_idx = self.network.window_cells(
                distances, start, stop, max_cells=self.max_cells
            )
            features = self.network.window_features(distances, cell_idx, start, stop)
            windows.append(
                ContextWindow(
                    cell_features=features,
                    cell_ids=[cells[i].cell_id for i in cell_idx],
                    env_features=env[start:stop],
                    start=start,
                    ue_lat=trajectory.lat[start:stop],
                    ue_lon=trajectory.lon[start:stop],
                    ue_speed=speeds[start:stop],
                    interval_s=interval_s,
                    target=None if target_matrix is None else target_matrix[start:stop],
                )
            )
        return windows

    def training_windows(
        self,
        records: Sequence[DriveTestRecord],
        kpi_names: Sequence[str],
        length: int,
        step: int,
    ) -> List[ContextWindow]:
        """Overlapping windows with targets from measurement records."""
        windows: List[ContextWindow] = []
        for record in records:
            target = record.kpi_matrix(kpi_names)
            windows.extend(
                self.windows_for_trajectory(record.trajectory, length, step, target)
            )
        return windows

    def generation_windows(
        self, trajectory: Trajectory, length: int
    ) -> List[ContextWindow]:
        """Non-overlapping windows (Δt = L) for the generation phase."""
        return self.windows_for_trajectory(trajectory, length, step=length)
