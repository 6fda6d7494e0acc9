"""Common interface and shared context encoding for baseline generators.

Every baseline implements ``fit(records)`` / ``generate(trajectory, rng)``
with the same signature as :class:`repro.core.GenDT`, so the evaluation
harness runs all methods through one loop.

The baselines that consume context (MLP, LSTM-GNN, Real-Context DG) pad and
normalize windows with GenDT's own :class:`~repro.core.features.WindowAssembler`.
The MLP and DG flatten its output to a per-timestep encoding: the transformed
features of the ``max_cells`` nearest cells (zero-padded) concatenated with
the normalized environment vector.  This deliberately reflects their
architectural limitation the paper highlights — a fixed-width flat context
instead of GenDT's set-valued graph input.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..context.normalize import (
    CellFeatureTransform,
    EnvFeatureNormalizer,
    N_CELL_FEATURES,
    TargetNormalizer,
)
from ..context.windows import ContextBuilder, ContextWindow
from ..core.features import N_KINEMATIC_FEATURES, WindowAssembler
from ..geo.trajectory import Trajectory
from ..radio.kpis import KPI, KpiSpec
from ..radio.simulator import DriveTestRecord
from ..world.region import Region

#: Adam learning rate of the learned baselines (MLP, LSTM-GNN, DoppelGANger).
BASELINE_LR = 1e-3


class BaselineModel(abc.ABC):
    """Interface every generation method (and GenDT) satisfies."""

    name: str = "baseline"

    @abc.abstractmethod
    def fit(self, records: Sequence[DriveTestRecord], **kwargs) -> None:
        """Train on measurement records."""

    @abc.abstractmethod
    def generate(
        self, trajectory: Trajectory, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """[T, n_kpis] series in physical units, drawn from ``rng`` (default: the model's own)."""


class ContextEncodingMixin:
    """Shared flat context encoding for context-aware baselines."""

    def _init_context(
        self,
        region: Region,
        kpis: Sequence,
        max_cells: int,
        seed: int,
    ) -> None:
        self.region = region
        self.kpi_spec = KpiSpec([KPI(k) for k in kpis])
        self.max_cells = max_cells
        self.rng = np.random.default_rng(seed)
        self.context = ContextBuilder(region, max_cells)
        self.env_normalizer = EnvFeatureNormalizer()
        self.target_normalizer = TargetNormalizer()
        self.assembler = WindowAssembler(
            CellFeatureTransform(region.frame),
            self.env_normalizer,
            self.target_normalizer,
            max_cells,
        )

    @property
    def kpi_names(self) -> List[str]:
        return self.kpi_spec.names()

    def _fit_normalizers(self, records: Sequence[DriveTestRecord]) -> None:
        targets = np.concatenate([r.kpi_matrix(self.kpi_names) for r in records])
        self.target_normalizer.fit(targets)
        env = np.concatenate(
            [self.context.environment.features(r.trajectory) for r in records]
        )
        self.env_normalizer.fit(env)

    def flat_features(self, window: ContextWindow) -> np.ndarray:
        """Per-timestep flat context [L, max_cells*6 + 26]."""
        batch = self.assembler.assemble([window], with_target=False)
        cells = batch.cell_x[0].transpose(1, 0, 2).reshape(window.length, -1)
        return np.concatenate([cells, batch.env[0, :, :-N_KINEMATIC_FEATURES]], axis=1)

    @property
    def n_flat_features(self) -> int:
        from ..world.attributes import N_ENV_ATTRIBUTES

        return self.max_cells * N_CELL_FEATURES + N_ENV_ATTRIBUTES

    def trajectory_features(self, trajectory: Trajectory) -> np.ndarray:
        """Flat features for a whole trajectory, [T, n_flat_features]."""
        windows = self.context.windows_for_trajectory(
            trajectory, length=len(trajectory), step=len(trajectory)
        )
        return self.flat_features(windows[0])

    def clip(self, series: np.ndarray) -> np.ndarray:
        return self.kpi_spec.clip(series)
