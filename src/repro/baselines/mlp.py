"""MLP regression baseline (paper §5.2).

Per-timestep regression from the flat context encoding to the KPI vector.
No temporal modeling, no stochasticity — the paper's simple-minded
context-only baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from .base import BASELINE_LR, BaselineModel, ContextEncodingMixin


class MLPBaseline(ContextEncodingMixin, BaselineModel):
    """Pointwise context -> KPI regression with a 3-layer MLP."""

    name = "mlp"

    def __init__(
        self,
        region: Region,
        kpis: Sequence = ("rsrp", "rsrq"),
        hidden: Sequence[int] = (64, 64),
        max_cells: int = 8,
        seed: int = 0,
        epochs: int = 40,
    ) -> None:
        self._init_context(region, kpis, max_cells, seed)
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.net: Optional[nn.MLP] = None

    def fit(self, records: Sequence[DriveTestRecord], epochs: Optional[int] = None, **kwargs) -> None:
        self._fit_normalizers(records)
        features = []
        targets = []
        for record in records:
            features.append(self.trajectory_features(record.trajectory))
            targets.append(
                self.target_normalizer.normalize(record.kpi_matrix(self.kpi_names))
            )
        x = np.concatenate(features)
        y = np.concatenate(targets)
        self.net = nn.MLP(x.shape[1], list(self.hidden), y.shape[1], self.rng)
        nn.fit_mse(self.net, x, y, epochs=self.epochs if epochs is None else epochs, lr=BASELINE_LR, rng=self.rng)

    def generate(
        self, trajectory: Trajectory, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("fit before generate")
        x = self.trajectory_features(trajectory)
        with nn.no_grad():
            pred = self.net(nn.Tensor(x)).numpy()
        return self.clip(self.target_normalizer.denormalize(pred))
