"""Cell-load estimation from drive-test KPIs (paper §C.2, after [9, 46]).

RSRQ couples the serving cell's reference-signal power to the total received
wideband power, which includes load-weighted interference from neighbour
cells — so (RSRQ, SINR) carry information about how loaded the surrounding
network is.  The paper lists this as a use case GenDT can serve without a
drive test: generate RSRQ/SINR for a route, feed the estimator.

We implement the estimator as a small MLP regressor trained against the
simulator's ground-truth serving-cell load (the paper could not validate
this use case for lack of ground truth; our substrate has it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..context.normalize import TargetNormalizer
from ..radio.simulator import DriveTestRecord

#: KPI features the estimator consumes, in order.
LOAD_FEATURES = ("rsrq", "sinr")


@dataclass
class CellLoadEstimator:
    """MLP regressor: (RSRQ, SINR) -> serving-cell load in [0, 1]."""

    hidden: Tuple[int, ...] = (32, 32)
    epochs: int = 60
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.net: Optional[nn.Sequential] = None
        self.x_normalizer = TargetNormalizer()

    @staticmethod
    def _features(kpis: Dict[str, np.ndarray]) -> np.ndarray:
        return np.column_stack([kpis[name] for name in LOAD_FEATURES])

    def fit(self, records: Sequence[DriveTestRecord], loads: Sequence[np.ndarray]) -> None:
        """Train on records paired with ground-truth serving-load series."""
        if len(records) != len(loads):
            raise ValueError("records and loads must align")
        x = np.concatenate([self._features(r.kpi) for r in records])
        y = np.concatenate([np.asarray(l, dtype=float) for l in loads])[:, None]
        if len(x) != len(y):
            raise ValueError("KPI and load sample counts differ")
        xn = self.x_normalizer.fit(x).normalize(x)
        self.net = nn.Sequential(nn.MLP(x.shape[1], list(self.hidden), 1, self.rng), nn.Sigmoid())
        nn.fit_mse(self.net, xn, y, epochs=self.epochs, lr=self.lr, rng=self.rng)

    def predict(self, kpis: Dict[str, np.ndarray]) -> np.ndarray:
        """Estimated load series in [0, 1] from KPI series."""
        if self.net is None:
            raise RuntimeError("fit before predict")
        x = self.x_normalizer.normalize(self._features(kpis))
        with nn.no_grad():
            out = self.net(nn.Tensor(x)).numpy()
        return out[:, 0]
