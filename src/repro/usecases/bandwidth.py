"""Link-bandwidth prediction from radio KPIs (paper §C.2, after LinkForecast).

LinkForecast (Yue et al.) identified five KPIs with significant correlation
to achievable link bandwidth — RSRP, RSRQ, CQI, a handover indicator, and
the block error rate — and predicted bandwidth from them.  The paper lists
this as a GenDT use case: several of the KPIs are exactly what GenDT
generates, so bandwidth can be forecast for routes never driven.

We implement the predictor (random-forest-like ensemble of small MLPs to
keep everything on the in-repo NN substrate) and evaluate it against the
simulator's throughput ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .. import nn
from ..context.normalize import TargetNormalizer
from ..radio.simulator import DriveTestRecord

#: KPI features used by the predictor.
BANDWIDTH_FEATURES = ("rsrp", "rsrq", "cqi", "handover", "per")


def handover_indicator(serving_cell_id: np.ndarray, window: int = 3) -> np.ndarray:
    """1.0 for samples within ``window`` steps of a serving-cell change."""
    ids = np.asarray(serving_cell_id)
    changes = np.zeros(len(ids))
    change_points = np.nonzero(np.diff(ids) != 0)[0] + 1  # repro: noqa[FLT001] (integral cell IDs)
    for point in change_points:
        lo = max(0, point - window)
        hi = min(len(ids), point + window + 1)
        changes[lo:hi] = 1.0
    return changes


def bandwidth_features(record: DriveTestRecord) -> np.ndarray:
    """Assemble the 5-KPI feature matrix [T, 5] from a record."""
    if "per" not in record.qoe:
        raise ValueError("record lacks PER (simulate with with_qoe=True)")
    return np.column_stack(
        [
            record.kpi["rsrp"],
            record.kpi["rsrq"],
            record.kpi["cqi"],
            handover_indicator(record.serving_cell_id),
            record.qoe["per"],
        ]
    )


@dataclass
class LinkBandwidthPredictor:
    """Bagged MLP ensemble: 5 KPI features -> downlink bandwidth (Mbps)."""

    n_members: int = 4
    hidden: Tuple[int, ...] = (32,)
    epochs: int = 40
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.members: List[nn.MLP] = []
        self.x_normalizer = TargetNormalizer()
        self.y_normalizer = TargetNormalizer()

    def fit(self, records: Sequence[DriveTestRecord]) -> None:
        x = np.concatenate([bandwidth_features(r) for r in records])
        y = np.concatenate([r.qoe["throughput_mbps"] for r in records])[:, None]
        xn = self.x_normalizer.fit(x).normalize(x)
        yn = self.y_normalizer.fit(y).normalize(y)
        n = len(xn)
        self.members = []
        for _ in range(self.n_members):
            # Bagging: each member sees a bootstrap resample.
            sample = self.rng.integers(0, n, size=n)
            member = nn.MLP(x.shape[1], list(self.hidden), 1, self.rng)
            nn.fit_mse(member, xn[sample], yn[sample], epochs=self.epochs, lr=self.lr, rng=self.rng)
            self.members.append(member)

    def _member_predictions(self, features: np.ndarray) -> np.ndarray:
        """Each member's normalized prediction from a [T, 5] feature matrix, [M, T, 1]."""
        if not self.members:
            raise RuntimeError("fit before predict")
        xn = self.x_normalizer.normalize(features)
        with nn.no_grad():
            return np.stack([m(nn.Tensor(xn)).numpy() for m in self.members])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Bandwidth series (Mbps) from a [T, 5] feature matrix."""
        mean = self.y_normalizer.denormalize(self._member_predictions(features).mean(axis=0))
        return np.maximum(mean[:, 0], 0.0)

    def predict_interval(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble spread as a rough (lower, upper) bandwidth interval."""
        preds = self.y_normalizer.denormalize(self._member_predictions(features))[..., 0]
        return np.maximum(preds.min(axis=0), 0.0), np.maximum(preds.max(axis=0), 0.0)
