"""QoE prediction use case (paper §6.3.1).

An MLP regressor, after Sliwa & Wietfeld, predicts application-layer QoE
metrics (downlink throughput, packet error rate) from radio KPIs plus device
location features.  The evaluation protocol mirrors the paper:

1. train the QoE predictor on real KPI measurements + QoE ground truth;
2. predict QoE on the test set three ways — from real KPIs, from KPIs with
   RSRP/RSRQ dropped (showing those KPIs are critical), and from
   GenDT/baseline *generated* KPIs;
3. compare predicted-vs-real QoE series with MAE/DTW/HWD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..context.normalize import TargetNormalizer
from ..geo.trajectory import Trajectory
from ..metrics.fidelity import evaluate_series
from ..radio.simulator import DriveTestRecord

#: QoE target channels, in output order.
QOE_TARGETS = ("throughput_mbps", "per")

#: Adam learning rate of the QoE predictor's MLP.
QOE_LR = 1e-3


def _location_features(trajectory: Trajectory) -> np.ndarray:
    """Per-step location features: normalized offsets and speed."""
    lat0, lon0 = trajectory.centroid()
    return np.column_stack(
        [
            (trajectory.lat - lat0) * 100.0,
            (trajectory.lon - lon0) * 100.0,
            trajectory.speeds_mps() / 30.0,
        ]
    )


@dataclass
class QoEPredictor:
    """MLP: (radio KPIs, location) -> (throughput, PER)."""

    kpi_names: Tuple[str, ...] = ("rsrp", "rsrq")
    hidden: Tuple[int, ...] = (48, 48)
    epochs: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.net: Optional[nn.MLP] = None
        self.x_normalizer = TargetNormalizer()
        self.y_normalizer = TargetNormalizer()

    # ------------------------------------------------------------------
    def _features(self, record: DriveTestRecord, kpi_override: Optional[np.ndarray]) -> np.ndarray:
        kpis = (
            kpi_override
            if kpi_override is not None
            else record.kpi_matrix(list(self.kpi_names))
        )
        return np.concatenate([kpis, _location_features(record.trajectory)], axis=1)

    def _targets(self, record: DriveTestRecord) -> np.ndarray:
        if not record.qoe:
            raise ValueError("record lacks QoE ground truth")
        return np.column_stack([record.qoe[name] for name in QOE_TARGETS])

    def fit(self, records: Sequence[DriveTestRecord]) -> None:
        x = np.concatenate([self._features(r, None) for r in records])
        y = np.concatenate([self._targets(r) for r in records])
        xn = self.x_normalizer.fit(x).normalize(x)
        yn = self.y_normalizer.fit(y).normalize(y)
        self.net = nn.MLP(x.shape[1], list(self.hidden), y.shape[1], self.rng)
        nn.fit_mse(self.net, xn, yn, epochs=self.epochs, lr=QOE_LR, rng=self.rng)

    def predict(
        self, record: DriveTestRecord, kpi_override: Optional[np.ndarray] = None
    ) -> Dict[str, np.ndarray]:
        """Predict QoE series; ``kpi_override`` substitutes generated KPIs."""
        if self.net is None:
            raise RuntimeError("fit before predict")
        xn = self.x_normalizer.normalize(self._features(record, kpi_override))
        with nn.no_grad():
            yn = self.net(nn.Tensor(xn)).numpy()
        y = self.y_normalizer.denormalize(yn)
        out = {name: y[:, i] for i, name in enumerate(QOE_TARGETS)}
        out["per"] = np.clip(out["per"], 0.0, 1.0)
        out["throughput_mbps"] = np.maximum(out["throughput_mbps"], 0.0)
        return out


def evaluate_qoe_prediction(
    predictor: QoEPredictor,
    test_records: Sequence[DriveTestRecord],
    kpi_overrides: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Dict[str, Dict[str, float]]:
    """MAE/DTW/HWD of predicted vs. measured QoE over the test records.

    ``kpi_overrides[i]`` replaces record i's KPI features (None = real KPIs).
    Returns {"throughput_mbps": {...}, "per": {...}} with metrics averaged
    over records.
    """
    if kpi_overrides is None:
        kpi_overrides = [None] * len(test_records)
    sums: Dict[str, Dict[str, float]] = {
        name: {"mae": 0.0, "dtw": 0.0, "hwd": 0.0} for name in QOE_TARGETS
    }
    for record, override in zip(test_records, kpi_overrides):
        predicted = predictor.predict(record, kpi_override=override)
        for name in QOE_TARGETS:
            real = record.qoe[name]
            metrics = evaluate_series(real, predicted[name])
            for key, value in metrics.items():
                sums[name][key] += value
    n = len(test_records)
    return {
        name: {key: value / n for key, value in metrics.items()}
        for name, metrics in sums.items()
    }
