"""LSTM-GNN prediction baseline (paper §5.2, after Tong et al.).

A state-of-the-art GNN time-series *prediction* architecture: the same
node-LSTM + mean-aggregation + LSTM stack as GenDT's first two components,
but purely deterministic and trained as a regressor on whole trajectories —
no stochastic layers, no residual generator, no adversarial training, and no
batch-generation mechanism (the paper attributes its weak MAE/DTW to the
last point: prediction models struggle to *generate* long series).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..analysis.graph.spec import Spec, contract
from ..nn.tensor import Tensor
from ..context.normalize import N_CELL_FEATURES
from ..core.features import mean_over_cells
from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from .base import BASELINE_LR, BaselineModel, ContextEncodingMixin


@contract(
    inputs={
        "cell_x": Spec("B", "N", "L", "F", array=True),
        "cell_mask": Spec("B", "N", array=True),
    },
    outputs=Spec("B", "L", "C"),
    dims={"F": "node_lstm.input_size", "C": "head.out_features"},
)
class _LstmGnnNet(nn.Module):
    """Node LSTM (shared across cells) -> mean pool -> LSTM -> linear head."""

    def __init__(self, n_features: int, hidden: int, n_channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.node_lstm = nn.LSTM(n_features, hidden, rng)
        self.agg_lstm = nn.LSTM(hidden, hidden, rng)
        self.head = nn.Linear(hidden, n_channels, rng)

    def forward(self, cell_x: np.ndarray, cell_mask: np.ndarray) -> Tensor:
        """cell_x [B, N, L, F], mask [B, N] -> predictions [B, L, C]."""
        b, n_cells, length, n_feat = cell_x.shape
        flat = Tensor(cell_x.reshape(b * n_cells, length, n_feat))
        hidden = self.node_lstm(flat)
        h_avg = mean_over_cells(hidden.reshape(b, n_cells, length, hidden.shape[-1]), cell_mask)
        return self.head(self.agg_lstm(h_avg))


class LSTMGNNBaseline(ContextEncodingMixin, BaselineModel):
    """Deterministic GNN-LSTM regressor over whole trajectories."""

    name = "lstm_gnn"

    def __init__(
        self,
        region: Region,
        kpis: Sequence = ("rsrp", "rsrq"),
        hidden: int = 32,
        max_cells: int = 8,
        seed: int = 0,
        epochs: int = 15,
        max_train_len: int = 400,
    ) -> None:
        self._init_context(region, kpis, max_cells, seed)
        self.hidden = hidden
        self.epochs = epochs
        self.max_train_len = max_train_len
        self.net: Optional[_LstmGnnNet] = None

    # ------------------------------------------------------------------
    def _windows(self, trajectory: Trajectory, length: int):
        """Whole-series (or capped-length) windows and their assembled arrays."""
        windows = self.context.windows_for_trajectory(trajectory, length=length, step=length)
        return windows, self.assembler.assemble(windows, with_target=False)

    def fit(self, records: Sequence[DriveTestRecord], epochs: Optional[int] = None, **kwargs) -> None:
        self._fit_normalizers(records)
        self.net = _LstmGnnNet(
            N_CELL_FEATURES, self.hidden, self.kpi_spec.n_channels, self.rng
        )
        optimizer = nn.Adam(self.net.parameters(), lr=BASELINE_LR)
        # Training items: whole trajectories, capped to keep BPTT tractable.
        items = []
        for record in records:
            length = min(len(record.trajectory), self.max_train_len)
            target = self.target_normalizer.normalize(
                record.kpi_matrix(self.kpi_names)
            )
            windows, batch = self._windows(record.trajectory, length)
            for i, window in enumerate(windows):
                items.append(
                    (batch.cell_x[i], batch.cell_mask[i], target[window.start : window.start + length])
                )
        for _ in range(self.epochs if epochs is None else epochs):
            order = self.rng.permutation(len(items))
            for idx in order:
                cell_x, mask, target = items[idx]
                pred = self.net(cell_x[None], mask[None])
                loss = nn.mse_loss(pred, Tensor(target[None]))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

    def generate(
        self, trajectory: Trajectory, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("fit before generate")
        out = np.empty((len(trajectory), self.kpi_spec.n_channels))
        windows, batch = self._windows(trajectory, len(trajectory))
        with nn.no_grad():
            for i, window in enumerate(windows):
                pred = self.net(batch.cell_x[i : i + 1], batch.cell_mask[i : i + 1]).numpy()[0]
                out[window.start : window.start + window.length] = pred
        return self.clip(self.target_normalizer.denormalize(out))
