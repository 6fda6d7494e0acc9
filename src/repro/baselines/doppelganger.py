"""DoppelGANger baselines: original and Real-Context variant (paper §5.2, §B).

DoppelGANger (Lin et al., IMC '20) generates multivariate time series in two
stages: stage 1 generates static per-sample *metadata* (context) from noise;
stage 2 generates the series with an LSTM conditioned on that metadata, in
batches of steps.  Two properties matter for the drive-testing comparison:

* the conditioning context is **static per sample** — DG cannot represent
  the dynamic, set-valued network context GenDT's GNN consumes; we encode a
  window's context as its time-average (flat cell features + environment);
* in the **original** DG the metadata is *generated*, so the output series
  cannot track a particular real trajectory (poor MAE/DTW, as the paper
  reports); the **Real-Context** variant feeds the real window context
  straight into stage 2 (paper Figure 17b).

Stage 1 here is a Gaussian (mean + covariance) maximum-likelihood fit over
real metadata vectors — a simplification of DG's metadata GAN that preserves
the property the comparison tests: generated context is distribution-level,
decoupled from the test trajectory.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import Spec, contract
from ..nn.tensor import Tensor, concat
from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from .base import BASELINE_LR, BaselineModel, ContextEncodingMixin

#: Per-step noise channels of the stage-2 generator.
DG_N_NOISE = 4
#: Windows per GAN training step.
DG_MINIBATCH = 8
#: Weight of the adversarial term in the Real-Context variant's loss.
DG_LAMBDA_ADV = 0.1


def _dg_probe(module: "_DGGenerator", env) -> Tuple[tuple, dict]:
    """Probe (metadata, length) pair; length is a plain int argument."""
    b, length = env.fresh("B"), env.fresh("T")
    n_meta = module.lstm.input_size - module.n_noise
    return ((env.probe(b, n_meta), length), {})


@contract(
    inputs={"metadata": Spec("B", "M", array=True)},
    outputs=Spec("B", "T", "C"),
    dims={
        "M": lambda m: m.lstm.input_size - m.n_noise,
        "C": "head.out_features",
    },
    build_inputs=_dg_probe,
)
class _DGGenerator(nn.Module):
    """Stage-2 LSTM generator: (static metadata, per-step noise) -> series."""

    def __init__(
        self, n_meta: int, n_noise: int, hidden: int, n_channels: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.n_noise = n_noise
        self.lstm = nn.LSTM(n_meta + n_noise, hidden, rng)
        self.head = nn.Linear(hidden, n_channels, rng)

    def forward(
        self, metadata: np.ndarray, length: int, rng: Optional[np.random.Generator] = None
    ) -> Tensor:
        """metadata [B, n_meta] -> series [B, length, n_channels]; noise from ``rng`` (None: 0)."""
        b, n_meta = metadata.shape
        meta_seq = np.broadcast_to(metadata[:, None, :], (b, length, n_meta))
        shape = (b, length, self.n_noise)
        noise = np.zeros(shape) if rng is None else rng.normal(0.0, 1.0, size=shape)
        inputs = Tensor(np.concatenate([meta_seq, noise], axis=2))
        return self.head(self.lstm(inputs))


@contract(
    inputs={
        "series": Spec("B", "L", "C"),
        "metadata": Spec("B", "M", array=True),
    },
    outputs=Spec("B", 1),
    dims={"M": "n_meta", "C": lambda m: m.lstm.input_size - m.n_meta},
)
class _DGDiscriminator(nn.Module):
    """LSTM discriminator over (series, repeated metadata)."""

    def __init__(self, n_meta: int, n_channels: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.n_meta = n_meta
        self.lstm = nn.LSTM(n_meta + n_channels, hidden, rng)
        self.head = nn.Linear(hidden, 1, rng)

    def forward(self, series: Tensor, metadata: np.ndarray) -> Tensor:
        b, length, _ = series.shape
        meta_seq = np.broadcast_to(metadata[:, None, :], (b, length, metadata.shape[1]))
        joined = concat([series, Tensor(meta_seq)], axis=2)
        hidden = self.lstm(joined)
        return self.head(hidden[:, -1, :])


class GaussianMetadataModel:
    """Stage-1 substitute: multivariate Gaussian MLE over metadata vectors."""

    def __init__(self) -> None:
        self.mean: Optional[np.ndarray] = None
        self.chol: Optional[np.ndarray] = None

    def fit(self, metadata: np.ndarray) -> None:
        self.mean = metadata.mean(axis=0)
        cov = np.cov(metadata.T) + 1e-4 * np.eye(metadata.shape[1])
        self.chol = np.linalg.cholesky(cov)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("fit before sample")
        z = rng.normal(0.0, 1.0, size=(n, len(self.mean)))
        return self.mean + z @ self.chol.T


class DoppelGANger(ContextEncodingMixin, BaselineModel):
    """DG baseline; ``real_context=True`` selects the optimized variant."""

    def __init__(
        self,
        region: Region,
        kpis: Sequence = ("rsrp", "rsrq"),
        real_context: bool = False,
        window_len: int = 50,
        hidden: int = 32,
        max_cells: int = 8,
        seed: int = 0,
        epochs: int = 15,
    ) -> None:
        self._init_context(region, kpis, max_cells, seed)
        self.real_context = real_context
        self.name = "real_context_dg" if real_context else "orig_dg"
        self.window_len = window_len
        self.hidden = hidden
        self.epochs = epochs
        self.generator: Optional[_DGGenerator] = None
        self.discriminator: Optional[_DGDiscriminator] = None
        self.metadata_model = GaussianMetadataModel()

    # ------------------------------------------------------------------
    def _window_metadata(self, window) -> np.ndarray:
        """Static per-window context: time-average of the flat encoding."""
        return self.flat_features(window).mean(axis=0)

    def _training_items(
        self, records: Sequence[DriveTestRecord]
    ) -> Tuple[np.ndarray, np.ndarray]:
        metas: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for record in records:
            length = min(self.window_len, len(record.trajectory))
            windows = self.context.windows_for_trajectory(
                record.trajectory, length=length, step=length
            )
            target = self.target_normalizer.normalize(
                record.kpi_matrix(self.kpi_names)
            )
            for window in windows:
                if window.length != length:
                    continue
                metas.append(self._window_metadata(window))
                targets.append(target[window.start : window.start + length])
        return np.stack(metas), np.stack(targets)

    def fit(self, records: Sequence[DriveTestRecord], epochs: Optional[int] = None, **kwargs) -> None:
        self._fit_normalizers(records)
        metas, targets = self._training_items(records)
        self.metadata_model.fit(metas)
        n_meta = metas.shape[1]
        n_ch = self.kpi_spec.n_channels
        self.generator = _DGGenerator(n_meta, DG_N_NOISE, self.hidden, n_ch, self.rng)
        self.discriminator = _DGDiscriminator(n_meta, n_ch, self.hidden, self.rng)
        g_opt = nn.Adam(self.generator.parameters(), lr=BASELINE_LR)
        d_opt = nn.Adam(self.discriminator.parameters(), lr=BASELINE_LR)
        n = len(metas)
        length = targets.shape[1]
        for _ in range(self.epochs if epochs is None else epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, DG_MINIBATCH):
                idx = order[start : start + DG_MINIBATCH]
                meta_b, target_b = metas[idx], targets[idx]
                # --- discriminator step
                with nn.no_grad():
                    fake = self.generator(meta_b, length, self.rng).numpy()
                d_loss = nn.discriminator_loss(
                    self.discriminator(Tensor(target_b), meta_b),
                    self.discriminator(Tensor(fake), meta_b),
                )
                d_opt.zero_grad()
                d_loss.backward()
                d_opt.step()
                # --- generator step
                fake_t = self.generator(meta_b, length, self.rng)
                adv = nn.generator_adversarial_loss(
                    self.discriminator(fake_t, meta_b)
                )
                if self.real_context:
                    # The optimized variant is trained against the paired
                    # real series (context-conditional regression + GAN).
                    loss = nn.mse_loss(fake_t, Tensor(target_b)) + DG_LAMBDA_ADV * adv
                else:
                    # Original DG has no pairing: adversarial signal only.
                    loss = adv
                g_opt.zero_grad()
                loss.backward()
                g_opt.step()

    # ------------------------------------------------------------------
    def generate(
        self, trajectory: Trajectory, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if self.generator is None:
            raise RuntimeError("fit before generate")
        rng = self.rng if rng is None else rng
        length = min(self.window_len, len(trajectory))
        windows = self.context.windows_for_trajectory(
            trajectory, length=length, step=length
        )
        out = np.empty((len(trajectory), self.kpi_spec.n_channels))
        with nn.no_grad():
            for window in windows:
                if self.real_context:
                    meta = self._window_metadata(window)[None]
                else:
                    meta = self.metadata_model.sample(1, rng)
                series = self.generator(meta, window.length, rng).numpy()[0]
                out[window.start : window.start + window.length] = series
        return self.clip(self.target_normalizer.denormalize(out))
