"""Assembly of context windows into fixed-shape model arrays.

Windows carry variable numbers of visible cells (N_b changes along a
trajectory); the model consumes fixed-shape batches.  ``assemble`` pads every
window to ``max_cells`` and returns a validity mask so the aggregation step
can mean-pool over real cells only (the paper's ``h_avg``, see
:func:`mean_over_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..context.normalize import (
    CellFeatureTransform,
    EnvFeatureNormalizer,
    N_CELL_FEATURES,
    TargetNormalizer,
)
from ..context.windows import ContextWindow
from ..nn.tensor import Tensor

#: Kinematic conditioning columns appended to the environment features:
#: per-step speed and the sampling interval.  They are derivable from the
#: input trajectory itself (no extra measurement needed) and tell ResGen how
#: fast the residual process decorrelates per sample.
N_KINEMATIC_FEATURES = 2


@dataclass
class ModelBatch:
    """Fixed-shape arrays for a minibatch of windows.

    Attributes:
        cell_x: [B, max_cells, L, N_CELL_FEATURES] transformed cell features
            (zero-padded beyond each window's real cell count).
        cell_mask: [B, max_cells] — 1 for real cells, 0 for padding.
        env: [B, L, 26 + N_KINEMATIC_FEATURES] normalized environment
            context plus kinematic conditioning.
        target: [B, L, N_ch] normalized targets, or None at generation time.
    """

    cell_x: np.ndarray
    cell_mask: np.ndarray
    env: np.ndarray
    target: Optional[np.ndarray]

    @property
    def n_windows(self) -> int:
        return self.cell_x.shape[0]

    @property
    def length(self) -> int:
        return self.cell_x.shape[2]

    def astype(self, dtype) -> "ModelBatch":
        """This batch with its arrays in ``dtype`` (an array already in it is not copied)."""

        def cast(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if array is None else array.astype(dtype, copy=False)

        return ModelBatch(cast(self.cell_x), cast(self.cell_mask), cast(self.env), cast(self.target))


class WindowAssembler:
    """Applies normalizers and pads windows into :class:`ModelBatch` arrays."""

    def __init__(
        self,
        cell_transform: CellFeatureTransform,
        env_normalizer: EnvFeatureNormalizer,
        target_normalizer: TargetNormalizer,
        max_cells: int,
    ) -> None:
        self.cell_transform = cell_transform
        self.env_normalizer = env_normalizer
        self.target_normalizer = target_normalizer
        self.max_cells = max_cells

    def assemble(self, windows: Sequence[ContextWindow], with_target: bool = True) -> ModelBatch:
        if not windows:
            raise ValueError("no windows to assemble")
        length = windows[0].length
        if any(w.length != length for w in windows):
            raise ValueError("all windows in a batch must share their length")
        if with_target and any(w.target is None for w in windows):
            raise ValueError("windows lack targets")
        # Each window's cell features are transformed alone: stacking them
        # gives the same bits, but its larger temporaries grew the glibc
        # heap and the peak RSS.  The rest is elementwise over the stacked
        # windows, so each window gets the bits it gets alone.
        n_cells = np.array([min(w.n_cells, self.max_cells) for w in windows])
        cell_x = np.zeros((len(windows), self.max_cells, length, N_CELL_FEATURES))
        for i, (window, n) in enumerate(zip(windows, n_cells)):
            features = self.cell_transform(window)
            cell_x[i, :n] = features[:, :n].transpose(1, 0, 2)
        cell_mask = (np.arange(self.max_cells) < n_cells[:, None]).astype(float)
        speed = np.stack([w.ue_speed for w in windows])
        env_raw = np.stack([w.env_features for w in windows])
        env = np.empty(env_raw.shape[:-1] + (env_raw.shape[-1] + N_KINEMATIC_FEATURES,))
        env[..., :-N_KINEMATIC_FEATURES] = self.env_normalizer(env_raw)
        env[..., -2] = speed / 30.0
        env[..., -1] = (np.array([w.interval_s for w in windows]) / 5.0)[:, None]
        target = None
        if with_target:
            target = self.target_normalizer.normalize(np.stack([w.target for w in windows]))
        return ModelBatch(cell_x=cell_x, cell_mask=cell_mask, env=env, target=target)


def mean_over_cells(hidden: Tensor, cell_mask: np.ndarray) -> Tensor:
    """Mean of per-cell hidden series over each row's real cells.

    Args:
        hidden: [B, N, L, H] per-cell hidden series.
        cell_mask: [B, N], 1 for real cells and 0 for padding.

    Returns:
        [B, L, H]; a row without real cells pools to zeros.
    """
    counts = np.maximum(cell_mask.sum(axis=1), 1.0)[:, None, None]
    masked = hidden * Tensor(cell_mask[:, :, None, None])
    return masked.sum(axis=1) * Tensor(1.0 / counts)


def recent_values_matrix(series: np.ndarray, ar_window: int) -> np.ndarray:
    """Teacher-forcing AR inputs: for each t, the previous ``m`` values.

    Args:
        series: [B, L, N_ch] (normalized) target series.
        ar_window: m.

    Returns:
        [B, L, m * N_ch] in ``series``' dtype, where row t holds
        ``x[t-m], ..., x[t-1]`` flattened, zeros before the window's start.
    """
    b, length, n_ch = series.shape
    padded = np.concatenate([np.zeros((b, ar_window, n_ch), series.dtype), series], axis=1)
    # windows[:, t] is padded[:, t : t + m] with the window axis last.
    windows = np.lib.stride_tricks.sliding_window_view(padded, ar_window, axis=1)[:, :length]
    out = np.empty((b, length, ar_window, n_ch), series.dtype)
    out[...] = windows.transpose(0, 1, 3, 2)
    return out.reshape(b, length, ar_window * n_ch)
