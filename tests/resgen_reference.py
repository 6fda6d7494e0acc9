"""Autodiff reference for the ResGen autoregressive generation loop.

``GenDTGenerator.generate_batch`` as it was built from ``Tensor`` ops: each
step feeds ``ResGen.sample`` (the training path's autodiff forward) with the
environment context and the last ``m`` generated residuals.  The array loop
in ``ResGen.rollout`` must match it bit for bit, outputs and RNG draws alike.
Every draw comes from ``rng``; ``None`` draws nothing and skips ResGen.
Like ``generate_batch``, it computes in the generator's dtype.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.features import ModelBatch
from repro.nn.tensor import Tensor


def reference_generate_batch(
    generator,
    batch: ModelBatch,
    starts: Optional[Sequence[int]] = None,
    n_draws: int = 1,
    collect_params: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, Optional[Dict[str, np.ndarray]]]:
    """Same signature (without the window hook) and result as ``GenDTGenerator.generate_batch``.

    The first stage runs as one call over all windows x draws, which is what
    ``generate_batch`` does for batches within its first-stage row budget.
    """
    batch = batch.astype(generator.dtype)
    length = batch.length
    starts = range(0, batch.n_windows * length, length) if starts is None else starts
    with nn.no_grad():
        cell_x = np.repeat(batch.cell_x, n_draws, axis=0)
        mask = np.repeat(batch.cell_mask, n_draws, axis=0)
        rows, n_cells, _, n_feat = cell_x.shape
        flat = Tensor(cell_x.reshape(rows * n_cells, length, n_feat))
        hidden = generator.node_net(flat, rng)
        hidden = hidden.reshape(rows, n_cells, length, hidden.shape[-1])
        counts = np.maximum(mask.sum(axis=1), 1.0)[:, None, None]
        h_avg = (hidden * Tensor(mask[:, :, None, None])).sum(axis=1) * Tensor(1.0 / counts)
        base = generator.agg_net(h_avg, rng).numpy()
        base = base.reshape(batch.n_windows, n_draws, length, base.shape[-1])

        n_ch = base.shape[-1]
        series = np.empty((n_draws, starts[-1] + length, n_ch), base.dtype)
        mu = np.empty_like(series)
        sigma = np.empty_like(series)
        roll = generator.resgen is not None and rng is not None
        m = generator.resgen.ar_window if roll else 0
        state = np.zeros((n_draws, m, n_ch), base.dtype)
        done = 0
        for index, start in enumerate(starts):
            for t in range(done - start, length):
                out = base[index, :, t]
                if roll:
                    env_t = Tensor(np.repeat(batch.env[index, t][None], n_draws, axis=0))
                    recent_t = Tensor(state.reshape(n_draws, m * n_ch))
                    residual, mu_t, log_sigma = generator.resgen.sample(env_t, recent_t, rng)
                    residual_np = np.clip(residual.numpy(), -5.0, 5.0)
                    out = out + residual_np
                    mu[:, start + t] = mu_t.numpy()
                    sigma[:, start + t] = np.exp(log_sigma.numpy())
                    state = np.concatenate([state[:, 1:], residual_np[:, None, :]], axis=1)
                series[:, start + t] = out
            done = start + length
    params = {"mu": mu, "sigma": sigma} if roll and collect_params else None
    return series, params
