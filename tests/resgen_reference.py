"""Autodiff reference for the ResGen autoregressive generation loop.

``GenDTGenerator.generate_batch`` as it was built from ``Tensor`` ops: each
step feeds ``ResGen.sample`` (the training path's autodiff forward) with the
environment context and the last ``m`` generated residuals.  Each window's
noise is drawn up front, in the order and shapes ``ResGen.rollout`` draws
it (``z1``, the dropout mask while dropout is active, ``eps``, each
``[n_draws, new samples, ...]``), and replayed into ``sample`` step by step.
The array loop in ``ResGen.rollout`` must match it bit for bit, outputs and
RNG state alike.  Every draw comes from ``rng``; ``None`` draws nothing and
skips ResGen.  Like ``generate_batch``, it computes in the generator's dtype.
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
            n_new = length - (done - start)
            if roll:
                replay = _draw_window(generator.resgen, rng, n_draws, n_new, n_ch)
            for t in range(done - start, length):
                out = base[index, :, t]
                if roll:
                    env_t = Tensor(np.repeat(batch.env[index, t][None], n_draws, axis=0))
                    recent_t = Tensor(state.reshape(n_draws, m * n_ch))
                    residual, mu_t, log_sigma = generator.resgen.sample(env_t, recent_t, replay)
                    residual_np = np.clip(residual.numpy(), -5.0, 5.0)
                    out = out + residual_np
                    mu[:, start + t] = mu_t.numpy()
                    sigma[:, start + t] = np.exp(log_sigma.numpy())
                    state = np.concatenate([state[:, 1:], residual_np[:, None, :]], axis=1)
                series[:, start + t] = out
            if roll:
                assert (replay.step, replay.next) == (n_new, 0), "the window's noise is not used up"
            done = start + length
    params = {"mu": mu, "sigma": sigma} if roll and collect_params else None
    return series, params


def _draw_window(resgen, rng, n_draws: int, n_new: int, n_ch: int) -> "Replay":
    """One window's noise, drawn up front, as a replay for ``ResGen.sample``."""
    draws = [("normal", rng.normal(0.0, 1.0, size=(n_draws, n_new, resgen.n_noise)))]
    if any(layer.training and layer.p > 0.0 for layer in resgen.mlp.dropout_layers):
        width = list(resgen.mlp.net)[-1].in_features
        draws.append(("random", rng.random((n_draws, n_new, width))))
    draws.append(("normal", rng.normal(0.0, 1.0, size=(n_draws, n_new, n_ch))))
    return Replay(draws)


class Replay:
    """Stands in for a generator: hands ``ResGen.sample`` one step's slice
    of each up-front draw per call, in the order the draws were made."""

    def __init__(self, draws) -> None:
        self.draws = draws
        self.step = 0
        self.next = 0

    def _pop(self, method: str, shape) -> np.ndarray:
        want, values = self.draws[self.next]
        assert method == want, f"sample drew {method}, the window drew {want}"
        values = values[:, self.step]
        assert values.shape == tuple(shape), (values.shape, shape)
        self.next += 1
        if self.next == len(self.draws):
            self.next, self.step = 0, self.step + 1
        return values

    def normal(self, loc, scale, size):
        assert (loc, scale) == (0.0, 1.0)
        return self._pop("normal", size)

    def random(self, size):
        return self._pop("random", size)
