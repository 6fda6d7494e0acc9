"""The full GenDT generator: G_n + G_a + G_r assembled (paper Figure 6)."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import ANY, Spec, contract
from ..nn.tensor import Tensor
from ..context.normalize import N_CELL_FEATURES
from .config import GenDTConfig
from .features import ModelBatch, mean_over_cells, recent_values_matrix
from .networks import AggregationNetwork, GnnNodeNetwork, ResGen

#: Most ``G_n`` rows (windows x draws x ``max_cells``) one first-stage call
#: takes at generation; a call takes whole windows, at least one.  Cost per
#: row bottoms out near here, and larger calls grow peak memory.  Under
#: ``no_grad`` the LSTM keeps no BPTT buffers, but still holds every step's
#: gates and outputs: at H=100 and L=50 a call peaks at about 0.13 MB per
#: row in float32, so about 12 MB for a full call (float64 doubles both).
FIRST_STAGE_ROWS = 96

#: The dtype GenDT's generator and discriminator compute in: parameters,
#: activations, BPTT, Adam state and the ResGen rollout.  Initial weights
#: and every random draw are made in float64, as before, and then cast, so
#: the RNG stream does not depend on it.  Outputs in physical units are
#: float64 (``TargetNormalizer.denormalize``).
COMPUTE_DTYPE = np.float32

#: ``window_hook(index, out)``: see :meth:`GenDTGenerator.generate_batch`.
WindowHook = Callable[[int, np.ndarray], Optional[np.ndarray]]


def _probe_batch(module: "GenDTGenerator", env) -> Tuple[tuple, dict]:
    """Probe ModelBatch for graph verification (fresh B, N_c, L)."""
    b, n_c, length = env.fresh("B"), env.fresh("N_c"), env.fresh("L")
    batch = ModelBatch(
        cell_x=env.probe(b, n_c, length, N_CELL_FEATURES),
        cell_mask=np.ones((b, n_c)),
        env=env.probe(b, length, module.n_env),
        target=env.probe(b, length, module.n_channels),
    )
    return (batch,), {}


@contract(
    method="forward_teacher_forced",
    inputs={"batch": ANY},
    outputs={
        "h_avg": Spec("B", "L", "H"),
        "base": Spec("B", "L", "N_ch"),
        "output": Spec("B", "L", "N_ch"),
        "mu": Spec("B", "L", "N_ch"),
        "log_sigma": Spec("B", "L", "N_ch"),
    },
    dims={"H": "config.hidden_size", "N_ch": "n_channels", "N_env": "n_env"},
    build_inputs=_probe_batch,
)
class GenDTGenerator(nn.Module):
    """Conditional neural sampler ``p_theta(x | c)``.

    Forward pass (one minibatch of windows):

    1. every (padded) cell's transformed feature series goes through the
       shared node LSTM ``G_n`` -> per-cell hidden series,
    2. masked mean over cells -> graph representation ``h_avg`` [B, L, H],
    3. the aggregation LSTM + head ``G_a`` -> base KPI series [B, L, N_ch],
    4. ``G_r`` (ResGen) adds a Gaussian residual conditioned on environment
       context, noise and the last ``m`` KPI values.

    During training ResGen is teacher-forced with the real recent values;
    during generation it consumes its own output autoregressively, carrying
    state across generation windows (that is what keeps long series
    coherent, §4.3.3).

    The weights are initialised in float64 and then cast to
    :data:`COMPUTE_DTYPE`; a batch is cast to that dtype where it enters.
    """

    def __init__(
        self,
        n_channels: int,
        n_env: int,
        config: GenDTConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        config.validate()
        self.config = config
        self.n_channels = n_channels
        self.n_env = n_env
        self.node_net = GnnNodeNetwork(N_CELL_FEATURES, config, rng)
        self.agg_net = AggregationNetwork(n_channels, config, rng)
        if config.use_resgen:
            self.resgen: Optional[ResGen] = ResGen(n_env, n_channels, config, rng)
        else:
            self.resgen = None
        self.astype(COMPUTE_DTYPE)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, which every computation follows."""
        return self.agg_net.head.weight.data.dtype

    # ------------------------------------------------------------------
    # Shared first stage
    # ------------------------------------------------------------------
    def h_avg(self, cell_x: np.ndarray, cell_mask: np.ndarray, rng=None) -> Tensor:
        """Graph-level hidden series [B, L, H] from cell context in :attr:`dtype`."""
        b, n_cells, length, n_feat = cell_x.shape
        flat = Tensor(cell_x.reshape(b * n_cells, length, n_feat))
        hidden = self.node_net(flat, rng)
        return mean_over_cells(hidden.reshape(b, n_cells, length, hidden.shape[-1]), cell_mask)

    # ------------------------------------------------------------------
    # Training-time forward (teacher forcing)
    # ------------------------------------------------------------------
    def forward_teacher_forced(
        self, batch: ModelBatch, rng: Optional[np.random.Generator] = None
    ) -> Dict[str, Tensor]:
        """Generate with real recent values feeding ResGen (training mode).

        Every draw (``z0``, SRNN noise, ``z1``, dropout mask, ``eps``) comes
        from ``rng``; ``None`` draws nothing.
        """
        if batch.target is None:
            raise ValueError("teacher forcing requires targets")
        batch = batch.astype(self.dtype)
        h_avg = self.h_avg(batch.cell_x, batch.cell_mask, rng)
        base = self.agg_net(h_avg, rng)
        out: Dict[str, Tensor] = {"h_avg": h_avg, "base": base}
        if self.resgen is not None:
            # ResGen is autoregressive over the *residual* process
            # (target - base): the residual is stationary (shadowing-like),
            # so the learned feedback stays stable when the model consumes
            # its own outputs at generation time.
            residual_real = batch.target - base.numpy()
            recent = recent_values_matrix(residual_real, self.resgen.ar_window)
            residual, mu, log_sigma = self.resgen.sample(Tensor(batch.env), Tensor(recent), rng)
            out["output"] = base + residual
            out["mu"] = mu
            out["log_sigma"] = log_sigma
        else:
            out["output"] = base
        return out

    # ------------------------------------------------------------------
    # Generation-time forward (autoregressive)
    # ------------------------------------------------------------------
    def generate_batch(
        self,
        batch: ModelBatch,
        starts: Optional[Sequence[int]] = None,
        n_draws: int = 1,
        collect_params: bool = False,
        window_hook: Optional[WindowHook] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, Optional[Dict[str, np.ndarray]]]:
        """Generate ``n_draws`` series over one trajectory's windows, in normalized space.

        ``batch`` holds the windows in order, one row each (targets ignored);
        window ``i`` covers samples ``starts[i]`` to ``starts[i] + L``
        (default: back to back), overlapping the one before it or not, but
        with no gap.  ``G_n`` and ``G_a`` start each window from zero state,
        so :meth:`_first_stage` runs them for all windows x draws at once.
        ResGen (:meth:`ResGen.rollout`) then rolls window by window, each
        draw's AR state carried across; an overlapping (tail) window rolls
        its new samples only.  ``window_hook(index, out)`` gets those,
        [n_draws, new, N_ch], after each window; it may return a replacement
        (the AR state keeps ResGen's own output), ``None``, or raise.

        Every draw comes from ``rng``.  ``rng=None`` draws nothing and skips
        ResGen, whose residual would stay 0 without noise (the AR mean of a
        zero history): the deterministic middle rung of the serving ladder
        (:mod:`repro.serving`).
        ``collect_params`` also returns ResGen's per-step ``mu`` and
        ``sigma``, for the MC-dropout uncertainty probe.

        Returns (series [n_draws, T, N_ch], {"mu", "sigma"} of the same
        shape if ``collect_params`` and ResGen ran, else None), in
        :attr:`dtype`.
        """
        if n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        batch = batch.astype(self.dtype)
        length = batch.length
        starts = range(0, batch.n_windows * length, length) if starts is None else starts
        base = self._first_stage(batch, n_draws, rng)
        roll = self.resgen is not None and rng is not None
        state = np.zeros((n_draws, self.resgen.ar_window, base.shape[-1]), base.dtype) if roll else None
        outs, mus, sigmas, done = [], [], [], 0
        for index, start in enumerate(starts):
            if not start <= done < start + length:
                raise ValueError("generation windows must tile the series in order")
            new = slice(done - start, length)
            out = base[index, :, new]
            if roll:
                # [1, new, N_env]: rollout broadcasts it over the draws.
                env = batch.env[index, None, new]
                out, state, mu, sigma = self.resgen.rollout(env, out, state, rng, collect_params)
                mus.append(mu)
                sigmas.append(sigma)
            if window_hook is not None:
                replaced = window_hook(index, out)
                out = out if replaced is None else np.asarray(replaced)
            outs.append(out)
            done = start + length
        params = None
        if roll and collect_params:
            params = {"mu": np.concatenate(mus, axis=1), "sigma": np.concatenate(sigmas, axis=1)}
        return np.concatenate(outs, axis=1), params

    def _first_stage(self, batch: ModelBatch, n_draws: int, rng) -> np.ndarray:
        """``G_n`` + ``G_a`` output per window x draw, [W, n_draws, L, N_ch]."""
        n_windows, n_cells = batch.cell_mask.shape
        per_call = max(1, FIRST_STAGE_ROWS // (n_draws * n_cells))
        base = []
        with nn.no_grad():
            for lo in range(0, n_windows, per_call):
                cell_x = batch.cell_x[lo:lo + per_call]
                mask = batch.cell_mask[lo:lo + per_call]
                if n_draws > 1:
                    cell_x = np.repeat(cell_x, n_draws, axis=0)
                    mask = np.repeat(mask, n_draws, axis=0)
                h_avg = self.h_avg(cell_x, mask, rng)
                base.append(self.agg_net(h_avg, rng).numpy())
        base = np.concatenate(base)
        return base.reshape(n_windows, n_draws, *base.shape[1:])
