"""GenDT generator components: GNN-node, aggregation, ResGen, discriminator.

Maps paper Figure 6/7 onto the numpy NN engine:

* :class:`GnnNodeNetwork` (``G_n``) — one shared stochastic LSTM applied to
  every visible cell's context series (weight sharing across nodes is what
  makes it a graph network: a GraphSAGE-style node function with a mean
  aggregator).  Denoising noise ``z0`` is concatenated to the input.
* :class:`AggregationNetwork` (``G_a``) — mean-pools the per-cell hidden
  series into ``h_avg`` and maps it with a second stochastic LSTM plus a
  linear head to the first-stage multi-channel KPI output.
* :class:`ResGen` (``G_r``, Figure 7) — an autoregressive MLP over
  environment context + noise ``z1`` + the last ``m`` KPI values, emitting
  per-step Gaussian parameters ``(mu, log_sigma)``; the residual sample is
  reparameterized (``mu + sigma * eps``) so gradients flow.
* :class:`Discriminator` (``R``) — a single-layer LSTM over the KPI series
  concatenated with ``h_avg`` (the high-dimensional context representation,
  §4.3.5), followed by a linear head on the last hidden state.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import nn
from ..analysis.graph.spec import Spec, contract
from ..nn.anomaly import NumericalAnomalyError, annotate_module, is_anomaly_enabled
from ..nn.tensor import Tensor, concat
from .config import GenDTConfig

#: N_z0, the width of ``G_n``'s denoising noise ``z0``.
N_NOISE_NODE = 2
#: N_z1, the width of ResGen's stochastic noise ``z1``.
N_NOISE_RESGEN = 4
#: m, the recent residuals ResGen conditions on (its autoregression order).
RESGEN_AR_WINDOW = 3
#: ResGen's dropout before the head, also the MC-dropout probe (§6.2.1).
RESGEN_DROPOUT = 0.2


def _srnn(config: GenDTConfig) -> Optional[Tuple[float, float]]:
    """``G_n``'s and ``G_a``'s SRNN intensities ``(a_h, a_c)``, or None with the layers off."""
    if not config.use_stochastic_layers:
        return None
    return config.noise_intensity_h, config.noise_intensity_c


@contract(
    inputs={"cell_inputs": Spec("R", "L", "F")},
    outputs=Spec("R", "L", "H"),
    dims={
        "F": lambda m: m.lstm.input_size - m.n_noise,
        "H": "lstm.hidden_size",
    },
)
class GnnNodeNetwork(nn.Module):
    """``G_n``: per-cell context series -> per-cell hidden series.

    Input: ``[B * N_b, L, n_features + n_noise]``; output ``[B * N_b, L, H]``.
    The same weights process every cell (node-level weight sharing).
    """

    def __init__(self, n_features: int, config: GenDTConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.n_noise = N_NOISE_NODE
        self.lstm = nn.LSTM(n_features + self.n_noise, config.hidden_size, rng, _srnn(config))

    def forward(self, cell_inputs: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        """``rng=None`` draws no noise: ``z0`` at its mean 0, no SRNN noise."""
        rows, steps, _ = cell_inputs.shape
        # z0: denoising noise, concatenated to every step's input (§4.3.1),
        # drawn in float64 and cast to the input's dtype.
        shape = (rows, steps, self.n_noise)
        z0 = np.zeros(shape) if rng is None else rng.normal(0.0, 1.0, size=shape)
        z0 = Tensor(z0.astype(cell_inputs.data.dtype, copy=False))
        return self.lstm(concat([cell_inputs, z0], axis=2), rng)


@contract(
    inputs={"h_avg": Spec("B", "L", "H")},
    outputs=Spec("B", "L", "N_ch"),
    dims={"H": "head.in_features", "N_ch": "head.out_features"},
)
class AggregationNetwork(nn.Module):
    """``G_a``: graph-level hidden series ``h_avg`` -> base KPI series."""

    def __init__(self, n_channels: int, config: GenDTConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.lstm = nn.LSTM(config.hidden_size, config.hidden_size, rng, _srnn(config))
        self.head = nn.Linear(config.hidden_size, n_channels, rng)

    def forward(self, h_avg: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        return self.head(self.lstm(h_avg, rng))


@contract(
    method="sample",
    inputs={
        "env": Spec("...", "N_env"),
        "recent": Spec("...", "M_win"),
    },
    outputs=(Spec("...", "N_ch"), Spec("...", "N_ch"), Spec("...", "N_ch")),
    dims={
        "N_env": "n_env",
        "N_ch": "n_channels",
        # The AR window m and channel count fix the recent-residuals width;
        # a region config whose m disagrees with the trained MLP fails here.
        "M_win": lambda m: m.ar_window * m.n_channels,
    },
)
class ResGen(nn.Module):
    """``G_r``: environment context + noise + recent residuals -> Gaussian residual.

    The network follows paper Figure 7 (three FC+LeakyReLU blocks, dropout
    before the final FC) but parameterizes the per-step Gaussian as a
    *stationary autoregression over the residual process*:

    ``mu_t = sum_k g_k(c) * r_{t-k}``,  ``g_k = sigmoid(raw_k) / m``

    with the AR gains ``g_k`` and ``log_sigma`` emitted by the MLP,
    conditioned on environment context, noise ``z1`` and the recent
    residuals.  Because ``sum_k g_k < 1`` the generated residual process is
    mean-reverting: it cannot drift when the model consumes its own outputs
    at generation time (the free-form-``mu`` head diverges there), yet the
    context still modulates how correlated (``g``) and how wide (``sigma``)
    the residual is — exactly the environment's physical effect on
    shadowing.  The dropout layer doubles as the MC-dropout probe for model
    uncertainty (§6.2.1), which runs ResGen in training mode.
    """

    def __init__(
        self,
        n_env: int,
        n_channels: int,
        config: GenDTConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.n_env = n_env
        self.n_channels = n_channels
        self.n_noise = N_NOISE_RESGEN
        self.ar_window = RESGEN_AR_WINDOW
        in_features = n_env + self.n_noise + self.ar_window * n_channels
        # Head: m AR gains + 1 log-sigma per channel.
        self.mlp = nn.MLP(
            in_features,
            list(config.resgen_hidden),
            (self.ar_window + 1) * n_channels,
            rng,
            dropout=RESGEN_DROPOUT,
        )

    def sample(
        self, env: Tensor, recent: Tensor, rng: Optional[np.random.Generator] = None
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Reparameterized residual sample for a batch of timesteps.

        Args:
            env: normalized environment context, [..., n_env].
            recent: last ``m`` *residual* values (normalized),
                [..., m * N_ch], oldest first.
            rng: draws ``z1``, the dropout mask and ``eps``, in that order;
                ``None`` draws nothing (``z1`` and ``eps`` at their mean 0,
                no dropout, so the residual is ``mu``).

        Returns:
            (residual, mu, log_sigma), each [..., N_ch].
        """
        noise_shape = env.shape[:-1] + (self.n_noise,)
        z1 = np.zeros(noise_shape) if rng is None else rng.normal(0.0, 1.0, size=noise_shape)
        z1 = Tensor(z1.astype(env.data.dtype, copy=False))
        out = self.mlp(concat([env, z1, recent], axis=-1), rng)
        m, n_ch = self.ar_window, self.n_channels
        gains = out[..., : m * n_ch].sigmoid() * (1.0 / m)
        log_sigma = out[..., m * n_ch :].clip(-5.0, 2.0)
        # recent is [..., m * N_ch] laid out as m blocks of N_ch (oldest
        # first); mu is the gain-weighted sum over the m lags.
        mu = (gains * recent).reshape(*env.shape[:-1], m, n_ch).sum(axis=-2)
        eps = np.zeros(mu.shape) if rng is None else rng.normal(0.0, 1.0, size=mu.shape)
        residual = mu + log_sigma.exp() * Tensor(eps.astype(mu.data.dtype, copy=False))
        return residual, mu, log_sigma

    def rollout(
        self,
        env: np.ndarray,
        base: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
        collect_params: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Autoregressive generation: ``sample`` step by step, on ndarrays.

        Step ``t`` conditions on ``env[:, t]`` and the last ``m`` residuals,
        adds the residual (clipped to +-5) to ``base[:, t]`` and appends it
        to the residual history.  Before the loop the call draws the
        window's noise, exactly what ``sample`` draws for a ``[B, L]``
        batch: ``z1`` as ``rng.normal`` ``[B, L, N_z1]``, the dropout mask
        as ``rng.random`` ``[B, L, W]`` (only while that layer is active and
        ``p > 0``; ``W`` is the head's input width) and ``eps`` as
        ``rng.normal`` ``[B, L, N_ch]``: three generator calls per window,
        whatever ``L``.  Every array op yields exactly what ``sample``'s
        Tensor ops compute, in the parameters' dtype (draws are made in
        float64 and cast), so given the same noise arrays the output and
        the state are bit-identical to ``sample`` run step by step; no
        Tensor is built.  Under ``repro.nn.detect_anomaly`` each step's
        MLP head, ``mu`` and residual are checked for NaN/Inf.

        At batch 1 a step costs what its numpy calls cost, not their
        arithmetic, so the loop makes few of them and makes each cheap.
        Everything a step writes goes into a buffer allocated once per
        call, and every view a step reads is made once per call: the
        residual history ``[B, m + L, N_ch]`` (step ``t`` writes row
        ``m + t``; the new state is its last ``m`` rows), a strided view
        of it whose entry ``t`` is rows ``t..t+m-1`` flattened, and the
        time-major MLP input ``[L, B, N_env + N_z1 + m * N_ch]``, whose
        ``env`` and ``z1`` columns are written once, so a step copies only
        its recent residuals into row ``t``.  Every operand a ufunc gets
        per step is a buffer of the result's shape or a 0-d array in the
        dtype: a Python float or a broadcast operand costs about as much
        again as the op on a few dozen numbers.  The head row is clipped
        by one ``np.maximum`` and one ``np.minimum`` against per-column
        bounds (-60 and +inf for the AR-gain columns, -5 and 2 for the
        log-sigma columns), the gain columns are negated, and one
        ``np.exp`` gives both ``exp(-gain)`` and ``sigma``.

        Each substitution gives the Tensor op's bits: writing the float64
        ``z1`` draw into the rows casts it as ``astype`` does; a 0-d
        constant in the dtype is what NEP 50 makes of the Python float;
        a bias tiled to ``[B, W]`` adds what the broadcast ``[W]`` adds;
        LeakyReLU is ``maximum(x, x * slope)``, exact for
        ``0 < slope <= 1`` (every ``nn.MLP`` uses 0.2), ±0 and NaN
        included; the dropout mask is ``Dropout``'s ``(u < keep) / keep``
        cast to the dtype; each clip is ``np.maximum`` and ``np.minimum``,
        which select what ``clip`` selects, and the gains keep only
        ``Tensor.sigmoid``'s -60 floor, because its +60 ceiling cannot
        change a sigmoid in float32 or float64 (the +inf bound selects
        every value, NaN included); ``np.add.reduce`` is ``sum`` without
        its Python wrapper; ``sigma * eps + mu`` is ``mu + sigma * eps``
        (IEEE addition commutes); and adding ``base`` after the loop is
        the same elementwise sum.

        Args:
            env: [B, L, N_env] environment context, or [1, L, N_env]
                shared by every row.
            base: [B, L, N_ch] first-stage (``G_n`` + ``G_a``) output.
            state: [B, m, N_ch] recent residuals, oldest first.
            rng: the generator every draw comes from.
            collect_params: also return the per-step ``mu`` and ``sigma``.

        Returns:
            (output [B, L, N_ch], new state [B, m, N_ch], mu, sigma), the
            last two ``None`` unless ``collect_params``.
        """
        hidden, dropout, (head_wt, head_b) = self._array_layers()
        check = is_anomaly_enabled()
        dtype = head_wt.dtype
        b, length, n_ch = base.shape
        m, n_env, n_noise = self.ar_window, env.shape[-1], self.n_noise
        split = m * n_ch
        # The window's noise, drawn as sample() draws it for a [B, L] batch
        # and cast as its astype does; time-major, so each step reads a
        # contiguous [B, ...] slice.
        z1 = rng.normal(0.0, 1.0, size=(b, length, n_noise))
        if dropout is not None:
            keep = 1.0 - dropout.p
            mask = (rng.random((b, length, head_wt.shape[0])) < keep) / keep
            mask = mask.transpose(1, 0, 2).astype(dtype)
        eps = rng.normal(0.0, 1.0, size=(b, length, n_ch)).transpose(1, 0, 2).astype(dtype)
        rows = np.empty((length, b, n_env + n_noise + split), dtype)
        rows[:, :, :n_env] = env.transpose(1, 0, 2)
        rows[:, :, n_env:-split] = z1.transpose(1, 0, 2)
        rows_recent = rows[:, :, -split:]
        hist = np.empty((b, m + length, n_ch), dtype)
        hist[:, :m] = state
        size = hist.itemsize
        recents = as_strided(
            hist, (length, b, split), (n_ch * size, hist.strides[0], size), writeable=False
        )
        residuals = hist[:, m:].transpose(1, 0, 2)
        # Per-step buffers: each hidden layer's output and its leak, the
        # raw head and its transform [exp(-gain) | sigma], mu, the residual.
        layers = [
            (weight_t, np.tile(bias, (b, 1)), np.array(slope, dtype),
             np.empty((b, weight_t.shape[1]), dtype), np.empty((b, weight_t.shape[1]), dtype))
            for weight_t, bias, slope in hidden
        ]
        head_bias = np.tile(head_b, (b, 1))
        head, params = np.empty_like(head_bias), np.empty_like(head_bias)
        low, high = np.full_like(head_bias, -5.0), np.full_like(head_bias, 2.0)
        low[:, :split], high[:, :split] = -60.0, np.inf
        gains, sigma = params[:, :split], params[:, split:]
        lags = gains.reshape(b, m, n_ch)
        mu, residual = np.empty((b, n_ch), dtype), np.empty((b, n_ch), dtype)
        one, inv_m, floor, ceiling = (np.array(v, dtype) for v in (1.0, 1.0 / m, -5.0, 5.0))
        output = np.empty_like(base)
        mus = np.empty_like(base) if collect_params else None
        sigmas = np.empty_like(base) if collect_params else None
        steps = zip(rows, rows_recent, recents, eps, residuals)
        for t, (x, x_recent, recent, eps_t, new) in enumerate(steps):
            x_recent[...] = recent
            for weight_t, bias, slope, act, leak in layers:
                np.matmul(x, weight_t, out=act)
                act += bias
                np.multiply(act, slope, out=leak)
                np.maximum(act, leak, out=act)
                x = act
            if dropout is not None:
                x *= mask[t]
            np.matmul(x, head_wt, out=head)
            head += head_bias
            np.maximum(head, low, out=params)
            np.minimum(params, high, out=params)
            np.negative(gains, out=gains)
            np.exp(params, out=params)
            gains += one
            np.divide(one, gains, out=gains)
            gains *= inv_m
            gains *= recent
            np.add.reduce(lags, axis=1, out=mu)
            np.multiply(sigma, eps_t, out=residual)
            residual += mu
            if check:
                _check_finite(t, head=head, mu=mu, residual=residual)
            np.maximum(residual, floor, out=residual)
            np.minimum(residual, ceiling, out=new)
            if collect_params:
                mus[:, t] = mu
                sigmas[:, t] = sigma
        np.add(base, hist[:, m:], out=output)
        return output, hist[:, length:], mus, sigmas

    def _array_layers(self):
        """The MLP's weights for :meth:`rollout`, read once per call.

        Returns ``([(W.T, b, slope)] per hidden layer, the dropout layer if
        it is active with ``p > 0`` else None, (W.T, b) of the head)``.
        """
        layers = list(self.mlp.net)  # (Linear, LeakyReLU)*, [Dropout], Linear
        head = layers.pop()
        dropout = layers.pop() if layers and isinstance(layers[-1], nn.Dropout) else None
        if dropout is not None and not (dropout.training and dropout.p > 0.0):
            dropout = None
        hidden = [
            (linear.weight.data.T, linear.bias.data, act.negative_slope)
            for linear, act in zip(layers[::2], layers[1::2])
        ]
        return hidden, dropout, (head.weight.data.T, head.bias.data)


def _check_finite(step: int, **arrays: np.ndarray) -> None:
    """Raise ``NumericalAnomalyError`` naming ResGen if an array is non-finite."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            err = NumericalAnomalyError(
                f"ResGen generation step {step} produced non-finite {name}",
                op=f"ResGen.rollout:{name}",
                phase="forward",
            )
            annotate_module(err, "ResGen")
            raise err


@contract(
    inputs={
        "series": Spec("B", "L", "N_ch"),
        "h_avg": Spec("B", "L", "H"),
    },
    outputs=Spec("B", 1),
    dims={"N_ch": "n_channels", "H": "head.in_features"},
)
class Discriminator(nn.Module):
    """``R``: (KPI series, h_avg) -> realness logit, via a 1-layer LSTM."""

    def __init__(self, n_channels: int, config: GenDTConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.n_channels = n_channels
        self.lstm = nn.LSTM(n_channels + config.hidden_size, config.hidden_size, rng)
        self.head = nn.Linear(config.hidden_size, 1, rng)

    def forward(self, series: Tensor, h_avg: Tensor) -> Tensor:
        """Logits [B, 1] for a batch of (series [B, L, N_ch], h_avg [B, L, H])."""
        hidden = self.lstm(concat([series, h_avg], axis=2))
        last = hidden[:, -1, :]
        return self.head(last)
