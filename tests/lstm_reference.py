"""References for :func:`repro.nn.lstm_sequence`.

The LSTM built step by step from ``Tensor`` ops, from the zero state, with
the SRNN noise of paper §4.3.4 applied before every step.  Its gradients come from the
generic autodiff engine, so the fused op's hand-written BPTT is checked
against it, as are its forward values and its RNG draws.

``frozen`` makes the noise replayable for finite differences: the first
call with a given list records each step's noise and renormalizing
denominator, later calls with the same list reuse them.  Those are exactly
the quantities the op's gradient treats as constants, so a central
difference of the frozen function is the derivative the op claims.

:class:`LoopRecurrence` is the op's array forward and BPTT in their
per-state form: ``h`` and ``c`` are kept and renormalized separately, and
the SRNN noise for all steps comes from one up-front ``uniform`` draw.  The
op's ``_Recurrence`` must match it bit for bit: outputs, gradients and RNG
state.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import SRNNNoise
from repro.nn.tensor import Tensor, stack


def inject_noise(
    state: Tensor,
    intensity: float,
    rng: np.random.Generator,
    frozen: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
    step: int = 0,
) -> Tensor:
    """Adaptive uniform noise + sum-preserving renorm, one state, one step."""
    if frozen is not None and step < len(frozen):
        noise, denom_safe = frozen[step]
    else:
        values = state.data
        mean_value = values.mean(axis=-1, keepdims=True)
        noise = rng.uniform(0.0, 1.0, size=values.shape) * mean_value
        noisy_sum = (values + intensity * noise).sum(axis=-1, keepdims=True)
        denom_safe = np.where(np.abs(noisy_sum) < 1e-6, 1.0, noisy_sum)
        if frozen is not None:
            frozen.append((noise, denom_safe))
    noisy = state + Tensor(intensity * noise)
    scale = state.sum(axis=-1, keepdims=True) / Tensor(denom_safe)
    return noisy * scale


def cell_step(x: Tensor, h: Tensor, c: Tensor, weight_ih, weight_hh, bias) -> Tuple[Tensor, Tensor]:
    """One LSTM step from composite ops; gates ``[input, forget, cell, output]``."""
    gates = x.matmul(weight_ih.T) + h.matmul(weight_hh.T) + bias
    hs = h.shape[-1]
    i = gates[:, 0 * hs : 1 * hs].sigmoid()
    f = gates[:, 1 * hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs : 4 * hs].sigmoid()
    c = f * c + i * g
    return o * c.tanh(), c


def reference_lstm_sequence(
    x: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    noise: Optional[SRNNNoise] = None,
    frozen: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tensor:
    """Same signature and result as ``lstm_sequence``, from composite ops."""
    zeros = np.zeros((x.shape[0], weight_hh.shape[1]), x.data.dtype)
    h, c = Tensor(zeros), Tensor(zeros)
    outputs = []
    for t in range(x.shape[1]):
        if noise is not None:
            h = inject_noise(h, noise.intensity_h, noise.rng, frozen, 2 * t)
            c = inject_noise(c, noise.intensity_c, noise.rng, frozen, 2 * t + 1)
        h, c = cell_step(x[:, t, :], h, c, weight_ih, weight_hh, bias)
        outputs.append(h)
    return stack(outputs, axis=1)


def _loop_sigmoid_(z: np.ndarray) -> np.ndarray:
    z.clip(-60.0, 60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _loop_renormalize(state: np.ndarray, uniform: np.ndarray, intensity: float, out: np.ndarray):
    row_sum = state.sum(axis=-1, keepdims=True)
    noisy = uniform * (row_sum / state.shape[-1])
    noisy *= intensity
    noisy += state
    noisy_sum = noisy.sum(axis=-1, keepdims=True)
    denom = np.where(np.abs(noisy_sum) < 1e-6, 1.0, noisy_sum)
    scale = row_sum / denom
    np.multiply(noisy, scale, out=out)
    return noisy, scale, denom


def _loop_unrenormalize(grad: np.ndarray, noisy: np.ndarray, scale: np.ndarray, denom: np.ndarray):
    return grad * scale + (grad * noisy).sum(axis=-1, keepdims=True) / denom


class LoopRecurrence:
    """Same constructor, attribute ``hs`` and ``backward`` as ``_Recurrence``."""

    def __init__(self, x, weight_ih, weight_hh, bias, noise: Optional[SRNNNoise]):
        batch, steps, n_in = x.shape
        hidden = weight_hh.shape[1]
        self.noise = noise
        self.weight_ih = weight_ih
        self.weight_hh = weight_hh
        self.x = np.ascontiguousarray(x.transpose(1, 0, 2))
        gates = self.x.reshape(steps * batch, n_in) @ weight_ih.T
        gates = gates.reshape(steps, batch, 4 * hidden)
        gates += bias
        w_hh_t = np.ascontiguousarray(weight_hh.T)
        dtype = x.dtype
        self.h_in = np.empty((steps, batch, hidden), dtype)
        self.c_in = np.empty((steps, batch, hidden), dtype)
        self.tanh_c = np.empty((steps, batch, hidden), dtype)
        self.hs = np.empty((steps, batch, hidden), dtype)
        if noise is not None:
            uniform = noise.rng.uniform(0.0, 1.0, size=(steps, 2, batch, hidden))
            uniform = uniform.astype(dtype, copy=False)
            self.renorm_h: List[tuple] = []
            self.renorm_c: List[tuple] = []
        h = np.zeros((batch, hidden), dtype)
        c = np.zeros((batch, hidden), dtype)
        for t in range(steps):
            if noise is None:
                self.h_in[t] = h
                self.c_in[t] = c
            else:
                h_saved = _loop_renormalize(h, uniform[t, 0], noise.intensity_h, self.h_in[t])
                c_saved = _loop_renormalize(c, uniform[t, 1], noise.intensity_c, self.c_in[t])
                self.renorm_h.append(h_saved)
                self.renorm_c.append(c_saved)
            h, c = self.h_in[t], self.c_in[t]
            z = gates[t]
            z += h @ w_hh_t
            cell_gate = np.tanh(z[:, 2 * hidden : 3 * hidden])
            _loop_sigmoid_(z)
            z[:, 2 * hidden : 3 * hidden] = cell_gate
            c = z[:, hidden : 2 * hidden] * c
            c += z[:, :hidden] * cell_gate
            np.tanh(c, out=self.tanh_c[t])
            h = np.multiply(z[:, 3 * hidden :], self.tanh_c[t], out=self.hs[t])
        self.gates = gates

    def backward(self, d_hs, needs):
        steps, batch, hidden = self.hs.shape
        dtype = self.hs.dtype
        i, f, g, o = (self.gates[..., k * hidden : (k + 1) * hidden] for k in range(4))
        k_gates = np.empty((steps, batch, 4, hidden), dtype)
        np.multiply(g, i * (1.0 - i), out=k_gates[:, :, 0])
        np.multiply(self.c_in, f * (1.0 - f), out=k_gates[:, :, 1])
        np.multiply(i, 1.0 - g * g, out=k_gates[:, :, 2])
        np.multiply(self.tanh_c, o * (1.0 - o), out=k_gates[:, :, 3])
        k_c = o * (1.0 - self.tanh_c * self.tanh_c)
        d_out = d_hs.transpose(1, 0, 2)
        d_h = np.zeros((batch, hidden), dtype)
        d_c = np.zeros((batch, hidden), dtype)
        d_gates = np.empty((steps, batch, 4, hidden), dtype)
        for t in range(steps - 1, -1, -1):
            d_h = d_h + d_out[t]
            d_c = d_c + d_h * k_c[t]
            np.multiply(d_c[:, None, :], k_gates[t, :, :3], out=d_gates[t, :, :3])
            np.multiply(d_h, k_gates[t, :, 3], out=d_gates[t, :, 3])
            d_c *= f[t]
            d_h = d_gates[t].reshape(batch, 4 * hidden) @ self.weight_hh
            if self.noise is not None:
                d_h = _loop_unrenormalize(d_h, *self.renorm_h[t])
                d_c = _loop_unrenormalize(d_c, *self.renorm_c[t])
        flat = d_gates.reshape(steps * batch, 4 * hidden)
        d_x = d_w_ih = d_w_hh = d_bias = None
        if needs[0]:
            d_x = (flat @ self.weight_ih).reshape(steps, batch, -1).transpose(1, 0, 2)
        if needs[1]:
            d_w_ih = flat.T @ self.x.reshape(steps * batch, -1)
        if needs[2]:
            d_w_hh = flat.T @ self.h_in.reshape(steps * batch, hidden)
        if needs[3]:
            d_bias = flat.sum(axis=0)
        return d_x, d_w_ih, d_w_hh, d_bias
