"""Composite-op reference for :func:`repro.nn.lstm_sequence`.

The LSTM built step by step from ``Tensor`` ops, with the SRNN noise of
paper §4.3.4 applied before every step.  Its gradients come from the
generic autodiff engine, so the fused op's hand-written BPTT is checked
against it, as are its forward values and its RNG draws.

``frozen`` makes the noise replayable for finite differences: the first
call with a given list records each step's noise and renormalizing
denominator, later calls with the same list reuse them.  Those are exactly
the quantities the op's gradient treats as constants, so a central
difference of the frozen function is the derivative the op claims.
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
    h: Tensor,
    c: Tensor,
    noise: Optional[SRNNNoise] = None,
    frozen: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
    """Same signature and result as ``lstm_sequence``, from composite ops."""
    outputs = []
    for t in range(x.shape[1]):
        if noise is not None:
            h = inject_noise(h, noise.intensity_h, noise.rng, frozen, 2 * t)
            c = inject_noise(c, noise.intensity_c, noise.rng, frozen, 2 * t + 1)
        h, c = cell_step(x[:, t, :], h, c, weight_ih, weight_hh, bias)
        outputs.append(h)
    return stack(outputs, axis=1), (h, c)
