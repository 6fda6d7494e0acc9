"""LSTM cells and sequence modules, built on one fused recurrent op.

:func:`lstm_sequence` runs a whole LSTM recurrence as a single autodiff
node: a numpy forward loop that keeps each step's gates, and a hand-written
backward pass through time (BPTT).  It is the only LSTM code path:
:class:`LSTMCell` is its one-step case, :class:`LSTM` (the discriminator,
the LSTM-GNN and DoppelGANger baselines) calls it once per sequence, and
GenDT's stochastic variant (SRNN layers, paper §4.3.4 and §A.2, in
:mod:`repro.core.stochastic_lstm`) calls it with :class:`SRNNNoise`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.graph.spec import Spec, contract
from . import init
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled


class SRNNNoise(NamedTuple):
    """SRNN state noise for :func:`lstm_sequence` (paper §4.3.4 and §A.2).

    Before every step, uniform noise is added to the hidden state and the
    memory, and each is renormalized so its per-row sum is unchanged::

        s' = (s + a * u * mean(s)) * sum(s) / sum(s + a * u * mean(s))

    with ``u ~ U[0, 1)`` per element and intensity ``a`` (``intensity_h``
    for ``h``, ``intensity_c`` for ``c``).  The amplitude ``mean(s)`` is
    signed, so a network whose hidden activations balance around zero
    receives little noise, and training can modulate the injected
    stochasticity.  The noise amplitude and the denominator are constants
    to the gradient.
    """

    rng: np.random.Generator
    intensity_h: float
    intensity_c: float


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid, with ``Tensor.sigmoid``'s bits.

    ``Tensor.sigmoid`` clips its input to [-60, 60]; only the floor can
    change a result, because ``1 + exp(-60)`` already rounds to 1 in
    float32 and in float64, so the ceiling is left out.
    """
    np.maximum(z, -60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _renormalize(state: np.ndarray, uniform: np.ndarray, intensity: np.ndarray, out: np.ndarray):
    """One SRNN perturbation of the stacked ``[h, c]`` state into ``out``.

    ``state``, ``uniform`` and ``out`` are ``[2, B, H]`` and ``intensity`` is
    ``[2, 1, 1]``; every op is elementwise or a reduction over ``H``, so each
    state gets the bits it would get alone.  Returns what the gradient needs.
    """
    row_sum = np.add.reduce(state, axis=-1, keepdims=True)
    noisy = uniform * (row_sum / state.shape[-1])  # the same bits as ``mean``
    noisy *= intensity
    noisy += state
    noisy_sum = np.add.reduce(noisy, axis=-1, keepdims=True)
    denom = np.where(np.abs(noisy_sum) < 1e-6, 1.0, noisy_sum)
    scale = row_sum / denom
    np.multiply(noisy, scale, out=out)
    return noisy, scale, denom


def _unrenormalize(grad: np.ndarray, noisy: np.ndarray, scale: np.ndarray, denom: np.ndarray):
    """Gradient of :func:`_renormalize` w.r.t. its input state."""
    return grad * scale + np.add.reduce(grad * noisy, axis=-1, keepdims=True) / denom


class _Recurrence:
    """One :func:`lstm_sequence` forward, keeping what BPTT needs if asked.

    Arrays are time-major (``[T, B, ...]``); gates use the layout
    ``[input, forget, cell, output]`` along the last axis.  The state is
    one stacked ``[2, B, H]`` array, ``h`` then ``c``, so the SRNN noise
    renormalizes both with one call.  Every buffer has ``x``'s dtype (the
    inputs share one, see :func:`_check_inputs`).

    With ``bptt`` each step's input state, ``tanh(c)`` and renormalization
    factors are kept for :meth:`backward`.  Without it nothing per step is
    kept: the state is renormalized in place and ``tanh(c)`` is written
    into ``h`` before ``h *= o``, which gives the same bits.
    """

    def __init__(self, x, weight_ih, weight_hh, bias, h0, c0, noise: Optional[SRNNNoise], bptt=True):
        batch, steps, n_in = x.shape
        hidden = weight_hh.shape[1]
        self.noise = noise
        self.weight_ih = weight_ih
        self.weight_hh = weight_hh
        self.x = np.ascontiguousarray(x.transpose(1, 0, 2))
        # The input projection is one matmul for all steps; the recurrent
        # weight is transposed into a contiguous array once per call (a
        # transposed view makes every step's matmul about 2.5x slower).
        gates = self.x.reshape(steps * batch, n_in) @ weight_ih.T
        gates = gates.reshape(steps, batch, 4 * hidden)
        gates += bias
        w_hh_t = np.ascontiguousarray(weight_hh.T)
        dtype = x.dtype
        if bptt:
            # Each step's input state: [0] is h_in [T, B, H], [1] is c_in.
            self.state_in = np.empty((2, steps, batch, hidden), dtype)
            self.tanh_c = np.empty((steps, batch, hidden), dtype)
            self.renorm: List[tuple] = []
        self.hs = np.empty((steps, batch, hidden), dtype)
        state = np.stack([h0, c0])
        h, c = state
        if noise is not None:
            # Per step, one float64 [2, B, H] draw (h's noise, then c's),
            # cast into the compute dtype: the stream and the values of one
            # up-front uniform(0, 1, size=(T, 2, B, H)) draw.
            draw = np.empty((2, batch, hidden))
            uniform = draw if dtype == draw.dtype else np.empty_like(draw, dtype)
            intensity = np.array([noise.intensity_h, noise.intensity_c], dtype)[:, None, None]
        for t in range(steps):
            state_in = self.state_in[:, t] if bptt else state
            if noise is not None:
                noise.rng.random(out=draw)
                if uniform is not draw:
                    uniform[...] = draw
                renorm = _renormalize(state, uniform, intensity, state_in)
                if bptt:
                    self.renorm.append(renorm)
            elif bptt:
                state_in[...] = state
            h_in, c_in = state_in
            z = gates[t]
            z += h_in @ w_hh_t
            cell_gate = np.tanh(z[:, 2 * hidden : 3 * hidden])
            _sigmoid_(z)
            z[:, 2 * hidden : 3 * hidden] = cell_gate
            np.multiply(z[:, hidden : 2 * hidden], c_in, out=c)
            c += z[:, :hidden] * cell_gate
            tanh_c = self.tanh_c[t] if bptt else h
            np.tanh(c, out=tanh_c)
            np.multiply(z[:, 3 * hidden :], tanh_c, out=h)
            self.hs[t] = h
        self.gates = gates  # activations now, no longer pre-activations
        self.c_last = c

    def backward(self, d_hs, d_h, d_c, needs):
        """Gradients of ``(x, weight_ih, weight_hh, bias, h0, c0)``.

        ``d_hs`` is the gradient of the ``[B, T, H]`` output and ``d_h``,
        ``d_c`` those of the final state (any may be None).  ``needs`` flags
        the inputs whose gradient is wanted; the others come back as None.
        """
        steps, batch, hidden = self.hs.shape
        dtype = self.hs.dtype
        h_in, c_in = self.state_in
        i, f, g, o = (self.gates[..., k * hidden : (k + 1) * hidden] for k in range(4))
        # Per-step factors that do not depend on the incoming gradient,
        # computed for all steps at once: d gates = d_c * k[i, f, g] and
        # d_h * k[o]; d_c picks up d_h * k_c.
        k_gates = np.empty((steps, batch, 4, hidden), dtype)
        np.multiply(g, i * (1.0 - i), out=k_gates[:, :, 0])
        np.multiply(c_in, f * (1.0 - f), out=k_gates[:, :, 1])
        np.multiply(i, 1.0 - g * g, out=k_gates[:, :, 2])
        np.multiply(self.tanh_c, o * (1.0 - o), out=k_gates[:, :, 3])
        k_c = o * (1.0 - self.tanh_c * self.tanh_c)
        d_out = None if d_hs is None else d_hs.transpose(1, 0, 2)
        # The stacked [d_h, d_c]; each step updates its d_h and d_c views.
        d_state = np.zeros((2, batch, hidden), dtype)
        if d_h is not None:
            d_state[0] = d_h
        if d_c is not None:
            d_state[1] = d_c
        d_gates = np.empty((steps, batch, 4, hidden), dtype)
        for t in range(steps - 1, -1, -1):
            d_h, d_c = d_state
            if d_out is not None:
                d_h += d_out[t]
            d_c += d_h * k_c[t]
            np.multiply(d_c[:, None, :], k_gates[t, :, :3], out=d_gates[t, :, :3])
            np.multiply(d_h, k_gates[t, :, 3], out=d_gates[t, :, 3])
            d_c *= f[t]
            np.matmul(d_gates[t].reshape(batch, 4 * hidden), self.weight_hh, out=d_h)
            if self.noise is not None:
                d_state = _unrenormalize(d_state, *self.renorm[t])
        flat = d_gates.reshape(steps * batch, 4 * hidden)
        d_x = d_w_ih = d_w_hh = d_bias = None
        if needs[0]:
            d_x = (flat @ self.weight_ih).reshape(steps, batch, -1).transpose(1, 0, 2)
        if needs[1]:
            d_w_ih = flat.T @ self.x.reshape(steps * batch, -1)
        if needs[2]:
            d_w_hh = flat.T @ h_in.reshape(steps * batch, hidden)
        if needs[3]:
            d_bias = flat.sum(axis=0)
        return d_x, d_w_ih, d_w_hh, d_bias, d_state[0], d_state[1]


def _check_inputs(x, weight_ih, weight_hh, bias, h0, c0) -> None:
    """Raise ValueError naming the first :func:`lstm_sequence` input that does not fit.

    The inputs must fit ``x`` and ``weight_hh`` in shape and share ``x``'s
    dtype, so a stray float64 array cannot silently promote a float32 run.
    """
    if x.ndim != 3 or weight_hh.ndim != 2:
        raise ValueError(
            f"lstm_sequence: x must be [B, T, I] and weight_hh [4H, H], "
            f"got x {list(x.shape)} and weight_hh {list(weight_hh.shape)}"
        )
    batch, _, n_in = x.shape
    hidden = weight_hh.shape[1]
    expected = {
        "weight_ih": (weight_ih, (4 * hidden, n_in)),
        "weight_hh": (weight_hh, (4 * hidden, hidden)),
        "bias": (bias, (4 * hidden,)),
        "h0": (h0, (batch, hidden)),
        "c0": (c0, (batch, hidden)),
    }
    for name, (value, want) in expected.items():
        if value.shape != want:
            raise ValueError(
                f"lstm_sequence: {name} has shape {list(value.shape)}, expected "
                f"{list(want)} for x {list(x.shape)} and hidden size {hidden}"
            )
    for name, (value, _) in expected.items():
        if value.dtype != x.dtype:
            raise ValueError(
                f"lstm_sequence: {name} is {value.dtype}, but x is {x.dtype}; "
                f"all six inputs must share one dtype"
            )


def lstm_sequence(
    x,
    weight_ih,
    weight_hh,
    bias,
    h0,
    c0,
    noise: Optional[SRNNNoise] = None,
) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
    """Run an LSTM over a whole sequence as one differentiable op.

    Args:
        x: inputs ``[B, T, I]``.
        weight_ih: ``[4H, I]``, weight_hh: ``[4H, H]``, bias: ``[4H]``, with
            gates ``[input, forget, cell, output]`` along the first axis.
        h0, c0: initial state, each ``[B, H]``.
        noise: SRNN state noise, or None for a plain LSTM.  With noise,
            each step makes one ``noise.rng.random`` draw of ``[2, B, H]``
            float64 values before it runs, ``h``'s noise then ``c``'s: the
            same stream as one ``[B, H]`` ``uniform(0, 1)`` draw for ``h``
            and then one for ``c`` before every step.

    Returns:
        ``(hs, (h, c))``: the hidden state at every step ``[B, T, H]`` and
        the final state.  Gradients flow from all three to all six inputs.
        The per-step buffers BPTT needs are kept only when a gradient is
        wanted (grad mode on and some input requires grad); under
        :class:`repro.nn.no_grad` the forward keeps none, with the same
        outputs and draws.

    Raises:
        ValueError: an input's shape does not fit ``x`` and ``weight_hh``,
            or its dtype is not ``x``'s; the message names the input (e.g.
            ``weight_ih``).
    """
    inputs = tuple(Tensor._coerce(v) for v in (x, weight_ih, weight_hh, bias, h0, c0))
    _check_inputs(*(v.data for v in inputs))
    bptt = is_grad_enabled() and any(v.requires_grad for v in inputs)
    run = _Recurrence(*(v.data for v in inputs), noise, bptt)
    final_grads = {}

    def backward(grad: np.ndarray) -> None:
        needs = [v.requires_grad for v in inputs]
        grads = run.backward(grad, final_grads.pop("h", None), final_grads.pop("c", None), needs)
        for tensor, need, value in zip(inputs, needs, grads):
            if need:
                tensor._accumulate(value)

    hs = inputs[0]._make(np.ascontiguousarray(run.hs.transpose(1, 0, 2)), inputs, backward)

    def final_backward(key: str):
        def store(grad: np.ndarray) -> None:
            final_grads[key] = grad
            if hs.grad is None:  # make sure the sequence node still runs BPTT
                hs.grad = np.zeros_like(hs.data)

        return store

    h = hs._make(run.hs[-1].copy(), (hs,), final_backward("h"))
    c = hs._make(run.c_last, (hs,), final_backward("c"))
    return hs, (h, c)


@contract(
    inputs={
        "x": Spec("B", "I"),
        "state": (Spec("B", "H"), Spec("B", "H")),
    },
    outputs=(Spec("B", "H"), Spec("B", "H")),
    dims={"I": "input_size", "H": "hidden_size"},
)
class LSTMCell(Module):
    """Single LSTM cell with fused gate weights: :func:`lstm_sequence` with T=1.

    Gate layout along the output dimension is ``[input, forget, cell, output]``.
    The forget-gate bias is initialized to 1, the standard trick to ease
    gradient flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=0
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """Advance one step: ``x`` is ``[B, input_size]``; returns ``(h, c)``."""
        h_prev, c_prev = state
        step = x.reshape(x.shape[0], 1, self.input_size)
        _, (h, c) = lstm_sequence(step, self.weight_ih, self.weight_hh, self.bias, h_prev, c_prev)
        return h, c

    def zero_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        """Zero ``(h, c)``, each [batch_size, hidden_size], in the weights' dtype."""
        zeros = np.zeros((batch_size, self.hidden_size), self.weight_hh.data.dtype)
        return Tensor(zeros), Tensor(zeros.copy())


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=(Spec("B", "T", "H"), (Spec("B", "H"), Spec("B", "H"))),
    dims={"I": "input_size", "H": "hidden_size"},
)
class LSTM(Module):
    """Unidirectional single-layer LSTM over a full sequence.

    Input is ``[B, T, input_size]``, starting from the zero state; output
    is ``[B, T, hidden_size]`` (the hidden state at every step) plus the
    final ``(h, c)``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        cell = self.cell
        h, c = cell.zero_state(x.shape[0])
        return lstm_sequence(x, cell.weight_ih, cell.weight_hh, cell.bias, h, c)
