"""The LSTM module, built on one fused recurrent op.

:func:`lstm_sequence` runs a whole LSTM recurrence from the zero state as a
single autodiff node: a numpy forward loop that keeps each step's gates, and
a hand-written backward pass through time (BPTT).  :class:`LSTM` is the one
module over it.  Plain, it is the discriminator's LSTM and the LSTM-GNN and
DoppelGANger baselines'.  Built with ``srnn=(a_h, a_c)``, it is GenDT's
stochastic layer (SRNN, paper §4.3.4 and §A.2), which passes
:class:`SRNNNoise` to the op.
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


def _sigmoid_(z: np.ndarray, floor: np.ndarray, one: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid, with ``Tensor.sigmoid``'s bits.

    ``Tensor.sigmoid`` clips its input to [-60, 60]; only the floor can
    change a result, because ``1 + exp(-60)`` already rounds to 1 in
    float32 and in float64, so the ceiling is left out.  ``floor`` and
    ``one`` are -60 and 1 as 0-d arrays in ``z``'s dtype: the values NEP 50
    makes of the Python floats, without converting one on every call.
    """
    np.maximum(z, floor, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += one
    return np.divide(one, z, out=z)


class _Renormalizer:
    """The SRNN noise of one :func:`lstm_sequence` call, one step per call.

    Each call makes one float64 ``[2, B, H]`` draw (``h``'s noise, then
    ``c``'s) and writes the perturbed stacked ``[h, c]`` state into
    ``out``.  Every op is elementwise or a reduction over ``H``, so each
    state gets the bits it would get alone.  The draw is cast to the
    state's dtype inside the multiply by the amplitude, which rounds it as
    ``astype`` does, and each constant is a 0-d array in that dtype.  With
    ``keep`` every call returns fresh arrays, which BPTT keeps; without it
    the call reuses one set of buffers.
    """

    def __init__(self, noise: SRNNNoise, batch: int, hidden: int, dtype, keep: bool) -> None:
        self.rng = noise.rng
        self.draw = np.empty((2, batch, hidden))
        self.intensity = np.array([noise.intensity_h, noise.intensity_c], dtype)[:, None, None]
        self.width, self.tiny, self.one = (np.array(v, dtype) for v in (hidden, 1e-6, 1.0))
        self.shape, self.dtype, self.keep = (2, batch, hidden), dtype, keep
        self.buffers = None if keep else self._buffers()

    def _buffers(self):
        """``noisy`` [2, B, H]; the row sums, the scale, the denominator and a mask, [2, B, 1]."""
        sums = (2, self.shape[1], 1)
        return (np.empty(self.shape, self.dtype), np.empty(sums, self.dtype),
                np.empty(sums, self.dtype), np.empty(sums, self.dtype), np.empty(sums, bool))

    def __call__(self, state: np.ndarray, out: np.ndarray):
        """Perturb ``state`` into ``out``; returns ``(noisy, scale, denom)`` for the gradient.

        ``s' = (s + a * u * mean(s)) * sum(s) / sum(s + a * u * mean(s))``,
        with the denominator replaced by 1 where it is below 1e-6 in size.
        """
        self.rng.random(out=self.draw)
        noisy, row_sum, scale, denom, tiny = self._buffers() if self.keep else self.buffers
        np.add.reduce(state, axis=-1, keepdims=True, out=row_sum)
        np.divide(row_sum, self.width, out=scale)  # the same bits as ``mean``
        np.multiply(self.draw, scale, out=noisy, dtype=self.dtype)
        noisy *= self.intensity
        noisy += state
        np.add.reduce(noisy, axis=-1, keepdims=True, out=denom)
        np.absolute(denom, out=scale)
        np.less(scale, self.tiny, out=tiny)
        np.copyto(denom, self.one, where=tiny)
        np.divide(row_sum, denom, out=scale)
        np.multiply(noisy, scale, out=out)
        return noisy, scale, denom


def _unrenormalize(grad: np.ndarray, noisy: np.ndarray, scale: np.ndarray, denom: np.ndarray):
    """Gradient of the :class:`_Renormalizer` step w.r.t. its input state."""
    return grad * scale + np.add.reduce(grad * noisy, axis=-1, keepdims=True) / denom


class _Recurrence:
    """One :func:`lstm_sequence` forward, keeping what BPTT needs if asked.

    Arrays are time-major (``[T, B, ...]``); gates use the layout
    ``[input, forget, cell, output]`` along the last axis.  The state is
    one stacked ``[2, B, H]`` array, ``h`` then ``c``, so the SRNN noise
    renormalizes both with one call.  Every buffer has ``x``'s dtype (the
    inputs share one, see :func:`_check_inputs`).

    With ``bptt`` each step's input state, ``tanh(c)`` and renormalization
    factors are kept for :meth:`backward`, and the gates become their
    activations.  Without it nothing per step is kept: the state is
    renormalized in place, ``tanh(c)`` is written into ``h`` before
    ``h *= o``, which gives the same bits, and the cell gate's ``tanh``
    stays in its step buffer.  Either way every product a step makes is
    written into a buffer allocated once per call, and the per-gate views
    of all steps are made once.  ``hs`` is a ``[T, B, H]`` view of the
    ``[B, T, H]`` output, which each step writes into directly.
    """

    def __init__(self, x, weight_ih, weight_hh, bias, noise: Optional[SRNNNoise], bptt=True):
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
        self.hs = np.empty((batch, steps, hidden), dtype).transpose(1, 0, 2)
        state = np.zeros((2, batch, hidden), dtype)
        h, c = state
        if noise is not None:
            renormalize = _Renormalizer(noise, batch, hidden, dtype, keep=bptt)
        in_gate, forget, cell, out_gate = (
            gates[:, :, k * hidden : (k + 1) * hidden] for k in range(4)
        )
        recurrent = np.empty((batch, 4 * hidden), dtype)  # h_in @ W_hh.T
        cell_gate = np.empty((batch, hidden), dtype)  # tanh, then times the input gate
        floor, one = np.array(-60.0, dtype), np.array(1.0, dtype)
        state_in, tanh_c = state, h  # without BPTT, the step works in place
        h_in, c_in = state_in
        steps = zip(gates, in_gate, forget, cell, out_gate, self.hs)
        for t, (z, z_in, z_forget, z_cell, z_out, hs_t) in enumerate(steps):
            if bptt:
                state_in, tanh_c = self.state_in[:, t], self.tanh_c[t]
                h_in, c_in = state_in
            if noise is not None:
                renorm = renormalize(state, state_in)
                if bptt:
                    self.renorm.append(renorm)
            elif bptt:
                state_in[...] = state
            np.matmul(h_in, w_hh_t, out=recurrent)
            z += recurrent
            np.tanh(z_cell, out=cell_gate)
            _sigmoid_(z, floor, one)
            if bptt:
                z_cell[...] = cell_gate
            np.multiply(z_forget, c_in, out=c)
            np.multiply(z_in, cell_gate, out=cell_gate)
            c += cell_gate
            np.tanh(c, out=tanh_c)
            np.multiply(z_out, tanh_c, out=h)
            hs_t[...] = h
        self.gates = gates  # with BPTT, activations now, no longer pre-activations

    def backward(self, d_hs, needs):
        """Gradients of ``(x, weight_ih, weight_hh, bias)``.

        ``d_hs`` is the gradient of the ``[B, T, H]`` output.  ``needs``
        flags the inputs whose gradient is wanted; the others come back as
        None.  It can run once only: it overwrites what the forward kept,
        so beyond that it needs one ``[T, B, H]`` buffer while it builds
        the factors and no ``[T, B, 4H]`` one.
        """
        steps, batch, hidden = self.tanh_c.shape
        h_in, c_in = self.state_in
        # Per-step factors that do not depend on the incoming gradient,
        # computed for all steps at once: d gates = d_c * k[i, f, g] and
        # d_h * k[o]; d_c picks up d_h * k_c.  They are built over buffers
        # nothing reads again: k[i, f, g, o] over the gate activations and
        # k_c over tanh(c), while f, which the loop still reads, moves into
        # c_in's buffer.  Each product takes the loop reference's operands,
        # so the bits are the same.
        k_gates = self.gates.reshape(steps, batch, 4, hidden)
        i, f, g, o = (k_gates[:, :, k] for k in range(4))
        k_c = self.tanh_c
        # k[f] = c_in * f(1 - f), then f moves into c_in's buffer.
        spare = np.subtract(1.0, f)
        spare *= f
        spare *= c_in
        f_gate = c_in
        f_gate[...] = f
        f[...] = spare
        # k[i] = g * i(1 - i) and k[g] = i * (1 - g²) read each other's gate.
        np.subtract(1.0, i, out=spare)
        spare *= i
        spare *= g
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        i[...] = spare
        # k[o] = tanh(c) * o(1 - o) and k_c = o * (1 - tanh(c)²).
        np.subtract(1.0, o, out=spare)
        spare *= o
        spare *= k_c
        np.multiply(k_c, k_c, out=k_c)
        np.subtract(1.0, k_c, out=k_c)
        k_c *= o
        o[...] = spare
        del spare
        d_out = d_hs.transpose(1, 0, 2)
        # The stacked [d_h, d_c]; each step updates its d_h and d_c views.
        # Each step's gate gradients are written over its factors.
        d_state = np.zeros((2, batch, hidden), k_c.dtype)
        for t in range(steps - 1, -1, -1):
            d_h, d_c = d_state
            d_h += d_out[t]
            d_c += d_h * k_c[t]
            d_gates = k_gates[t]
            d_gates[:, :3] *= d_c[:, None, :]
            d_gates[:, 3] *= d_h
            d_c *= f_gate[t]
            np.matmul(d_gates.reshape(batch, 4 * hidden), self.weight_hh, out=d_h)
            if self.noise is not None:
                d_state = _unrenormalize(d_state, *self.renorm[t])
        flat = k_gates.reshape(steps * batch, 4 * hidden)
        d_x = d_w_ih = d_w_hh = d_bias = None
        if needs[0]:
            d_x = (flat @ self.weight_ih).reshape(steps, batch, -1).transpose(1, 0, 2)
        if needs[1]:
            d_w_ih = flat.T @ self.x.reshape(steps * batch, -1)
        if needs[2]:
            d_w_hh = flat.T @ h_in.reshape(steps * batch, hidden)
        if needs[3]:
            d_bias = flat.sum(axis=0)
        return d_x, d_w_ih, d_w_hh, d_bias


def _check_inputs(x, weight_ih, weight_hh, bias) -> None:
    """Raise ValueError naming the first :func:`lstm_sequence` input that does not fit.

    The inputs must fit ``x`` and ``weight_hh`` in shape and share ``x``'s
    dtype, so a stray float64 array cannot silently promote a float32 run.
    """
    if x.ndim != 3 or weight_hh.ndim != 2:
        raise ValueError(
            f"lstm_sequence: x must be [B, T, I] and weight_hh [4H, H], "
            f"got x {list(x.shape)} and weight_hh {list(weight_hh.shape)}"
        )
    n_in = x.shape[2]
    hidden = weight_hh.shape[1]
    expected = {
        "weight_ih": (weight_ih, (4 * hidden, n_in)),
        "weight_hh": (weight_hh, (4 * hidden, hidden)),
        "bias": (bias, (4 * hidden,)),
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
                f"all four inputs must share one dtype"
            )


def lstm_sequence(x, weight_ih, weight_hh, bias, noise: Optional[SRNNNoise] = None) -> Tensor:
    """Run an LSTM over a whole sequence, from the zero state, as one differentiable op.

    Args:
        x: inputs ``[B, T, I]``.
        weight_ih: ``[4H, I]``, weight_hh: ``[4H, H]``, bias: ``[4H]``, with
            gates ``[input, forget, cell, output]`` along the first axis.
        noise: SRNN state noise, or None for a plain LSTM.  With noise,
            each step makes one ``noise.rng.random`` draw of ``[2, B, H]``
            float64 values before it runs, ``h``'s noise then ``c``'s: the
            same stream as one ``[B, H]`` ``uniform(0, 1)`` draw for ``h``
            and then one for ``c`` before every step.

    Returns:
        ``hs``, the hidden state at every step ``[B, T, H]``.  Gradients
        flow from it to all four inputs.  The per-step buffers BPTT needs
        are kept only when a gradient is wanted (grad mode on and some
        input requires grad); under :class:`repro.nn.no_grad` the forward
        keeps none, with the same outputs and draws.

    Raises:
        ValueError: an input's shape does not fit ``x`` and ``weight_hh``,
            or its dtype is not ``x``'s; the message names the input (e.g.
            ``weight_ih``).
    """
    inputs = tuple(Tensor._coerce(v) for v in (x, weight_ih, weight_hh, bias))
    _check_inputs(*(v.data for v in inputs))
    bptt = is_grad_enabled() and any(v.requires_grad for v in inputs)
    run = _Recurrence(*(v.data for v in inputs), noise, bptt)

    def backward(grad: np.ndarray) -> None:
        needs = [v.requires_grad for v in inputs]
        for tensor, need, value in zip(inputs, needs, run.backward(grad, needs)):
            if need:
                tensor._accumulate(value)

    return inputs[0]._make(run.hs.transpose(1, 0, 2), inputs, backward)


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=Spec("B", "T", "H"),
    dims={"I": "input_size", "H": "hidden_size"},
)
class LSTM(Module):
    """Unidirectional single-layer LSTM over a full sequence, from the zero state.

    Input is ``[B, T, input_size]``; output is ``[B, T, hidden_size]``, the
    hidden state at every step.  Gate layout along the weights' first axis
    is ``[input, forget, cell, output]``; the forget-gate bias starts at 1,
    the standard trick to ease gradient flow early in training.

    With ``srnn=(intensity_h, intensity_c)`` this is GenDT's stochastic
    layer (paper §4.3.4 and §A.2): :meth:`forward` given an ``rng`` adds
    :class:`SRNNNoise` drawn from it to the state before every step.
    Without ``srnn`` (Table 12's "No SRNN" ablation) or without an ``rng``
    it is a plain LSTM and draws nothing.  Intensity 0 still draws the
    noise and adds none of it.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        srnn: Optional[Tuple[float, float]] = None,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.srnn = srnn
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=0
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        noise = None
        if self.srnn is not None and rng is not None:
            noise = SRNNNoise(rng, *self.srnn)
        return lstm_sequence(x, self.weight_ih, self.weight_hh, self.bias, noise)
