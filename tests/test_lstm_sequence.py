"""The fused ``lstm_sequence`` op against its composite-op reference.

``tests/lstm_reference.py`` builds the same recurrence step by step from
``Tensor`` ops (the engine's generic autodiff supplies its gradients).  The
fused op must give the same forward values, the same gradients for all four
inputs, and the same RNG draws, so swapping it in leaves training unchanged
up to rounding.
"""

import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.nn import NumericalAnomalyError, SRNNNoise, Tensor, detect_anomaly, lstm_sequence
from repro.nn.lstm import _Recurrence
from tests.lstm_reference import LoopRecurrence, cell_step, reference_lstm_sequence

SHAPES = [(3, 6, 4, 5), (1, 1, 2, 3), (5, 2, 7, 4)]  # (B, T, I, H)


def _arrays(batch, steps, n_in, hidden, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(batch, steps, n_in)),
        rng.normal(size=(4 * hidden, n_in)) * 0.4,
        rng.normal(size=(4 * hidden, hidden)) * 0.4,
        rng.normal(size=(4 * hidden,)) * 0.2,
    ]


def _run(fn, arrays, noise_seed, loss_on=("hs", "h")):
    """Forward + backward of ``fn``; returns (output, grads, rng state).

    The loss reads the whole output (``"hs"``), the last step's hidden
    state (``"h"``, what the discriminator reads), or both.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    noise = SRNNNoise(rng, 2.0, 1.5) if rng is not None else None
    hs = fn(*tensors, noise=noise)
    h = hs[:, -1, :]
    weights = np.random.default_rng(99)
    terms = {
        "hs": (hs * Tensor(weights.normal(size=hs.shape))).sum(),
        "h": (h * h).sum(),
    }
    loss = terms[loss_on[0]]
    for name in loss_on[1:]:
        loss = loss + terms[name]
    loss.backward()
    state = rng.bit_generator.state if rng is not None else None
    return hs.data, [t.grad for t in tensors], state


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("noise_seed", [None, 7])
class TestAgainstReference:
    def test_forward_matches(self, shape, noise_seed):
        fused, _, _ = _run(lstm_sequence, _arrays(*shape), noise_seed)
        reference, _, _ = _run(reference_lstm_sequence, _arrays(*shape), noise_seed)
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("loss_on", [("hs", "h"), ("hs",), ("h",)])
    def test_gradients_match(self, shape, noise_seed, loss_on):
        _, fused, _ = _run(lstm_sequence, _arrays(*shape), noise_seed, loss_on)
        _, reference, _ = _run(reference_lstm_sequence, _arrays(*shape), noise_seed, loss_on)
        for name, got, want in zip(["x", "W_ih", "W_hh", "bias"], fused, reference):
            assert got is not None, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=name)

    def test_rng_stream_matches(self, shape, noise_seed):
        _, _, fused = _run(lstm_sequence, _arrays(*shape), noise_seed)
        _, _, reference = _run(reference_lstm_sequence, _arrays(*shape), noise_seed)
        assert fused == reference


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 5, 42, 64])
@pytest.mark.parametrize("srnn", [False, True])
def test_recurrence_bit_equal_to_loop_reference(dtype, batch, srnn):
    """The op's array code against its per-state loop form: no tolerance.

    Forward output, all four gradients and the RNG state.
    """
    hidden, steps, n_in = 100, 20, 6
    arrays = [a.astype(dtype) for a in _arrays(batch, steps, n_in, hidden, seed=batch)]
    d_hs = np.random.default_rng(1).normal(size=(batch, steps, hidden)).astype(dtype)
    runs = []
    for recurrence in (_Recurrence, LoopRecurrence):
        rng = np.random.default_rng(8)
        noise = SRNNNoise(rng, 0.3, 0.7) if srnn else None
        run = recurrence(*[a.copy() for a in arrays], noise)
        runs.append((run.hs, run.backward(d_hs.copy(), [True] * 4), rng.bit_generator.state))
    (hs, grads, state), (ref_hs, ref_grads, ref_state) = runs
    assert np.isfinite(hs).all() and all(np.isfinite(g).all() for g in grads)
    assert hs.dtype == dtype and np.array_equal(hs, ref_hs)
    for name, got, want in zip(["x", "W_ih", "W_hh", "bias"], grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, want), name
    assert state == ref_state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 5, 42, 64])
@pytest.mark.parametrize("srnn", [False, True])
def test_no_grad_forward_bit_equal_to_loop_reference(dtype, batch, srnn):
    """The forward cases above, run under ``no_grad``, where the op keeps
    no BPTT buffers: the same output and RNG state."""
    hidden, steps, n_in = 100, 20, 6
    arrays = [a.astype(dtype) for a in _arrays(batch, steps, n_in, hidden, seed=batch)]
    rng = np.random.default_rng(8)
    ref = LoopRecurrence(*[a.copy() for a in arrays], SRNNNoise(rng, 0.3, 0.7) if srnn else None)
    ref_state = rng.bit_generator.state
    rng = np.random.default_rng(8)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with nn.no_grad():
        hs = lstm_sequence(*tensors, noise=SRNNNoise(rng, 0.3, 0.7) if srnn else None)
    assert hs.data.dtype == dtype and np.array_equal(hs.data, ref.hs.transpose(1, 0, 2))
    assert rng.bit_generator.state == ref_state


def test_no_grad_keeps_no_bptt_buffers():
    # State in, tanh(c) and the renormalization factors are 5 [T, B, H]
    # arrays under grad mode; under no_grad none is allocated.
    batch, steps, n_in, hidden = 8, 50, 6, 100
    tensors = [Tensor(a, requires_grad=True) for a in _arrays(batch, steps, n_in, hidden)]
    peaks = []
    for grad_on in (True, False):
        tracemalloc.start()
        with contextlib.nullcontext() if grad_on else nn.no_grad():
            lstm_sequence(*tensors, noise=SRNNNoise(np.random.default_rng(0), 2.0, 2.0))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    per_step_state = steps * batch * hidden * 8
    assert peaks[0] - peaks[1] >= 4 * per_step_state


def test_backward_frees_a_closure_before_the_ops_upstream_of_it_run():
    # A stand-in for the BPTT buffers of an op downstream of another (D's
    # LSTM after the generator's): only the downstream closure holds it.
    x = Tensor(np.ones(3), requires_grad=True)
    held_when_upstream_ran = []

    def upstream(grad):
        held_when_upstream_ran.append(buffer_ref() is not None)
        x._accumulate(grad)

    mid = x._make(x.data * 2.0, (x,), upstream)

    def downstream_op():
        buffer = np.ones(3)

        def backward(grad):
            mid._accumulate(grad * buffer)

        return mid._make(mid.data.sum(), (mid,), backward), weakref.ref(buffer)

    out, buffer_ref = downstream_op()
    assert buffer_ref() is not None
    out.backward()
    assert held_when_upstream_ran == [False]
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_needs_one_gate_buffer_less_than_the_loop_reference():
    # BPTT writes the gate gradients over the factors, which it builds over
    # the spent gate activations: the loop reference allocates both a
    # factor and a gradient [T, B, 4H] buffer besides them.
    batch, steps, n_in, hidden = 64, 50, 6, 100
    arrays = _arrays(batch, steps, n_in, hidden)
    d_hs = np.random.default_rng(1).normal(size=(batch, steps, hidden))
    peaks = []
    for recurrence in (_Recurrence, LoopRecurrence):
        run = recurrence(*arrays, SRNNNoise(np.random.default_rng(0), 2.0, 2.0))
        tracemalloc.start()
        run.backward(d_hs, [True] * 4)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    gate_buffer = steps * batch * 4 * hidden * d_hs.itemsize
    assert peaks[1] - peaks[0] >= gate_buffer


def test_only_inputs_that_require_grad_get_gradients():
    arrays = _arrays(2, 4, 3, 5)
    tensors = [Tensor(a) for a in arrays]
    tensors[1] = Tensor(arrays[1], requires_grad=True)
    lstm_sequence(*tensors).sum().backward()
    assert all(t.grad is None for k, t in enumerate(tensors) if k != 1)
    everything = [Tensor(a, requires_grad=True) for a in arrays]
    lstm_sequence(*everything).sum().backward()
    np.testing.assert_array_equal(tensors[1].grad, everything[1].grad)


def test_no_grad_builds_no_graph_and_draws_the_same_noise():
    arrays = _arrays(2, 5, 3, 4)
    states = []
    for grad_on in (True, False):
        rng = np.random.default_rng(3)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        if grad_on:
            hs = lstm_sequence(*tensors, noise=SRNNNoise(rng, 2.0, 2.0))
            assert hs.requires_grad
            want = hs.data
        else:
            with nn.no_grad():
                hs = lstm_sequence(*tensors, noise=SRNNNoise(rng, 2.0, 2.0))
            assert not hs.requires_grad
            np.testing.assert_array_equal(hs.data, want)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize(
    "index, name, bad_shape",
    [
        (1, "weight_ih", (20, 2)),
        (2, "weight_hh", (16, 5)),
        (3, "bias", (16,)),
    ],
)
def test_shape_mismatch_names_the_input(index, name, bad_shape):
    arrays = _arrays(2, 4, 3, 5)
    arrays[index] = np.zeros(bad_shape)
    with pytest.raises(ValueError, match=f"lstm_sequence: {name} has shape"):
        lstm_sequence(*[Tensor(a) for a in arrays])


def test_input_rank_is_checked():
    arrays = _arrays(2, 4, 3, 5)
    arrays[0] = arrays[0][:, 0]
    with pytest.raises(ValueError, match=r"x must be \[B, T, I\]"):
        lstm_sequence(*[Tensor(a) for a in arrays])


class TestModules:
    def test_stochastic_lstm_matches_reference(self):
        lstm = nn.LSTM(3, 6, np.random.default_rng(0), srnn=(2.0, 1.5))
        x = np.random.default_rng(1).normal(size=(4, 7, 3))
        rng = np.random.default_rng(5)
        out = lstm(Tensor(x), rng)
        noise = SRNNNoise(np.random.default_rng(5), 2.0, 1.5)
        ref = reference_lstm_sequence(
            Tensor(x), lstm.weight_ih, lstm.weight_hh, lstm.bias, noise=noise
        )
        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == noise.rng.bit_generator.state

    def test_lstm_matches_stepwise_reference(self):
        lstm = nn.LSTM(3, 5, np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(2, 6, 3))
        out = lstm(Tensor(x))
        ref_h, ref_c = Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))
        for t in range(6):
            ref_h, ref_c = cell_step(
                Tensor(x[:, t]), ref_h, ref_c, lstm.weight_ih, lstm.weight_hh, lstm.bias
            )
            np.testing.assert_allclose(out.data[:, t], ref_h.data, rtol=0, atol=1e-12)


class TestAnomaly:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: nn.LSTM(2, 3, rng),
            lambda rng: nn.LSTM(2, 3, rng, srnn=(2.0, 2.0)),
        ],
    )
    def test_nan_input_names_lstm_sequence(self, make):
        lstm = make(np.random.default_rng(0))
        x = np.ones((1, 4, 2))
        x[0, 2, 1] = np.nan
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as excinfo:
                lstm(Tensor(x), np.random.default_rng(1))
        err = excinfo.value
        assert err.op == "lstm_sequence"
        assert err.phase == "forward"
        assert type(lstm).__name__ in err.module_chain

    def test_nan_gradient_names_lstm_sequence(self):
        lstm = nn.LSTM(2, 3, np.random.default_rng(0))
        with detect_anomaly():
            out = lstm(Tensor(np.ones((1, 4, 2)), requires_grad=True))
            grad = np.zeros(out.shape)
            grad[0, 1, 2] = np.inf
            with pytest.raises(NumericalAnomalyError) as excinfo:
                out.backward(grad)
        assert excinfo.value.phase == "backward"
        assert excinfo.value.op == "lstm_sequence"
