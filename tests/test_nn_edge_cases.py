"""Edge cases and failure injection for the nn engine."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, concat, stack


class TestNumericalRobustness:
    def test_log_of_tiny_values(self):
        t = Tensor(np.array([1e-300]))
        assert np.isfinite(t.log().numpy()).all()

    def test_division_by_small_grad(self):
        t = Tensor(np.array([1e-8]), requires_grad=True)
        (1.0 / t).backward()
        assert np.isfinite(t.grad).all()

    def test_gaussian_nll_clips_log_sigma(self):
        mu = Tensor(np.zeros(4))
        log_sigma = Tensor(np.full(4, -100.0))  # would explode unclipped
        target = Tensor(np.ones(4))
        loss = nn.gaussian_nll(mu, log_sigma, target)
        assert np.isfinite(loss.item())

    def test_empty_gradient_accumulation_roundtrip(self):
        # Multiple backward passes accumulate into leaf grads.
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).backward()
        (t * 3.0).backward()
        np.testing.assert_allclose(t.grad, [5.0])


class TestGraphMechanics:
    def test_no_grad_blocks_graph_inside_module(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(3, 2, rng)
        with nn.no_grad():
            out = layer(Tensor(np.ones((1, 3))))
        assert not out.requires_grad
        assert out._parents == ()

    def test_graph_released_after_backward(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        mid = t * 3.0
        out = mid * 4.0
        out.backward()
        # Intermediate nodes dropped their closures (memory hygiene).
        assert mid._backward is None
        assert out._parents == ()

    def test_shared_subexpression(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        shared = t * 2.0
        out = shared * shared  # d/dt (2t)^2 = 8t = 24
        out.backward()
        np.testing.assert_allclose(t.grad, [24.0])

    def test_concat_mixed_grad_flags(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)))  # constant
        out = concat([a, b], axis=1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        assert b.grad is None

    def test_stack_single_element(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = stack([a], axis=0)
        assert out.shape == (1, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))


class TestOptimizerEdgeCases:
    def test_adam_bias_correction_first_step(self):
        # After one step from zero state, Adam moves by ~lr regardless of
        # gradient magnitude (scale invariance).
        for scale in (1e-3, 1.0, 1e3):
            w = nn.Parameter(np.zeros(1))
            opt = nn.Adam([w], lr=0.1)
            w.grad = np.array([scale])
            opt.step()
            assert w.data[0] == pytest.approx(-0.1, rel=1e-4)

    def test_clip_with_all_none_grads(self):
        w = nn.Parameter(np.zeros(2))
        opt = nn.Adam([w], lr=0.1)
        assert opt.clip_grad_norm(1.0) == 0.0


class TestLSTMEdgeCases:
    def test_single_step_sequence(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 4, rng)
        out = lstm(Tensor(np.ones((1, 1, 2))))
        assert out.shape == (1, 1, 4)

    def test_large_batch(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 4, rng)
        out = lstm(Tensor(np.ones((64, 3, 2))))
        assert out.shape == (64, 3, 4)

    def test_state_not_shared_between_calls(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(1, 3, rng)
        x = Tensor(np.ones((1, 4, 1)))
        out1 = lstm(x)
        out2 = lstm(x)
        np.testing.assert_allclose(out1.numpy(), out2.numpy())
