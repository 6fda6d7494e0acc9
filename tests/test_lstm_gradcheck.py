"""Numerical gradient checks through recurrent structures.

The elementwise ops are grad-checked in test_nn_tensor; these tests verify
the recurrent structures (the LSTM cell's gate weights through ``nn.LSTM``,
and a stochastic ``nn.LSTM`` with its noise off, both on the fused
``lstm_sequence`` op, and masked mean-pooling) against finite differences —
the structures GenDT's training actually differentiates through.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def numerical_grad_param(loss_fn, param, eps=1e-6):
    grad = np.zeros_like(param.data)
    for idx in np.ndindex(*param.data.shape):
        original = param.data[idx]
        param.data[idx] = original + eps
        up = loss_fn()
        param.data[idx] = original - eps
        down = loss_fn()
        param.data[idx] = original
        grad[idx] = (up - down) / (2 * eps)
    return grad


class TestLSTMCellGradients:
    """The cell's gate weights, differentiated through ``nn.LSTM``."""

    def test_weight_ih_grad(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 3, rng)
        x = rng.normal(size=(2, 2))
        sequence = np.stack([x, x * 0.5], axis=1)

        def last_h_loss():
            h = lstm(Tensor(sequence))[:, -1, :]
            return (h * h).sum()

        lstm.zero_grad()
        last_h_loss().backward()
        numeric = numerical_grad_param(lambda: last_h_loss().item(), lstm.weight_ih)
        np.testing.assert_allclose(lstm.weight_ih.grad, numeric, atol=1e-5)

    def test_bias_grad(self):
        rng = np.random.default_rng(1)
        lstm = nn.LSTM(2, 3, rng)
        x = rng.normal(size=(1, 1, 2))

        lstm.zero_grad()
        lstm(Tensor(x)).sum().backward()
        numeric = numerical_grad_param(lambda: lstm(Tensor(x)).sum().item(), lstm.bias)
        np.testing.assert_allclose(lstm.bias.grad, numeric, atol=1e-5)


class TestStochasticLSTMGradients:
    """An SRNN ``nn.LSTM`` called without an ``rng``, so without noise."""

    def test_gradcheck_with_noise_disabled(self):
        rng = np.random.default_rng(2)
        lstm = nn.LSTM(2, 3, rng, srnn=(2.0, 2.0))
        x = rng.normal(size=(1, 4, 2))

        def loss_fn():
            out = lstm(Tensor(x))
            return (out * out).mean().item()

        lstm.zero_grad()
        out = lstm(Tensor(x))
        (out * out).mean().backward()
        param = lstm.weight_hh
        numeric = numerical_grad_param(loss_fn, param)
        np.testing.assert_allclose(param.grad, numeric, atol=1e-5)


class TestMaskedMeanGradients:
    def test_masked_pool_grad_matches_manual(self):
        # The h_avg computation: masked sum over cells / count.
        rng = np.random.default_rng(3)
        h = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)  # [B,N,L,H]
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        counts = np.maximum(mask.sum(axis=1), 1.0)[:, None, None]
        pooled = (h * Tensor(mask[:, :, None, None])).sum(axis=1) * Tensor(1.0 / counts)
        pooled.sum().backward()
        # Each unmasked cell's grad = 1/count; masked cells get zero.
        np.testing.assert_allclose(h.grad[0, 0], 0.5)
        np.testing.assert_allclose(h.grad[0, 2], 0.0)
        np.testing.assert_allclose(h.grad[1, 0], 1.0)
        np.testing.assert_allclose(h.grad[1, 1], 0.0)


class TestResGenGradients:
    def test_gains_head_gradient_flows(self):
        from repro.core import small_config
        from repro.core.networks import RESGEN_AR_WINDOW, ResGen

        rng = np.random.default_rng(4)
        config = small_config(hidden_size=8)
        resgen = ResGen(26, 2, config, rng)
        resgen.eval()  # dropout off for determinism
        env = Tensor(np.ones((3, 26)))
        recent = Tensor(rng.normal(size=(3, RESGEN_AR_WINDOW * 2)))
        residual, mu, log_sigma = resgen.sample(env, recent)
        (residual * residual).mean().backward()
        grads = [p.grad for _, p in resgen.named_parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)
