"""Optimizers and loss functions."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def quadratic_problem():
    """Minimize ||w - target||^2; any sane optimizer converges."""
    target = np.array([1.0, -2.0, 3.0])
    w = nn.Parameter(np.zeros(3))

    def loss_fn():
        diff = w - Tensor(target)
        return (diff * diff).sum()

    return w, target, loss_fn


class TestAdam:
    def test_converges_on_quadratic(self):
        w, target, loss_fn = quadratic_problem()
        opt = nn.Adam([w], lr=0.1)
        for _ in range(200):
            loss = loss_fn()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([nn.Parameter(np.ones(1))], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_grad_clipping(self):
        w = nn.Parameter(np.zeros(4))
        opt = nn.Adam([w], lr=0.1)
        w.grad = np.full(4, 100.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)

    def test_clip_noop_when_small(self):
        w = nn.Parameter(np.zeros(2))
        opt = nn.Adam([w], lr=0.1)
        w.grad = np.array([0.1, 0.1])
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(w.grad, [0.1, 0.1])


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 0.0]))
        assert nn.mse_loss(pred, target).item() == pytest.approx(2.5)

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([-2.0, 0.0, 3.0])
        for label in (0.0, 1.0):
            got = nn.bce_with_logits(Tensor(logits), label).item()
            p = 1 / (1 + np.exp(-logits))
            expected = -(label * np.log(p) + (1 - label) * np.log(1 - p)).mean()
            assert got == pytest.approx(expected, rel=1e-6)

    def test_bce_stable_at_extreme_logits(self):
        loss = nn.bce_with_logits(Tensor(np.array([1e3, -1e3])), 1.0)
        assert np.isfinite(loss.item())

    def test_discriminator_loss_at_optimum(self):
        # Perfect discrimination (logits +/- inf-ish) -> loss near 0.
        loss = nn.discriminator_loss(
            Tensor(np.array([20.0])), Tensor(np.array([-20.0]))
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_generator_loss_decreases_with_fooling(self):
        weak = nn.generator_adversarial_loss(Tensor(np.array([-5.0]))).item()
        strong = nn.generator_adversarial_loss(Tensor(np.array([5.0]))).item()
        assert strong < weak

    def test_gaussian_nll_minimized_at_true_params(self):
        rng = np.random.default_rng(0)
        data = rng.normal(2.0, 0.5, size=1000)
        target = Tensor(data)

        def nll(mu, log_sigma):
            return nn.gaussian_nll(
                Tensor(np.full(1000, mu)), Tensor(np.full(1000, log_sigma)), target
            ).item()

        at_truth = nll(2.0, np.log(0.5))
        assert at_truth < nll(0.0, np.log(0.5))
        assert at_truth < nll(2.0, np.log(2.0))
        assert at_truth < nll(2.0, np.log(0.1))
