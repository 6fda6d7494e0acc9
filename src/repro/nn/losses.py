"""Loss functions used across GenDT training and the baselines."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, the paper's L_M term (equivalent to L2 for fixed L)."""
    diff = pred - target
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, target: float) -> Tensor:
    """Numerically stable binary cross-entropy against a constant label.

    Using ``max(x,0) - x*y + log(1 + exp(-|x|))``.  ``target`` is the scalar
    label (1.0 for real, 0.0 for fake) applied to every element.
    """
    relu_part = logits.relu()
    abs_part = logits.abs()
    log_part = ((-abs_part).exp() + 1.0).log()
    return (relu_part - logits * target + log_part).mean()


def discriminator_loss(real_logits: Tensor, fake_logits: Tensor) -> Tensor:
    """Standard GAN (Jensen-Shannon) discriminator loss."""
    return bce_with_logits(real_logits, 1.0) + bce_with_logits(fake_logits, 0.0)


def generator_adversarial_loss(fake_logits: Tensor) -> Tensor:
    """Non-saturating generator loss: maximize log D(G(z))."""
    return bce_with_logits(fake_logits, 1.0)


def gaussian_nll(mu: Tensor, log_sigma: Tensor, target: Tensor) -> Tensor:
    """Negative log-likelihood of ``target`` under N(mu, exp(log_sigma)^2).

    Used to fit ResGen's parametric Gaussian observation head.
    """
    log_sigma = log_sigma.clip(-7.0, 7.0)
    inv_var = (log_sigma * -2.0).exp()
    diff = target - mu
    return (log_sigma + 0.5 * diff * diff * inv_var).mean() + 0.5 * float(np.log(2 * np.pi))
