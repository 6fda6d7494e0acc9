"""Numpy-based neural network substrate for the GenDT reproduction.

The deployment environment for this reproduction has no deep-learning
framework available, so :mod:`repro.nn` implements the minimal stack GenDT
needs: a reverse-mode autodiff tensor, module containers, linear/LSTM layers,
dropout (with MC-dropout support), Adam, the GAN/MSE/Gaussian losses, and
:func:`fit_mse`, the one minibatch MSE fit loop of the row-wise regressors.
"""

from .tensor import Tensor, concat, no_grad, stack
from .anomaly import NumericalAnomalyError, detect_anomaly, is_anomaly_enabled
from .module import Module, Parameter
from .layers import MLP, Dropout, LeakyReLU, Linear, Sequential
from .lstm import LSTM, SRNNNoise, lstm_sequence
from .optim import Adam, Optimizer, fit_mse
from .losses import (
    bce_with_logits,
    discriminator_loss,
    gaussian_nll,
    generator_adversarial_loss,
    mse_loss,
)
from . import init

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "detect_anomaly",
    "is_anomaly_enabled",
    "NumericalAnomalyError",
    "Module",
    "Parameter",
    "Linear",
    "LeakyReLU",
    "Dropout",
    "Sequential",
    "MLP",
    "LSTM",
    "SRNNNoise",
    "lstm_sequence",
    "Optimizer",
    "Adam",
    "fit_mse",
    "mse_loss",
    "bce_with_logits",
    "discriminator_loss",
    "generator_adversarial_loss",
    "gaussian_nll",
    "init",
]
