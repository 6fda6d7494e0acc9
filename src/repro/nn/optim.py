"""Gradient-descent optimizers for the numpy NN engine, and the MSE fit loop."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .losses import mse_loss
from .module import Module, Parameter
from .tensor import Tensor

#: Rows per minibatch in :func:`fit_mse`.
MSE_MINIBATCH = 256

#: Adam's moment decay rates and denominator epsilon (Kingma & Ba defaults).
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization (used by the runtime checkpoint/guard layer).
    # Slot arrays are keyed by the parameter's *index* in ``self.params``
    # (id() keys don't survive a process boundary); the order of
    # ``Module.parameters()`` is deterministic, so index keying is stable.
    # Slots load in their parameter's dtype.
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"lr": np.array([self.lr])}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if "lr" in state:
            self.lr = float(np.asarray(state["lr"]).ravel()[0])

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm."""
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float(np.sum(param.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the default for all GenDT training."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = ADAM_BETAS
        self.eps = ADAM_EPS
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state["t"] = np.array([self._t], dtype=np.int64)
        for i, param in enumerate(self.params):
            m = self._m.get(id(param))
            if m is not None:
                state[f"m.{i}"] = m.copy()
                state[f"v.{i}"] = self._v[id(param)].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._t = int(np.asarray(state["t"]).ravel()[0]) if "t" in state else 0
        self._m.clear()
        self._v.clear()
        for i, param in enumerate(self.params):
            if f"m.{i}" in state:
                self._m[id(param)] = np.array(state[f"m.{i}"], dtype=param.data.dtype)
                self._v[id(param)] = np.array(state[f"v.{i}"], dtype=param.data.dtype)


def fit_mse(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
) -> None:
    """Fit a row-wise regressor by Adam on the MSE over shuffled minibatches.

    Each epoch draws one permutation of the rows of ``x``/``y`` from ``rng``
    and takes one step per ``MSE_MINIBATCH`` rows of it.
    """
    optimizer = Adam(model.parameters(), lr=lr)
    n = len(x)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, MSE_MINIBATCH):
            idx = order[start : start + MSE_MINIBATCH]
            loss = mse_loss(model(Tensor(x[idx])), Tensor(y[idx]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
