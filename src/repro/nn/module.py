"""Module/Parameter abstractions for the numpy NN engine.

Mirrors the familiar container pattern: a :class:`Module` owns
:class:`Parameter` tensors and sub-modules, exposes recursive parameter
iteration, train/eval mode flags (used by dropout and the stochastic LSTM
layers), and flat state-dict serialization.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .anomaly import STATE as _anomaly
from .anomaly import NumericalAnomalyError, annotate_module
from .tensor import Tensor


# Module-call hook for graph verification (see repro.analysis.graph.trace).
# While installed, every Module.__call__ routes through the hook, which
# pushes the dotted module path, checks the module's @contract, and invokes
# forward() itself.  ``None`` outside a verification run.
_call_hook = None


def _set_call_hook(hook):
    """Install (or clear, with None) the call hook; returns the previous one."""
    global _call_hook
    previous = _call_hook
    _call_hook = hook
    return previous


class Parameter(Tensor):
    """A trainable tensor; always created with ``requires_grad=True``.

    Like :class:`Tensor`, it keeps a float32 or float64 array's dtype.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural network components."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute routing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    @contextlib.contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Within the block no parameter requires grad, so no gradient is computed for them.

        The ops run as before and gradients still flow through them to their
        other inputs, with the same bits; ``backward`` skips the parameters'
        own products.  Cover the forward and the ``backward`` that follows:
        a closure reads ``requires_grad`` when it runs.
        """
        params = [param for param in self.parameters() if param.requires_grad]
        for param in params:
            param.requires_grad = False
        try:
            yield self
        finally:
            for param in params:
                param.requires_grad = True

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place (rounding its values); returns self."""
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping from dotted parameter name to a copied array."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict` (strict).

        Values are cast to each parameter's current dtype, so a float64
        checkpoint loads into a float32 model and the other way round.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if _call_hook is not None:
            return _call_hook.call_module(self, args, kwargs)
        if not _anomaly.enabled:
            return self.forward(*args, **kwargs)
        try:
            return self.forward(*args, **kwargs)
        except NumericalAnomalyError as exc:
            # Build the innermost-first module path as the stack unwinds, so
            # the error reports *where in the model* the anomaly surfaced.
            annotate_module(exc, type(self).__name__)
            raise
