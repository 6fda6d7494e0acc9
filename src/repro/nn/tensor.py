"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, a small tape-based autodiff
engine sufficient to train the LSTM/GNN/GAN models used by GenDT.  It exists
because the reproduction environment has no deep-learning framework
installed; the design deliberately mirrors the subset of the PyTorch tensor
API that the rest of the code base needs (``matmul``, ``sigmoid``, ``tanh``,
reductions, indexing, concatenation) so the model code reads conventionally.

Ops follow their input's dtype: a tensor keeps a float32 or float64 array's
dtype (anything else becomes float64), and a Python scalar operand takes the
tensor's dtype, as numpy's own scalars do.  GenDT computes in float32; the
baselines and the gradient checks in float64, through the same code.

Gradients flow through a dynamically-recorded DAG.  Calling
:meth:`Tensor.backward` topologically sorts the graph reachable from the
output and accumulates ``.grad`` arrays on every tensor created with
``requires_grad=True``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .anomaly import STATE as _anomaly
from .anomaly import check_backward as _anomaly_check_backward
from .anomaly import note_forward as _anomaly_note_forward

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Array dtypes a Tensor keeps; any other data becomes float64.
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether ops record a graph now (False inside :class:`no_grad`)."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing: ints, slices, ``...``, None."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, (bool, np.bool_)))
        for item in items
    )


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_anomaly_ctx")

    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        keep = isinstance(data, (np.ndarray, np.generic)) and data.dtype in FLOAT_DTYPES
        self.data = np.asarray(data) if keep else np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_tag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a detached view)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _operand(self, value: ArrayLike) -> "Tensor":
        """``value`` as the other operand of an op: a Python scalar takes this tensor's dtype."""
        if isinstance(value, (int, float)):
            return Tensor(np.asarray(value, dtype=self.data.dtype))
        return self._coerce(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if _anomaly.enabled:
            _anomaly_note_forward(out, out.data)
        if requires:
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, which keeps this tensor's dtype."""
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                    self._accumulate(_unbroadcast(np.asarray(g), self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad) if grad.ndim == 1 else self.data[..., None] @ grad[..., None, :]
                    other._accumulate(_unbroadcast(np.asarray(g), other.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data.clip(-60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype, copy=False)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * scale)

        return self._make(self.data * scale, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data.clip(lo, hi), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, int):
            count = self.shape[axis]
        else:
            count = int(np.prod([self.shape[a] for a in axis]))
        return self.sum(axis=axis) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(old_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes_tuple: Optional[Tuple[int, ...]] = None
            out_data = self.data.T
        else:
            axes_tuple = tuple(axes)
            out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_tuple is None:
                self._accumulate(grad.T)
            else:
                self._accumulate(grad.transpose(np.argsort(axes_tuple)))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if _is_basic_index(index):
                # A basic index selects each position at most once, so a
                # slice assignment into the gradient is exact.
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[index] += grad
            else:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Release each node's closure and parents as soon as its backward has
        # run, so what a closure holds (an LSTM's BPTT buffers) is freed
        # before the ops upstream of it allocate.  Leaf grads are kept.
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if _anomaly.enabled:
                    _anomaly_check_backward(node)
                if node._parents:
                    node.grad = None
            node._backward = None
            node._parents = ()


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    proto = tensors[0]
    return proto._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    proto = tensors[0]
    return proto._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select with gradient flowing to both branches."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    return a._make(out_data, (a, b), backward)
