"""Trace sessions: run a real module method on concrete probes, checking contracts.

A :class:`TraceSession` installs the *call hook* of :mod:`repro.nn.module`
for the duration of one verification run.  Every ``module(...)`` call is
then routed through :meth:`TraceSession.call_module`, which records the
dotted module path (for error messages), checks the module's ``@contract``
against the real input and output shapes, and re-raises any numpy
``ValueError``/``IndexError`` from inside the call as a
:class:`~repro.runtime.errors.GraphContractError` naming the innermost
module.  The shipped forwards run unmodified on probe-sized data.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...nn import module as module_mod
from ...nn.module import Module
from ...nn.tensor import Tensor
from ...runtime.errors import GraphContractError
from .spec import ANY, Contract, DimEnv, Spec

__all__ = ["TraceSession"]


class TraceSession:
    """One verification run over a module tree: call hook, paths, checks."""

    def __init__(self, root: Module, env: DimEnv) -> None:
        self.env = env
        # Dotted-path stack of modules currently executing (innermost last).
        self.path_stack: List[str] = []
        self.paths: Dict[int, str] = {}
        self._name_modules(root, type(root).__name__)

    def _name_modules(self, module: Module, path: str) -> None:
        self.paths[id(module)] = path
        for name, child in module._modules.items():
            self._name_modules(child, f"{path}.{name}")

    def current_path(self) -> str:
        return self.path_stack[-1]

    # ------------------------------------------------------------------
    # Module calls
    # ------------------------------------------------------------------
    def call_module(self, module: Module, args: tuple, kwargs: dict):
        """The call hook: ``module(*args, **kwargs)`` under contract checks."""
        contract = getattr(type(module), "__graph_contract__", None)
        if contract is not None and contract.method != "forward":
            contract = None  # __call__ enters forward, not the contract's method
        out, _ = self.invoke(module, "forward", contract, args, kwargs)
        return out

    def invoke(
        self,
        module: Module,
        method: str,
        contract: Optional[Contract],
        args: tuple,
        kwargs: dict,
    ) -> Tuple[Any, Dict[str, int]]:
        """Run ``module.<method>`` checking ``contract``; returns (output, binding)."""
        self.path_stack.append(self.paths.get(id(module), type(module).__name__))
        try:
            binding: Dict[str, int] = {}
            if contract is not None:
                binding = contract.bind_dims(module)
                self.check_inputs(module, contract, args, kwargs, binding)
            try:
                out = getattr(module, method)(*args, **kwargs)
            except (ValueError, IndexError) as exc:
                path = self.current_path()
                raise GraphContractError(
                    f"{path}.{method}: {type(exc).__name__}: {exc}",
                    module_path=path,
                    op=method,
                ) from exc
            if contract is not None and contract.outputs is not None:
                self.check_value(out, contract.outputs, binding, "output", method)
            return out, binding
        finally:
            self.path_stack.pop()

    # ------------------------------------------------------------------
    # Contract checking
    # ------------------------------------------------------------------
    def check_inputs(
        self,
        module: Module,
        contract: Contract,
        args: tuple,
        kwargs: dict,
        binding: Dict[str, int],
    ) -> None:
        bound = dict(zip(contract.signature_names(module), args))
        bound.update(kwargs)
        for name, spec_tree in contract.inputs.items():
            if bound.get(name) is not None:  # a defaulted argument is not checked
                self.check_value(bound[name], spec_tree, binding, name, contract.method)

    def _fail(
        self, method: str, label: str, detail: str,
        expected: Optional[str] = None, actual: Optional[str] = None,
    ) -> None:
        path = self.current_path()
        message = f"{path}.{method}: '{label}' {detail}"
        if expected is not None:
            message += f" (expected {expected}, got {actual})"
        raise GraphContractError(
            message,
            module_path=path,
            op=f"{method}:{label}",
            expected=expected,
            actual=actual,
        )

    def check_value(
        self, value: Any, spec_tree: Any, binding: Dict[str, int],
        label: str, method: str,
    ) -> None:
        """Check a value against a spec tree, unifying named dims via ``binding``."""
        if spec_tree is None or spec_tree is ANY:
            return
        if isinstance(spec_tree, Spec):
            self._check_tensor(value, spec_tree, binding, label, method)
            return
        if isinstance(spec_tree, Mapping):
            if not isinstance(value, Mapping):
                self._fail(
                    method, label,
                    f"expected a mapping of tensors, got {type(value).__name__}",
                )
            # Intersection semantics: optional keys (e.g. a disabled ResGen's
            # mu/log_sigma) are not required, but present keys must conform.
            for key, sub in spec_tree.items():
                if key in value:
                    self.check_value(value[key], sub, binding, f"{label}[{key!r}]", method)
            return
        if isinstance(spec_tree, (tuple, list)):
            if not isinstance(value, (tuple, list)) or len(value) != len(spec_tree):
                got = (
                    f"a {len(value)}-element {type(value).__name__}"
                    if isinstance(value, (tuple, list))
                    else type(value).__name__
                )
                self._fail(
                    method, label,
                    f"expected a {len(spec_tree)}-element sequence, got {got}",
                )
            for i, (item, sub) in enumerate(zip(value, spec_tree)):
                self.check_value(item, sub, binding, f"{label}[{i}]", method)
            return
        raise TypeError(f"unsupported spec tree entry for {label!r}: {spec_tree!r}")

    def _check_tensor(
        self, value: Any, spec: Spec, binding: Dict[str, int],
        label: str, method: str,
    ) -> None:
        if isinstance(value, (Tensor, np.ndarray, int, float, np.number)):
            shape = tuple(np.shape(value))
        else:
            self._fail(method, label, f"expected a tensor, got {type(value).__name__}")
        fixed = spec.fixed
        expected, actual = spec.render(binding), str(list(shape))
        if len(shape) < len(fixed) or (not spec.has_ellipsis and len(shape) != len(fixed)):
            needs = "at least rank" if spec.has_ellipsis else "rank"
            self._fail(
                method, label,
                f"rank drift: expected {needs} {len(fixed)}, got rank {len(shape)}",
                expected=expected, actual=actual,
            )
        for entry, size in zip(fixed, shape[len(shape) - len(fixed):]):
            if isinstance(entry, str):
                want = binding.setdefault(entry, size)
                detail = f"dim {entry!r} should be {want}, got {size}"
            else:
                want = int(entry)
                detail = f"fixed dim should be {want}, got {size}"
            if size != want:
                self._fail(method, label, detail, expected=expected, actual=actual)

    # ------------------------------------------------------------------
    # Probe construction for standalone verification
    # ------------------------------------------------------------------
    def build_probe_inputs(self, module: Module, contract: Contract) -> Tuple[tuple, dict]:
        """Probe (args, kwargs) for the contract's entry method."""
        if contract.build_inputs is not None:
            return contract.build_inputs(module, self.env)
        kwargs = {}
        for name in contract.signature_names(module):
            if name in contract.inputs:
                kwargs[name] = self._build_value(contract.inputs[name], name)
        return (), kwargs

    def _build_value(self, spec_tree: Any, label: str) -> Any:
        if isinstance(spec_tree, Spec):
            shape = [
                self.env.fresh("B" if entry == "..." else entry)
                if isinstance(entry, str) else int(entry)
                for entry in spec_tree.shape
            ]
            values = self.env.probe(*shape)
            return values if spec_tree.array else Tensor(values)
        if isinstance(spec_tree, (tuple, list)):
            return tuple(
                self._build_value(sub, f"{label}[{i}]") for i, sub in enumerate(spec_tree)
            )
        if isinstance(spec_tree, Mapping):
            return {
                key: self._build_value(sub, f"{label}[{key!r}]")
                for key, sub in spec_tree.items()
            }
        raise GraphContractError(
            f"cannot build a probe for input {label!r} declared as {spec_tree!r}; "
            "give the contract a build_inputs callable",
            op=f"probe:{label}",
        )

    @contextlib.contextmanager
    def active(self):
        """Install the module call hook for the duration of the run."""
        previous = module_mod._set_call_hook(self)
        if previous is not None:
            module_mod._set_call_hook(previous)
            raise RuntimeError("a graph verification is already active; runs do not nest")
        try:
            yield self
        finally:
            module_mod._set_call_hook(None)
