"""The verifier: one-shot verification of a contracted module on concrete probes.

:func:`verify` builds probe inputs from the module's ``@contract`` (each free
named dim gets a distinct small prime, values come from a fixed local
generator), runs the real entry method under a
:class:`~repro.analysis.graph.trace.TraceSession` (shape contracts are
checked at every module boundary), then audits gradient flow:

* it walks the autodiff graph (``Tensor._parents``) back from the outputs
  and collects the parameters it reaches;
* each parameter the walk misses is perturbed once and the forward re-run:
  if the outputs move, the parameter reaches them only through
  ``detach()``/``no_grad`` (**severed**); if not, it is **dead** (a
  mis-wired or orphaned submodule);
* a module with parameters whose outputs reach none of them has **no grad
  path**.

No backward pass runs, so no ``.grad`` changes, and no ``train``/``eval``
mode flag is touched.  An entry method that takes an ``rng`` (noise
injection, dropout, z0/z1) gets a fresh ``np.random.default_rng(0)`` on
every run, so the perturbed re-runs see the first run's noise, and calling
:func:`verify` inside ``GenDT.fit``/``GenDT.load`` draws nothing from the
model's stream: training is bit-identical with verification on or off.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ...nn.module import Module
from ...nn.tensor import Tensor
from ...runtime.errors import GraphContractError
from .spec import Contract, DimEnv
from .trace import TraceSession

__all__ = ["Report", "verify"]


@dataclass
class Report:
    """Outcome of one :func:`verify` run."""

    module: str
    method: str
    violations: List[GraphContractError] = field(default_factory=list)
    dead_params: List[str] = field(default_factory=list)
    severed_params: List[str] = field(default_factory=list)
    no_grad_output: bool = False
    bound_dims: Dict[str, int] = field(default_factory=dict)
    n_params: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.violations
            or self.dead_params
            or self.severed_params
            or self.no_grad_output
        )

    def format(self) -> str:
        dims = ", ".join(f"{k}={v}" for k, v in sorted(self.bound_dims.items()))
        head = f"{self.module}.{self.method} ({dims or 'no bound dims'}, {self.n_params} params)"
        if self.ok:
            return f"ok    {head}"
        lines = [f"FAIL  {head}"]
        for violation in self.violations:
            lines.append(f"      contract violation: {violation}")
        for name in self.dead_params:
            lines.append(f"      dead parameter (unreachable from outputs): {name}")
        for name in self.severed_params:
            lines.append(
                f"      severed gradient: {name} reaches the output only "
                "through detach()/no_grad"
            )
        if self.no_grad_output:
            lines.append(
                "      no grad path: outputs carry no gradient route to any parameter"
            )
        return "\n".join(lines)

    def first_error(self) -> GraphContractError:
        """The violation to raise when ``raise_on_error`` is set."""
        if self.violations:
            return self.violations[0]
        details = []
        if self.dead_params:
            details.append(f"dead parameters {self.dead_params}")
        if self.severed_params:
            details.append(f"gradient to {self.severed_params} severed by detach()/no_grad")
        if self.no_grad_output:
            details.append("outputs have no grad path to any parameter")
        return GraphContractError(
            f"{self.module}.{self.method}: gradient-flow audit failed: "
            + "; ".join(details),
            module_path=self.module,
            op="grad_audit",
        )


def _collect_outputs(value: Any, into: List[Tensor]) -> List[Tensor]:
    if isinstance(value, Tensor):
        into.append(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect_outputs(item, into)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_outputs(item, into)
    return into


def _reached_ids(outputs: List[Tensor]) -> set:
    """Ids of every tensor on an autodiff path into ``outputs``."""
    seen: set = set()
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return seen


def verify(module: Module, raise_on_error: bool = False) -> "Report":
    """Verify a module against its ``@contract`` by running it on probes.

    Args:
        module: any :class:`repro.nn.Module` whose class declares a graph
            contract.
        raise_on_error: raise the first
            :class:`~repro.runtime.errors.GraphContractError` instead of
            returning a failing report.

    Returns:
        A :class:`Report`; ``report.ok`` is True when every shape contract
        holds and the gradient-flow audit is clean.
    """
    contract = getattr(type(module), "__graph_contract__", None)
    if contract is None:
        raise ValueError(f"{type(module).__name__} has no @contract declaration")

    params = dict(module.named_parameters())
    bound = contract.bind_dims(module)
    dtype = next(iter(params.values())).data.dtype if params else np.float64
    env = DimEnv(bound, dtype)
    session = TraceSession(module, env)
    report = Report(
        module=type(module).__name__,
        method=contract.method,
        bound_dims=dict(bound),
        n_params=len(params),
    )
    takes_rng = "rng" in inspect.signature(getattr(module, contract.method)).parameters

    def run(checked: Optional[Contract]) -> Any:
        rng = np.random.default_rng(0)  # repro: noqa[SEED001] (fixed probe stream, fresh per run)
        extra = {"rng": rng} if takes_rng else {}
        with session.active():
            return session.invoke(module, contract.method, checked, args, {**kwargs, **extra})

    try:
        args, kwargs = session.build_probe_inputs(module, contract)
        result, report.bound_dims = run(contract)
    except GraphContractError as exc:
        report.violations.append(exc)
        result = None
    outputs = _collect_outputs(result, [])

    if outputs:
        reached = _reached_ids(outputs)
        unreached = [name for name, p in params.items() if id(p) not in reached]
        report.no_grad_output = bool(params) and len(unreached) == len(params)
        # A parameter the walk misses is dead unless perturbing it moves the
        # outputs, in which case its path is severed.
        for name in unreached:
            param = params[name]
            original = param.data
            param.data = original + env.probe(*original.shape)  # repro: noqa[TEN001] (restored below)
            try:
                moved = _collect_outputs(run(None)[0], [])
            finally:
                param.data = original  # repro: noqa[TEN001] (the original array, bit for bit)
            if all(np.array_equal(a.data, b.data, equal_nan=True) for a, b in zip(outputs, moved)):
                report.dead_params.append(name)
            else:
                report.severed_params.append(name)

    if raise_on_error and not report.ok:
        raise report.first_error()
    return report
