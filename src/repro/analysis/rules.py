"""Project-specific lint rules for the GenDT reproduction.

Each rule targets a failure mode that has actually burned generative-model
reproductions: hidden global RNG state breaking determinism, silent broad
exception handlers hiding real faults, out-of-band mutation of autodiff
tensors, unseeded entry points, exact float-array comparison, and gradient
bookkeeping inside ``no_grad`` regions.

Rules register themselves into :data:`RULES` via :func:`register`; adding a
rule is: subclass :class:`Rule`, set ``id``/``summary``, implement
``check``, decorate with ``@register``.  The engine (``repro.analysis.engine``)
handles file walking, per-line ``# repro: noqa[RULE]`` suppression and
reporting.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..runtime import errors as _errors
from .engine import FileContext, Violation

#: Registry mapping rule ID -> rule instance.
RULES: Dict[str, "Rule"] = {}


def register(cls):
    """Class decorator: instantiate the rule and add it to :data:`RULES`."""
    instance = cls()
    if instance.id in RULES:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    RULES[instance.id] = instance
    return cls


def iter_rules(select: Optional[Iterable[str]] = None) -> List["Rule"]:
    """All registered rules, or the subset named by ``select`` (IDs)."""
    if select is None:
        return [RULES[rule_id] for rule_id in sorted(RULES)]
    return [RULES[rule_id] for rule_id in select]


class Rule:
    """Base class: one lint check over a parsed file."""

    id: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return ctx.violation(self.id, node, message)


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for Name/Attribute chains (``np.random.rand``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_seed_or_rng(nodes: Sequence[ast.AST]) -> bool:
    """Does any Name/Attribute/arg in ``nodes`` reference a seed or rng?"""
    for root in nodes:
        for node in ast.walk(root):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None:
                lowered = name.lower()
                if "seed" in lowered or "rng" in lowered or "generator" in lowered:
                    return True
    return False


@register
class BanGlobalNumpyRandom(Rule):
    """RNG001: no ``np.random.*`` global-state calls; inject a Generator."""

    id = "RNG001"
    summary = (
        "module-level np.random.* global-state call; "
        "thread a seeded np.random.Generator instead"
    )

    #: numpy.random attributes that do NOT touch hidden global state.
    ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                chain = _attr_chain(node)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in self.ALLOWED
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"{chain} uses numpy's hidden global RNG state; "
                        "pass an explicit np.random.Generator",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in self.ALLOWED:
                            yield self.violation(
                                ctx,
                                node,
                                f"importing numpy.random.{alias.name} pulls in "
                                "global RNG state; import default_rng/Generator "
                                "and thread it explicitly",
                            )


@register
class NoSilentBroadExcept(Rule):
    """EXC001: broad handlers must re-raise or route through the taxonomy."""

    id = "EXC001"
    summary = (
        "except Exception/bare except that neither re-raises nor routes "
        "through repro.runtime.errors"
    )

    BROAD = {"Exception", "BaseException"}
    #: Referencing any of these inside the handler counts as routing the
    #: failure through the structured taxonomy: the GenDTRuntimeError class
    #: tree of ``repro.runtime.errors``.
    ERROR_NAMES = frozenset(
        name
        for name, obj in vars(_errors).items()
        if isinstance(obj, type) and issubclass(obj, _errors.GenDTRuntimeError)
    )

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        exprs = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for expr in exprs:
            if isinstance(expr, ast.Name) and expr.id in self.BROAD:
                return True
            if isinstance(expr, ast.Attribute) and expr.attr in self.BROAD:
                return True
        return False

    def _handles_properly(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Name) and node.id in self.ERROR_NAMES:
                    return True
                if isinstance(node, ast.Attribute) and node.attr in self.ERROR_NAMES:
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if self._is_broad(node) and not self._handles_properly(node):
                    label = "bare except" if node.type is None else "except Exception"
                    yield self.violation(
                        ctx,
                        node,
                        f"{label} swallows the failure silently; narrow the "
                        "exception type, re-raise, or raise a "
                        "repro.runtime.errors type",
                    )


@register
class NoTensorMutationOutsideNN(Rule):
    """TEN001: no in-place mutation of Tensor.data/.grad outside repro/nn."""

    id = "TEN001"
    summary = "in-place mutation of Tensor.data/.grad outside repro/nn"

    ATTRS = {"data", "grad"}

    def _is_tensor_slot(self, node: ast.AST, allow_self: bool) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in self.ATTRS:
            if not allow_self and isinstance(node.value, ast.Name) and node.value.id == "self":
                # `self.data = ...` defines the object's own attribute
                # (e.g. a dataset container); it is not a Tensor mutation.
                return False
            return True
        return False

    def _flags_target(self, target: ast.AST) -> bool:
        if isinstance(target, ast.Subscript):
            # x.data[...] = / x.grad[...] = mutate the array even on self.
            return self._is_tensor_slot(target.value, allow_self=True)
        return self._is_tensor_slot(target, allow_self=False)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_package("repro", "nn"):
            return
        for node in ast.walk(ctx.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "fill"
                    and self._is_tensor_slot(func.value, allow_self=True)
                ):
                    targets = [func.value]
            for target in targets:
                if self._flags_target(target):
                    yield self.violation(
                        ctx,
                        node,
                        "mutating .data/.grad bypasses the autodiff tape; use "
                        "Module.load_state_dict/optimizer APIs (or suppress a "
                        "deliberate site with # repro: noqa[TEN001])",
                    )


@register
class SeedMustReachRNG(Rule):
    """SEED001: entry points constructing RNGs must take/use a seed or rng."""

    id = "SEED001"
    summary = (
        "constructs an RNG but no seed/rng parameter reaches it; "
        "the CLI seed must stay the single entropy source"
    )

    CONSTRUCTORS = {"default_rng", "RandomState"}

    def _rng_calls(self, body: Sequence[ast.stmt]) -> Iterator[ast.Call]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else (
                        func.id if isinstance(func, ast.Name) else None
                    )
                    if name in self.CONSTRUCTORS:
                        yield node

    def _signature_names(self, func: ast.AST) -> List[str]:
        args = func.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        funcs = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        in_function = set()
        for func in funcs:
            takes_seed = any(
                "seed" in name.lower() or "rng" in name.lower()
                for name in self._signature_names(func)
            )
            for call in self._rng_calls(func.body):
                in_function.add(id(call))
                if takes_seed:
                    continue
                if _mentions_seed_or_rng(list(call.args) + [k.value for k in call.keywords]):
                    continue  # e.g. default_rng(self.seed) / default_rng(args.seed)
                yield self.violation(
                    ctx,
                    call,
                    f"{func.name}() builds an RNG from nothing; accept a "
                    "`seed` or injected np.random.Generator so runs stay "
                    "reproducible from the CLI master seed",
                )
        # Module-level RNG construction is never seed-threaded state.
        for call in self._rng_calls(ctx.tree.body):
            if id(call) in in_function:
                continue
            yield self.violation(
                ctx,
                call,
                "module-level RNG construction creates hidden shared state; "
                "build the generator inside the entry point from its seed",
            )


@register
class NoExactFloatArrayComparison(Rule):
    """FLT001: no ==/!= between float arrays; use np.allclose/np.isclose."""

    id = "FLT001"
    summary = "exact ==/!= comparison between float arrays"

    #: numpy helpers that return scalars, safe to compare exactly.
    SCALAR_FUNCS = {
        "sum", "mean", "median", "min", "max", "prod", "dot", "vdot",
        "count_nonzero", "ndim", "size", "trace", "item", "float64", "int64",
    }

    def _is_arrayish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr == "numpy":
                    return True  # Tensor.numpy()
                chain = _attr_chain(func)
                if chain is not None:
                    parts = chain.split(".")
                    if parts[0] in ("np", "numpy") and parts[-1] not in self.SCALAR_FUNCS:
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(self._is_arrayish(operand) for operand in operands):
                yield self.violation(
                    ctx,
                    node,
                    "exact float-array comparison is brittle across "
                    "platforms/BLAS builds; use np.allclose or "
                    "np.array_equal with an explicit tolerance decision",
                )


@register
class ServingUsesInjectableTime(Rule):
    """RTY001: no ad-hoc ``time.sleep`` in ``repro/serving``.

    Every delay in the serving layer must run through an injectable sleep
    (``repro.runtime.retry.REAL_SLEEP`` or a constructor parameter), and
    every clock read through an injectable clock.  A literal
    ``time.sleep`` or ``time.time`` call hard-wires the wall clock into the
    serving path: chaos tests can no longer run the breaker and deadline
    machinery deterministically.
    """

    id = "RTY001"
    summary = (
        "ad-hoc time.sleep in repro/serving; take an injectable sleep "
        "and clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_package("repro", "serving"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain in ("time.sleep", "time.time"):
                    yield self.violation(
                        ctx,
                        node,
                        f"{chain}() hard-wires the wall clock into the "
                        "serving path; use the injectable sleep/clock "
                        "(repro.runtime.retry.REAL_SLEEP, time.monotonic "
                        "via a constructor parameter)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        yield self.violation(
                            ctx,
                            node,
                            "importing time.sleep into repro/serving "
                            "bypasses the injectable-sleep contract; take a "
                            "sleep callable defaulting to "
                            "repro.runtime.retry.REAL_SLEEP instead",
                        )


@register
class ExportedModulesNeedContracts(Rule):
    """SHP001: exported ``nn.Module`` subclasses must declare a ``@contract``.

    The graph verifier (:mod:`repro.analysis.graph`) can only
    check what the contracts declare, so every model class in the exported
    model packages — ``repro/core``, ``repro/baselines``, and the sequence
    modules in ``repro/nn/lstm.py`` — must carry a ``@contract(...)``
    decoration (or opt out explicitly with ``# repro: noqa[SHP001]`` on the
    class line for pure-container modules).
    """

    id = "SHP001"
    summary = (
        "nn.Module subclass without a @contract graph declaration "
        "(see repro.analysis.graph)"
    )

    #: Package scopes whose Module subclasses are exported model classes.
    SCOPES = (("repro", "core"), ("repro", "baselines"))
    #: Files in repro/nn that also count (the sequence-model layer).
    NN_FILES = ("lstm.py",)

    def _in_scope(self, ctx: FileContext) -> bool:
        if any(ctx.in_package(*scope) for scope in self.SCOPES):
            return True
        return (
            ctx.in_package("repro", "nn")
            and Path(ctx.path).name in self.NN_FILES
        )

    @staticmethod
    def _is_module_base(base: ast.AST) -> bool:
        if isinstance(base, ast.Name) and base.id == "Module":
            return True
        return isinstance(base, ast.Attribute) and base.attr == "Module"

    @staticmethod
    def _has_contract(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name) and target.id == "contract":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "contract":
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(self._is_module_base(base) for base in node.bases):
                continue
            if not self._has_contract(node):
                yield self.violation(
                    ctx,
                    node,
                    f"model class {node.name} has no @contract declaration, "
                    "so verify-graph cannot check its shapes or gradient "
                    "flow; declare inputs/outputs/dims (see "
                    "repro/analysis/README.md)",
                )


@register
class NoRequiresGradInsideNoGrad(Rule):
    """GRD001: no requires_grad=True inside a no_grad block."""

    id = "GRD001"
    summary = "sets requires_grad=True inside a no_grad() block"

    def _is_no_grad_with(self, node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            call = expr if isinstance(expr, ast.Call) else None
            target = call.func if call is not None else expr
            if isinstance(target, ast.Name) and target.id == "no_grad":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "no_grad":
                return True
        return False

    def _grad_enables(self, body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    for keyword in node.keywords:
                        if (
                            keyword.arg == "requires_grad"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            yield node
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    value = node.value
                    if (
                        isinstance(value, ast.Constant)
                        and value.value is True
                        and any(
                            isinstance(t, ast.Attribute) and t.attr == "requires_grad"
                            for t in targets
                        )
                    ):
                        yield node

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.With) and self._is_no_grad_with(node):
                for offender in self._grad_enables(node.body):
                    yield self.violation(
                        ctx,
                        offender,
                        "requires_grad=True inside no_grad() records nothing "
                        "and silently detaches the graph; move it outside the "
                        "block",
                    )
