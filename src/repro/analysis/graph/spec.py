"""Contract specification language for the graph verifier.

This module is deliberately a *leaf*: it imports nothing from ``repro.nn``
or the rest of :mod:`repro.analysis.graph`, so model modules can decorate
themselves with :func:`contract` without creating an import cycle (the
verifier imports the model packages, which import this file).

The pieces:

* :class:`Spec` — one tensor's expected shape (named dims / literal ints /
  a leading ``"..."`` ellipsis).
* :data:`ANY` — "do not check this value".
* :class:`Contract` + the :func:`contract` decorator — a module's entry
  method, its input/output spec trees, and the ``dims`` mapping that binds
  dim names to the concrete architecture (ints, dotted attribute paths, or
  callables on the module instance).
* :class:`DimEnv` — the probe environment of one verification run: known
  name→value bindings, fresh probe sizes for free dims, and probe values.
"""

from __future__ import annotations

import inspect
import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["ANY", "Contract", "DimEnv", "Spec", "contract"]


class _Any:
    """Sentinel: skip checking/building this input or output."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ANY"


ANY = _Any()

ShapeEntry = Union[str, int]


class Spec:
    """Expected shape of one tensor.

    ``Spec("B", "L", "H")`` — three named dims; names bind per contract
    check, so ``"B"`` unifies across every input/output of one module call.
    ``Spec("...", "N_env")`` — any leading rank, last dim must be N_env.
    Literal ints check exact sizes (``Spec("B", 1)``).

    ``array=True`` marks an input that the module consumes as a plain
    ``np.ndarray`` rather than a Tensor (several baselines do this); the
    default probe builder then materializes a numpy array.
    """

    __slots__ = ("shape", "array")

    def __init__(self, *shape: ShapeEntry, array: bool = False) -> None:
        if "..." in shape[1:]:
            raise ValueError("'...' is only supported as the leading entry")
        self.shape: Tuple[ShapeEntry, ...] = shape
        self.array = array

    @property
    def has_ellipsis(self) -> bool:
        return bool(self.shape) and self.shape[0] == "..."

    @property
    def fixed(self) -> Tuple[ShapeEntry, ...]:
        """Shape entries excluding the leading ellipsis."""
        return self.shape[1:] if self.has_ellipsis else self.shape

    def render(self, binding: Optional[Mapping[str, int]] = None) -> str:
        text = "[" + ", ".join(str(entry) for entry in self.shape) + "]"
        if binding:
            bound = [
                f"{entry}={binding[entry]}"
                for entry in self.shape
                if isinstance(entry, str) and entry in binding and entry != "..."
            ]
            if bound:
                text += " with " + ", ".join(bound)
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Spec{self.shape!r}"


SpecTree = Any  # Spec | ANY | tuple/list/dict of SpecTree
DimValue = Union[int, str, Callable[[Any], int]]


class Contract:
    """A module's graph contract: entry method, input/output specs, dims."""

    __slots__ = ("method", "inputs", "outputs", "dims", "build_inputs")

    def __init__(
        self,
        inputs: Optional[Mapping[str, SpecTree]] = None,
        outputs: SpecTree = None,
        dims: Optional[Mapping[str, DimValue]] = None,
        method: str = "forward",
        build_inputs: Optional[Callable[[Any, "DimEnv"], Tuple[tuple, dict]]] = None,
    ) -> None:
        self.method = method
        self.inputs: Dict[str, SpecTree] = dict(inputs or {})
        self.outputs = outputs
        self.dims: Dict[str, DimValue] = dict(dims or {})
        self.build_inputs = build_inputs

    def bind_dims(self, module: Any) -> Dict[str, int]:
        """Evaluate the ``dims`` mapping against a concrete module instance."""
        bound: Dict[str, int] = {}
        for name, value in self.dims.items():
            if isinstance(value, int):
                bound[name] = value
            elif isinstance(value, str):
                bound[name] = int(operator.attrgetter(value)(module))
            elif callable(value):
                bound[name] = int(value(module))
            else:
                raise TypeError(
                    f"contract dim {name!r} must be int, attribute path or "
                    f"callable, got {type(value).__name__}"
                )
        return bound

    def signature_names(self, module: Any) -> List[str]:
        """Named parameters of the entry method, without ``self``."""
        params = inspect.signature(getattr(type(module), self.method)).parameters.values()
        return [
            p.name for p in params
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]


def contract(**fields: Any):
    """Class decorator attaching a :class:`Contract` as ``__graph_contract__``.

    Takes the :class:`Contract` fields as keywords.  The verifier checks the
    contract whenever the module is *called* during verification (nested
    modules included) and uses it to build probe inputs when the module is
    verified standalone.
    """
    spec = Contract(**fields)

    def decorate(cls):
        cls.__graph_contract__ = spec
        return cls

    return decorate


#: Fresh-dim probe sizes.  Distinct small primes so free dims (B, L, N_c…)
#: do not collide with each other or with the architecture sizes bound first.
_PROBE_CANDIDATES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class DimEnv:
    """Name→value bindings and probe values for one verification run.

    Probe values are drawn in float64 and cast to ``dtype``, the verified
    module's parameter dtype, so a float32 module is verified in float32.
    """

    def __init__(self, bindings: Optional[Mapping[str, int]], dtype) -> None:
        self.bindings: Dict[str, int] = dict(bindings or {})
        self.dtype = dtype
        # Probe values come from this fixed local stream, never from a
        # module's generator, so verification leaves seeded streams alone.
        self._rng = np.random.default_rng(0)  # repro: noqa[SEED001] (fixed probe stream)

    def fresh(self, name: str) -> int:
        """Bind ``name`` to an unused probe size (or return its binding)."""
        if name not in self.bindings:
            used = set(self.bindings.values())
            self.bindings[name] = next(c for c in _PROBE_CANDIDATES if c not in used)
        return self.bindings[name]

    def probe(self, *shape: int) -> np.ndarray:
        """Non-zero probe values of the given shape."""
        values = self._rng.standard_normal(shape)
        return np.where(values == 0.0, 1.0, values).astype(self.dtype, copy=False)
