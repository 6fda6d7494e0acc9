"""Structured exception taxonomy for the fault-tolerant runtime.

Callers distinguish *retryable* failures (a generation attempt that
faulted, a wall-clock budget that expired) from *fatal* ones (a checkpoint
whose checksum does not verify, a training run that keeps diverging after
every recovery attempt).  Everything the runtime raises derives from
:class:`GenDTRuntimeError`, so ``except GenDTRuntimeError`` catches the whole
family without swallowing programming errors.
"""

from __future__ import annotations

from typing import Optional


class GenDTRuntimeError(RuntimeError):
    """Base class for all runtime-layer failures."""


class DivergenceError(GenDTRuntimeError):
    """Training health could not be restored within ``MAX_RECOVERIES``.

    Raised by :class:`~repro.runtime.guards.HealthGuard` after it has
    exhausted its rollback budget; the trainer's parameters are left at the
    last-good snapshot so the caller can still checkpoint or inspect them.
    """

    def __init__(self, message: str, step: int = -1, recoveries: int = 0) -> None:
        super().__init__(message)
        self.step = step
        self.recoveries = recoveries


class CheckpointCorruptError(GenDTRuntimeError):
    """A checkpoint failed structural or checksum verification on load."""

    def __init__(self, message: str, path: Optional[str] = None) -> None:
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class ContextValidationError(GenDTRuntimeError):
    """Generation-boundary input failed validation.

    ``index`` points at the first offending sample (or -1 when the problem
    is not tied to a single sample, e.g. an empty trajectory).
    """

    def __init__(self, message: str, index: int = -1) -> None:
        super().__init__(message)
        self.index = index


class DeadlineExceeded(GenDTRuntimeError):
    """A wall-clock budget expired mid-generation.

    ``scope`` names which budget tripped (``"trajectory"`` or
    ``"campaign"``); ``budget_s``/``elapsed_s`` record the configured budget
    and the time actually consumed when the deadline was detected.  The
    serving runner converts this into a clean partial result instead of
    letting it escape the campaign.
    """

    def __init__(
        self,
        message: str,
        scope: str = "trajectory",
        budget_s: float = float("nan"),
        elapsed_s: float = float("nan"),
    ) -> None:
        super().__init__(message)
        self.scope = scope
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class GenerationFaultError(GenDTRuntimeError):
    """One generation attempt failed (injected or real).

    ``trajectory``/``window`` locate the fault within a campaign (−1 when
    unknown); ``kind`` is a machine-readable fault class (e.g.
    ``"exception"``, ``"non_finite_output"``).
    """

    def __init__(
        self,
        message: str,
        trajectory: int = -1,
        window: int = -1,
        kind: str = "exception",
    ) -> None:
        super().__init__(message)
        self.trajectory = trajectory
        self.window = window
        self.kind = kind


class GraphContractError(GenDTRuntimeError):
    """A model graph failed verification (see repro.analysis.graph).

    Raised at *fit/load time* — before any training or generation — when a
    module run on probe inputs violates its ``@contract`` shape declaration,
    raises a numpy shape error, or the gradient-flow audit finds dead or
    severed parameters.  ``module_path`` is the dotted location inside the
    module tree (e.g. ``GenDTGenerator.resgen.mlp``), ``op`` the offending
    method or contract role, and ``expected``/``actual`` the rendered
    shapes.
    """

    def __init__(
        self,
        message: str,
        module_path: Optional[str] = None,
        op: Optional[str] = None,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.module_path = module_path
        self.op = op
        self.expected = expected
        self.actual = actual


class NumericalAnomalyError(GenDTRuntimeError):
    """A NaN/Inf surfaced on the autodiff tape under ``detect_anomaly``.

    Raised by :mod:`repro.nn.anomaly` when anomaly mode is active and a
    forward output or a backward gradient contains non-finite values.
    ``op`` is the tensor operation that produced (forward) or backpropagated
    through (backward) the offending value, ``site`` is the ``file:line`` of
    the code that invoked it, and ``module_chain`` lists the enclosing
    :class:`~repro.nn.Module` classes, outermost last.
    """

    def __init__(
        self,
        message: str,
        op: Optional[str] = None,
        site: Optional[str] = None,
        phase: str = "forward",
    ) -> None:
        super().__init__(message)
        self.op = op
        self.site = site
        self.phase = phase
        self.module_chain: list = []

    def __str__(self) -> str:
        base = super().__str__()
        if self.module_chain:
            return f"{base} [module path: {' -> '.join(self.module_chain)}]"
        return base
