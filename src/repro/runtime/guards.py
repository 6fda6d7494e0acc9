"""Numerical-health guards for the training loop.

GAN training on KPI series occasionally goes off the rails — a NaN sneaks
through an ill-conditioned Gaussian NLL, or the adversarial term explodes.
Without protection one such step poisons every parameter and the whole run
is lost.  :class:`HealthGuard` watches each optimization step for

* non-finite losses,
* non-finite gradients (checked *before* the optimizer applies them),
* non-finite parameters after the update,
* divergence: the loss exploding relative to a rolling median baseline,

and on any trip rolls the trainer back to the last-good snapshot of
parameters **and** optimizer state, then backs off the learning rates by
:data:`LR_BACKOFF` so the same step is unlikely to blow up again.  After
:data:`MAX_RECOVERIES` rollbacks it gives up and raises
:class:`~repro.runtime.errors.DivergenceError` — with the trainer left at
the last-good snapshot, so a checkpoint written afterwards is still sane.

A deterministic fault-injection hook (:meth:`HealthGuard.inject_fault`)
forces NaN losses, corrupted gradients, or exploding losses at a chosen
step; the test suite uses it to exercise every recovery path without
relying on real numerical accidents.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from .errors import DivergenceError

#: Fault kinds understood by :meth:`HealthGuard.inject_fault`.
FAULT_KINDS = ("nan_loss", "corrupt_grad", "explode_loss")

# The guard's policy.  Fixed, because it only has to separate healthy steps
# from broken ones, whose losses differ by orders of magnitude.
#: Rollback budget for one ``fit`` call; the next trip beyond it raises
#: :class:`DivergenceError`.
MAX_RECOVERIES = 3
#: Learning-rate factor applied to every attached optimizer on each rollback.
LR_BACKOFF = 0.5
#: A finite loss above this multiple of the rolling median of recent healthy
#: losses counts as divergence.
DIVERGENCE_FACTOR = 25.0
#: Number of recent healthy losses in the rolling baseline.
BASELINE_WINDOW = 32
#: Healthy steps needed before divergence detection arms (early training is
#: legitimately noisy).
MIN_BASELINE = 5


@dataclass
class GuardEvent:
    """One guard intervention, for post-mortems and tests."""

    step: int
    kind: str  # "nan_loss" | "nonfinite_grad" | "nonfinite_param" | "divergence"
    action: str  # "rollback" | "fatal"
    loss: float
    lr_after: float


@dataclass
class _Snapshot:
    modules: List[Dict[str, np.ndarray]] = field(default_factory=list)
    optimizers: List[Dict[str, np.ndarray]] = field(default_factory=list)


class HealthGuard:
    """Per-step numerical watchdog with rollback-and-backoff recovery.

    Every healthy step is snapshotted as the new last-good state.
    """

    def __init__(self) -> None:
        self.events: List[GuardEvent] = []
        self.recoveries = 0
        self._losses: Deque[float] = deque(maxlen=BASELINE_WINDOW)
        self._injections: List[Dict] = []
        self._modules: List = []
        self._optimizers: List = []
        self._snapshot: Optional[_Snapshot] = None
        self._step = -1
        self._grad_fault = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, modules: Sequence, optimizers: Sequence) -> None:
        """Bind the guard to the modules/optimizers it protects.

        Called by ``GenDTTrainer.fit``; takes the initial snapshot so a
        fault on the very first step can still roll back.
        """
        self._modules = [m for m in modules if m is not None]
        self._optimizers = [o for o in optimizers if o is not None]
        self._step = -1
        self._grad_fault = False
        self._take_snapshot()

    def inject_fault(self, kind: str, at_step: int) -> None:
        """Schedule a deterministic fault at ``at_step`` (0-based, per fit)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
        self._injections.append({"kind": kind, "at_step": int(at_step)})

    def _pop_injection(self, kind: str) -> bool:
        for i, injection in enumerate(self._injections):
            if injection["kind"] == kind and injection["at_step"] == self._step:
                del self._injections[i]
                return True
        return False

    # ------------------------------------------------------------------
    # Per-step protocol (driven by the trainer)
    # ------------------------------------------------------------------
    def begin_step(self) -> int:
        """Advance to the next optimization step; returns its index."""
        self._step += 1
        self._grad_fault = False
        return self._step

    def inspect_gradients(self, optimizer) -> bool:
        """Check (and possibly tamper with) gradients post-backward.

        Applies a scheduled ``corrupt_grad`` injection, then scans every
        gradient for NaN/Inf.  Returns ``False`` when the optimizer step
        must be skipped; :meth:`after_step` will then roll back.
        """
        if self._pop_injection("corrupt_grad"):
            for param in optimizer.params:
                if param.grad is not None:
                    param.grad[...] = np.nan  # repro: noqa[TEN001] (deliberate fault injection)
                    break
        for param in optimizer.params:
            if param.grad is not None and not np.all(np.isfinite(param.grad)):
                self._grad_fault = True
                return False
        return True

    def after_step(self, loss_value: float) -> bool:
        """Health-check the finished step; returns True if it was rolled back."""
        if self._pop_injection("nan_loss"):
            loss_value = float("nan")
        if self._pop_injection("explode_loss"):
            baseline = self._baseline() or 1.0
            loss_value = baseline * DIVERGENCE_FACTOR * 1e6
        kind = self._diagnose(loss_value)
        if kind is None:
            self._losses.append(float(loss_value))
            self._take_snapshot()
            return False
        self._recover(kind, loss_value)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _baseline(self) -> Optional[float]:
        if len(self._losses) < MIN_BASELINE:
            return None
        return float(np.median(self._losses))

    def _diagnose(self, loss_value: float) -> Optional[str]:
        if self._grad_fault:
            return "nonfinite_grad"
        if not np.isfinite(loss_value):
            return "nan_loss"
        for module in self._modules:
            for param in module.parameters():
                if not np.all(np.isfinite(param.data)):
                    return "nonfinite_param"
        baseline = self._baseline()
        if baseline is not None and abs(loss_value) > DIVERGENCE_FACTOR * max(
            abs(baseline), 1e-12
        ):
            return "divergence"
        return None

    def _take_snapshot(self) -> None:
        self._snapshot = _Snapshot(
            modules=[m.state_dict() for m in self._modules],
            optimizers=[o.state_dict() for o in self._optimizers],
        )

    def _restore_snapshot(self) -> None:
        assert self._snapshot is not None, "guard used before attach()"
        for module, state in zip(self._modules, self._snapshot.modules):
            module.load_state_dict(state)
        for optimizer, state in zip(self._optimizers, self._snapshot.optimizers):
            optimizer.load_state_dict(state)

    def _recover(self, kind: str, loss_value: float) -> None:
        self._restore_snapshot()
        self.recoveries += 1
        if self.recoveries > MAX_RECOVERIES:
            self.events.append(
                GuardEvent(
                    step=self._step, kind=kind, action="fatal",
                    loss=float(loss_value),
                    lr_after=self._optimizers[0].lr if self._optimizers else float("nan"),
                )
            )
            raise DivergenceError(
                f"training unhealthy ({kind}) at step {self._step} after "
                f"{self.recoveries - 1} recoveries",
                step=self._step,
                recoveries=self.recoveries - 1,
            )
        for optimizer in self._optimizers:
            optimizer.lr *= LR_BACKOFF
        self.events.append(
            GuardEvent(
                step=self._step, kind=kind, action="rollback",
                loss=float(loss_value),
                lr_after=self._optimizers[0].lr if self._optimizers else float("nan"),
            )
        )
