"""Deterministic fault injection for the serving runtime (chaos harness).

Modeled on :meth:`repro.runtime.guards.HealthGuard.inject_fault`, but
addressed by campaign coordinates instead of training steps: a
:class:`FaultPlan` schedules faults at chosen ``(trajectory, window)``
positions, optionally filtered to one degradation-ladder level, and the
:class:`~repro.serving.runner.CampaignRunner` consults the plan at every
generation window.  Because the plan, the breaker cool-downs, and the
runner's clock are all deterministic, every breaker and ladder transition is
reproducible bit-for-bit — the chaos tests assert byte-identical campaign
output across re-runs.

Fault kinds:

* ``nan_output`` — the window's generated block is replaced with NaNs
  (models a numerical blow-up inside the generator);
* ``exception`` — a :class:`GenerationFaultError` is raised mid-trajectory
  (models an infrastructure fault);
* ``latency`` — the runner's injectable sleep is invoked for ``latency_s``
  (models a hung window; with a fake clock this deterministically trips
  deadline enforcement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Fault kinds understood by :meth:`FaultPlan.inject`.
FAULT_KINDS = ("nan_output", "exception", "latency")


@dataclass
class _Injection:
    kind: str
    trajectory: int
    window: Optional[int]          # None = any window
    level: Optional[str]           # None = any ladder level
    remaining: Optional[int]       # None = unlimited firings
    latency_s: float = 0.0

    def matches(self, kind: str, trajectory: int, window: int, level: str) -> bool:
        if self.kind != kind or self.trajectory != trajectory:
            return False
        if self.window is not None and self.window != window:
            return False
        if self.level is not None and self.level != level:
            return False
        return self.remaining is None or self.remaining > 0


class FaultPlan:
    """A schedule of deterministic serving faults.

    >>> plan = FaultPlan()
    >>> plan.inject("nan_output", trajectory=2, level="full", times=None)
    >>> plan.inject("exception", trajectory=5, window=0)
    >>> plan.inject("latency", trajectory=1, window=3, latency_s=9.5)
    """

    def __init__(self) -> None:
        self._injections: List[_Injection] = []

    def inject(
        self,
        kind: str,
        trajectory: int,
        window: Optional[int] = None,
        level: Optional[str] = None,
        times: Optional[int] = 1,
        latency_s: float = 0.0,
    ) -> "FaultPlan":
        """Schedule a fault; returns ``self`` for chaining.

        Args:
            kind: one of :data:`FAULT_KINDS`.
            trajectory: campaign trajectory index the fault targets.
            window: generation-window index within the trajectory
                (``None`` = fire at any window).
            level: only fire while the ladder is at this level
                (``None`` = any level).
            times: how many firings before the injection is spent
                (``None`` = unlimited — e.g. to defeat every re-sample at a
                level and force a demotion).
            latency_s: artificial delay for ``latency`` faults.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")
        if kind == "latency" and latency_s <= 0:
            raise ValueError("latency faults need latency_s > 0")
        self._injections.append(
            _Injection(
                kind=kind,
                trajectory=int(trajectory),
                window=None if window is None else int(window),
                level=level,
                remaining=times,
                latency_s=latency_s,
            )
        )
        return self

    def pop(
        self, kind: str, trajectory: int, window: int, level: str
    ) -> Optional[_Injection]:
        """Fire (and account) the first matching injection; returns it, if any."""
        for injection in self._injections:
            if injection.matches(kind, trajectory, window, level):
                if injection.remaining is not None:
                    injection.remaining -= 1
                return injection
        return None
