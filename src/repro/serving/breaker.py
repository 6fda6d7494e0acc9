"""Circuit breaker around the GenDT model call.

A burst of consecutive generation faults usually means something systemic —
a corrupted checkpoint, a context pipeline bug, an exhausted accelerator —
and hammering the model with the rest of a million-trajectory campaign only
makes the incident worse.  The breaker implements the classic three-state
machine:

* **closed** — requests flow; ``failure_threshold`` *consecutive* faults
  trip it open.
* **open** — the model is not called at all (the runner demotes affected
  trajectories straight to the model-free FDaS rung); after a cool-down the
  breaker admits exactly one probe.
* **half-open** — the probe's outcome decides: success closes the breaker,
  failure re-opens it with the *next* (longer) cool-down.

Cool-downs come from :func:`repro.runtime.retry.backoff_schedule`, a
deterministic exponential-with-jitter schedule, so successive trips back off
exponentially and two runs with the same seed cool down identically.  The
clock is injectable; tests drive the state machine with a fake clock and
never sleep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..runtime.errors import CircuitOpenError
from ..runtime.retry import backoff_schedule

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


@dataclass
class BreakerTransition:
    """One state change, stamped with the injectable clock."""

    at_s: float
    from_state: str
    to_state: str
    reason: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "at_s": round(float(self.at_s), 6),
            "from": self.from_state,
            "to": self.to_state,
            "reason": self.reason,
        }


class CircuitBreaker:
    """Consecutive-failure circuit breaker with scheduled cool-downs.

    Args:
        failure_threshold: consecutive faults (while closed) that trip the
            breaker open.
        cooldown_base_s: base cool-down; trip ``k`` (0-based) cools down for
            ``backoff_schedule(...)[k]`` seconds, clamped to the last entry
            once the schedule is exhausted.
        cooldown_factor: exponential growth factor between successive trips.
        max_trips: length of the precomputed cool-down schedule.
        seed: seed for the deterministic cool-down jitter.
        clock: monotonic-seconds source; defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_base_s: float = 1.0,
        cooldown_factor: float = 2.0,
        max_trips: int = 8,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_base_s < 0:
            raise ValueError("cooldown_base_s must be >= 0")
        self.failure_threshold = failure_threshold
        self._cooldowns = backoff_schedule(
            max_trips, cooldown_base_s, factor=cooldown_factor, seed=seed
        )
        self._clock = clock if clock is not None else time.monotonic
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._trip_count = 0
        self._opened_at: Optional[float] = None
        self.transitions: List[BreakerTransition] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def trip_count(self) -> int:
        """How many times the breaker has opened over its lifetime."""
        return self._trip_count

    def current_cooldown_s(self) -> float:
        """The cool-down for the most recent trip."""
        index = min(max(self._trip_count - 1, 0), len(self._cooldowns) - 1)
        return self._cooldowns[index]

    def cooldown_remaining_s(self) -> float:
        if self._state != STATE_OPEN or self._opened_at is None:
            return 0.0
        remaining = self.current_cooldown_s() - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the protected call proceed right now?

        While open, returns ``False`` until the cool-down elapses, then
        transitions to half-open and admits one probe.
        """
        if self._state == STATE_OPEN:
            if self.cooldown_remaining_s() > 0.0:
                return False
            self._transition(STATE_HALF_OPEN, "cooldown elapsed; admitting probe")
        return True

    def check(self) -> None:
        """Like :meth:`allow` but raises :class:`CircuitOpenError` when shut."""
        if not self.allow():
            remaining = self.cooldown_remaining_s()
            raise CircuitOpenError(
                f"circuit open for another {remaining:.3f}s "
                f"(trip {self._trip_count})",
                cooldown_remaining_s=remaining,
            )

    def record_success(self) -> None:
        """The protected call completed cleanly."""
        self._consecutive_failures = 0
        if self._state == STATE_HALF_OPEN:
            self._transition(STATE_CLOSED, "probe succeeded")

    def record_failure(self) -> None:
        """The protected call faulted."""
        if self._state == STATE_HALF_OPEN:
            self._open("probe failed")
            return
        self._consecutive_failures += 1
        if (
            self._state == STATE_CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open(
                f"{self._consecutive_failures} consecutive failures "
                f">= threshold {self.failure_threshold}"
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open(self, reason: str) -> None:
        self._trip_count += 1
        self._consecutive_failures = 0
        self._opened_at = self._clock()
        self._transition(STATE_OPEN, reason)

    def _transition(self, to_state: str, reason: str) -> None:
        self.transitions.append(
            BreakerTransition(
                at_s=self._clock(),
                from_state=self._state,
                to_state=to_state,
                reason=reason,
            )
        )
        self._state = to_state
