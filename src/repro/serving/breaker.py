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
deterministic exponential-with-jitter schedule (base :data:`COOLDOWN_BASE_S`,
factor :data:`COOLDOWN_FACTOR`), so successive trips back off exponentially
and two runs with the same seed cool down identically.  The
clock is injectable; tests drive the state machine with a fake clock and
never sleep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..runtime.retry import backoff_schedule

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

#: The first trip's cool-down, in seconds, before jitter.
COOLDOWN_BASE_S = 1.0
#: Growth of the cool-down from one trip to the next.
COOLDOWN_FACTOR = 2.0
#: Trips with their own cool-down; later trips reuse the last one.
MAX_TRIPS = 8


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
        seed: seed for the deterministic cool-down jitter.  Trip ``k``
            (0-based) cools down for ``backoff_schedule(...)[k]`` seconds,
            clamped to the last of the :data:`MAX_TRIPS` entries.
        clock: monotonic-seconds source; defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self._cooldowns = backoff_schedule(
            MAX_TRIPS, COOLDOWN_BASE_S, factor=COOLDOWN_FACTOR, seed=seed
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
