"""Circuit breaker around the GenDT model call.

A burst of consecutive generation faults usually means something systemic —
a corrupted checkpoint, a context pipeline bug, an exhausted accelerator —
and hammering the model with the rest of a campaign only makes the incident
worse.  The breaker implements the classic three-state machine:

* **closed** — requests flow; ``failure_threshold`` *consecutive* faults
  trip it open.
* **open** — the model is not called at all (the runner demotes affected
  trajectories straight to the model-free FDaS rung); after a cool-down the
  breaker admits exactly one probe.
* **half-open** — the probe's outcome decides: success closes the breaker,
  failure re-opens it with the *next* (longer) cool-down.

Trip ``k`` (0-based) cools down for exactly
``COOLDOWN_BASE_S * COOLDOWN_FACTOR ** min(k, MAX_TRIPS - 1)`` seconds:
1, 2, 4, … s, capped from the :data:`MAX_TRIPS`-th trip on.  The breaker
guards one process's model, so there is no herd of clients whose retries a
jitter would spread.  The clock is injectable; tests drive the state
machine with a fake clock and never sleep.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

#: The first trip's cool-down, in seconds.
COOLDOWN_BASE_S = 1.0
#: Growth of the cool-down from one trip to the next.
COOLDOWN_FACTOR = 2.0
#: Trips with their own cool-down; later trips reuse the last one.
MAX_TRIPS = 8


class CircuitBreaker:
    """Consecutive-failure circuit breaker with exponential cool-downs.

    Args:
        failure_threshold: consecutive faults (while closed) that trip the
            breaker open.
        clock: monotonic-seconds source; defaults to :func:`time.monotonic`.

    ``transitions`` lists every state change as a dict with the keys
    ``at_s`` (the clock reading), ``from``, ``to`` and ``reason``.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self._clock = clock if clock is not None else time.monotonic
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._trips = 0
        self._cooldown_s = 0.0
        self._opened_at: Optional[float] = None
        self.transitions: List[Dict[str, Any]] = []

    @property
    def state(self) -> str:
        return self._state

    def cooldown_remaining_s(self) -> float:
        if self._state != STATE_OPEN or self._opened_at is None:
            return 0.0
        return max(0.0, self._cooldown_s - (self._clock() - self._opened_at))

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
        self._cooldown_s = COOLDOWN_BASE_S * COOLDOWN_FACTOR ** min(
            self._trips, MAX_TRIPS - 1
        )
        self._trips += 1
        self._consecutive_failures = 0
        self._opened_at = self._clock()
        self._transition(STATE_OPEN, reason)

    def _transition(self, to_state: str, reason: str) -> None:
        self.transitions.append({
            "at_s": round(float(self._clock()), 6),
            "from": self._state,
            "to": to_state,
            "reason": reason,
        })
        self._state = to_state
