"""Exponential backoff with deterministic jitter, and the one real sleep.

The serving layer's circuit breaker (``serving.breaker``) takes its
cool-downs from :func:`backoff_schedule`, so two runs with the same seed back
off identically.  The jitter source is a seeded
:class:`numpy.random.Generator` and the sleep is injectable, so tests
exercise the full schedule without touching the wall clock.
"""

from __future__ import annotations

import time

import numpy as np

#: The wall-clock sleep used when a caller wants real delays.  Serving-layer
#: code must reference this (or take an injected sleep) instead of naming
#: ``time.sleep`` directly — lint rule RTY001 enforces it, so every real
#: cool-down flows through one audited spot and stays injectable in tests.
REAL_SLEEP = time.sleep


def backoff_schedule(
    retries: int,
    backoff: float,
    factor: float = 2.0,
    jitter: float = 0.25,
    seed: int = 0,
) -> list:
    """``retries`` deterministic delays: ``backoff * factor**k`` with seeded jitter.

    Delay ``k`` (0-based) is scaled by a jitter in ``[1 - jitter, 1 + jitter]``
    drawn from a generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    return [
        backoff * factor**attempt * (1.0 + jitter * float(rng.uniform(-1.0, 1.0)))
        for attempt in range(retries)
    ]
