"""The one real sleep of the serving layer.

Serving code never names ``time.sleep``: it takes an injectable sleep that
defaults to :data:`REAL_SLEEP`, so tests drive deadlines and breaker
cool-downs with a fake clock and never wait.
"""

from __future__ import annotations

import time

#: The wall-clock sleep used when a caller wants real delays.  Serving-layer
#: code must reference this (or take an injected sleep) instead of naming
#: ``time.sleep`` directly — lint rule RTY001 enforces it, so every real
#: delay flows through one audited spot and stays injectable in tests.
REAL_SLEEP = time.sleep
