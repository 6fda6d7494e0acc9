"""Fault-tolerant training & generation runtime.

The pieces a production GenDT deployment leans on when things go wrong:

* :mod:`~repro.runtime.errors` — structured exception taxonomy
  (retryable vs fatal);
* :mod:`~repro.runtime.guards` — NaN/divergence watchdog with
  rollback-and-backoff recovery for the trainer;
* :mod:`~repro.runtime.checkpoint` — atomic, checksummed, resumable
  training checkpoints with rotating retention;
* :mod:`~repro.runtime.retry` — the serving layer's one real sleep;
* :mod:`~repro.runtime.validate` — generation-boundary input validation.
"""

from .errors import (
    CheckpointCorruptError,
    ContextValidationError,
    DeadlineExceeded,
    DivergenceError,
    GenDTRuntimeError,
    GenerationFaultError,
    NumericalAnomalyError,
)
from .guards import FAULT_KINDS, GuardEvent, HealthGuard
from .checkpoint import (
    SCHEMA_VERSION,
    CheckpointManager,
    capture_trainer_state,
    read_checkpoint,
    restore_trainer_state,
    write_checkpoint,
)
from .retry import REAL_SLEEP
from .validate import validate_trajectory, validate_windows

__all__ = [
    "GenDTRuntimeError",
    "DivergenceError",
    "CheckpointCorruptError",
    "ContextValidationError",
    "NumericalAnomalyError",
    "DeadlineExceeded",
    "GenerationFaultError",
    "HealthGuard",
    "GuardEvent",
    "FAULT_KINDS",
    "CheckpointManager",
    "SCHEMA_VERSION",
    "write_checkpoint",
    "read_checkpoint",
    "capture_trainer_state",
    "restore_trainer_state",
    "REAL_SLEEP",
    "validate_trajectory",
    "validate_windows",
]
