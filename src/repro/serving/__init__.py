"""Resilient batch-generation service for GenDT.

The serving layer turns ``GenDT.generate`` — an all-or-nothing call — into a
production-shaped campaign runtime: per-request admission and quarantine,
wall-clock deadlines, a circuit breaker around the model, and a graceful
degradation ladder, all observable through structured result envelopes and
deterministic under an injected clock and :class:`FaultPlan`.

The ladder's rungs trade fidelity for robustness:

1. ``full`` — the complete stochastic GenDT pipeline (G_n + G_a + ResGen);
2. ``first_stage`` — ResGen skipped and no noise drawn: all context
   conditioning kept, the shadowing texture lost, the same series on every
   attempt;
3. ``fdas`` — the context-free FDaS baseline, when a fallback is given: no
   model call at all, so it also serves while the breaker is open.

Quick tour::

    from repro.serving import CampaignConfig, CampaignRunner

    runner = CampaignRunner(model, fdas=fallback,
                            config=CampaignConfig(trajectory_deadline_s=30.0))
    result = runner.run(trajectories)          # never raises per-request
    result.to_jsonl("campaign.jsonl")          # envelopes + fault log
    print(result.summary())

See :mod:`repro.serving.runner` for the isolation layers and the README's
"Resilient generation" section for the envelope schema.
"""

from .breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from .envelope import (
    DEGRADATION_LEVELS,
    STATUS_CANCELLED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUSES,
    CampaignResult,
    FaultRecord,
    GenerationEnvelope,
)
from .faults import FAULT_KINDS, FaultPlan
from .runner import CampaignConfig, CampaignRunner, ManualClock

__all__ = [
    "CampaignRunner",
    "CampaignConfig",
    "CampaignResult",
    "GenerationEnvelope",
    "FaultRecord",
    "ManualClock",
    "CircuitBreaker",
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "FaultPlan",
    "FAULT_KINDS",
    "DEGRADATION_LEVELS",
    "STATUSES",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "STATUS_DEADLINE",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
]
