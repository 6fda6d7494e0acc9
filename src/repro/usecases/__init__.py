"""Downstream drive-testing use cases (paper §6.3): QoE prediction and
handover analysis, plus the what-if deployment edit of §C.2."""

from .qoe import QOE_TARGETS, QoEPredictor, evaluate_qoe_prediction
from .handover import (
    HandoverComparison,
    compare_handover_distributions,
    handover_intervals_from_series,
    real_handover_intervals,
)
from .whatif import deployment_override, with_new_site

__all__ = [
    "QoEPredictor",
    "QOE_TARGETS",
    "evaluate_qoe_prediction",
    "HandoverComparison",
    "compare_handover_distributions",
    "handover_intervals_from_series",
    "real_handover_intervals",
    "with_new_site",
    "deployment_override",
]
