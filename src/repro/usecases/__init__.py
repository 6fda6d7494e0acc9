"""Downstream drive-testing use cases (paper §6.3 and §C.2)."""

from .qoe import QOE_TARGETS, QoEPredictor, evaluate_qoe_prediction
from .handover import (
    HandoverComparison,
    compare_handover_distributions,
    handover_intervals_from_series,
    real_handover_intervals,
)
from .cell_load import CellLoadEstimator, LOAD_FEATURES
from .bandwidth import (
    BANDWIDTH_FEATURES,
    LinkBandwidthPredictor,
    bandwidth_features,
    handover_indicator,
)
from .video_qoe import (
    DEFAULT_LADDER,
    PlayerConfig,
    VideoSession,
    simulate_session,
)
from .whatif import (
    deployment_override,
    with_new_site,
    with_power_offset,
    without_cells,
)

__all__ = [
    "QoEPredictor",
    "QOE_TARGETS",
    "evaluate_qoe_prediction",
    "HandoverComparison",
    "compare_handover_distributions",
    "handover_intervals_from_series",
    "real_handover_intervals",
    "CellLoadEstimator",
    "LOAD_FEATURES",
    "LinkBandwidthPredictor",
    "BANDWIDTH_FEATURES",
    "bandwidth_features",
    "handover_indicator",
    "PlayerConfig",
    "VideoSession",
    "DEFAULT_LADDER",
    "simulate_session",
    "with_power_offset",
    "with_new_site",
    "without_cells",
    "deployment_override",
]
