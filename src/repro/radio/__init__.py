"""LTE radio substrate: KPI physics, propagation, cells, handover, simulator."""

from .kpis import (
    CQI_SINR_THRESHOLDS_DB,
    CQI_SPECTRAL_EFFICIENCY,
    DEFAULT_N_RB,
    KPI,
    KPI_RANGES,
    KpiSpec,
    cqi_from_sinr,
    db_to_linear,
    linear_to_db,
    rsrp_from_rssi,
    rsrq_db,
    rssi_from_rsrp,
    rssi_from_rsrp_rsrq,
    spectral_efficiency_from_cqi,
    thermal_noise_dbm,
)
from .antenna import SectorAntenna, wrap_angle_deg
from .propagation import FastFadingModel, PathlossModel, ShadowingModel
from .cells import Cell, CellDeployment, deploy_city, deploy_highway
from .association import (
    HandoverConfig,
    cell_dwell_times,
    handover_times,
    inter_handover_times,
    select_serving_cells,
)
from .qoe_truth import QoETruthModel
from .simulator import DriveTestRecord, DriveTestSimulator

__all__ = [
    "KPI",
    "KPI_RANGES",
    "KpiSpec",
    "DEFAULT_N_RB",
    "CQI_SINR_THRESHOLDS_DB",
    "CQI_SPECTRAL_EFFICIENCY",
    "rsrp_from_rssi",
    "rssi_from_rsrp",
    "rsrq_db",
    "rssi_from_rsrp_rsrq",
    "cqi_from_sinr",
    "spectral_efficiency_from_cqi",
    "db_to_linear",
    "linear_to_db",
    "thermal_noise_dbm",
    "SectorAntenna",
    "wrap_angle_deg",
    "PathlossModel",
    "ShadowingModel",
    "FastFadingModel",
    "Cell",
    "CellDeployment",
    "deploy_city",
    "deploy_highway",
    "HandoverConfig",
    "select_serving_cells",
    "handover_times",
    "inter_handover_times",
    "cell_dwell_times",
    "QoETruthModel",
    "DriveTestRecord",
    "DriveTestSimulator",
]
