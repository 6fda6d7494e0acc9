"""LTE radio KPI definitions and their analytic relationships.

Implements the representative KPI set of paper §2.2 — RSRP, RSRQ, RSSI,
SINR, CQI — together with the relations the paper states:

* ``RSRP(dBm) = RSSI(dBm) - 10*log10(12*N_RB)`` (full-load approximation),
* ``RSRQ(dB)  = 10*log10(N_RB) + RSRP(dBm) - RSSI(dBm)``,

so that, given any two of RSRP/RSRQ/RSSI, the third can be derived.  CQI is
obtained from SINR via the standard 3GPP-flavored threshold table used for
link adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Union

import numpy as np

Array = Union[float, np.ndarray]


class KPI(str, Enum):
    """Radio KPIs GenDT generates (serving cell is the handover use case)."""

    RSRP = "rsrp"
    RSRQ = "rsrq"
    RSSI = "rssi"
    SINR = "sinr"
    CQI = "cqi"
    SERVING_CELL = "serving_cell"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Plausible physical ranges (used for clipping generated output and for
#: property tests).  RSRP: -140 (bad) .. -44 (good) dBm; RSRQ: -19.5 .. -3 dB.
KPI_RANGES: Dict[KPI, tuple] = {
    KPI.RSRP: (-140.0, -44.0),
    KPI.RSRQ: (-19.5, -3.0),
    KPI.RSSI: (-113.0, -10.0),
    KPI.SINR: (-10.0, 30.0),
    KPI.CQI: (1.0, 15.0),
}

#: Default LTE bandwidth configuration: 10 MHz -> 50 resource blocks.
DEFAULT_N_RB = 50
#: The bandwidth those resource blocks occupy: 50 RB x 180 kHz.
BANDWIDTH_HZ = 9e6
#: The UE receiver's noise figure, dB.
NOISE_FIGURE_DB = 7.0


def rsrp_from_rssi(rssi_dbm: Array) -> Array:
    """RSRP from wideband RSSI under the full-allocation assumption."""
    return np.asarray(rssi_dbm) - 10.0 * np.log10(12.0 * DEFAULT_N_RB)


def rssi_from_rsrp(rsrp_dbm: Array, n_rb: int = DEFAULT_N_RB) -> Array:
    """Invert :func:`rsrp_from_rssi`."""
    return np.asarray(rsrp_dbm) + 10.0 * np.log10(12.0 * n_rb)


def rsrq_db(rsrp_dbm: Array, rssi_dbm: Array, n_rb: int = DEFAULT_N_RB) -> Array:
    """RSRQ = N_RB * RSRP / RSSI, expressed in dB."""
    return 10.0 * np.log10(n_rb) + np.asarray(rsrp_dbm) - np.asarray(rssi_dbm)


def rssi_from_rsrp_rsrq(rsrp_dbm: Array, rsrq_db_: Array) -> Array:
    """Derive RSSI given RSRP and RSRQ (the 'any two give the third' relation)."""
    return 10.0 * np.log10(DEFAULT_N_RB) + np.asarray(rsrp_dbm) - np.asarray(rsrq_db_)


# ----------------------------------------------------------------------
# SINR <-> CQI
# ----------------------------------------------------------------------
#: SINR thresholds (dB) at which each CQI index 1..15 becomes usable,
#: following the commonly used link-level mapping for LTE CQI reporting.
CQI_SINR_THRESHOLDS_DB = np.array(
    [-6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7]
)

#: Spectral efficiency (bit/s/Hz) of the MCS selected at each CQI index,
#: from the 3GPP 4-bit CQI table (QPSK 78/1024 ... 64QAM 948/1024).
CQI_SPECTRAL_EFFICIENCY = np.array(
    [0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
     1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547]
)


def cqi_from_sinr(sinr_db: Array) -> Array:
    """Map SINR (dB) to the discrete CQI index in {1..15}."""
    sinr = np.atleast_1d(np.asarray(sinr_db, dtype=float))
    cqi = np.searchsorted(CQI_SINR_THRESHOLDS_DB, sinr, side="right")
    cqi = np.clip(cqi, 1, 15).astype(float)
    if np.isscalar(sinr_db) or np.asarray(sinr_db).ndim == 0:
        return float(cqi[0])
    return cqi


def spectral_efficiency_from_cqi(cqi: Array) -> Array:
    """Spectral efficiency (bit/s/Hz) for a CQI index (vectorized)."""
    idx = np.clip(np.asarray(cqi, dtype=int) - 1, 0, 14)
    out = CQI_SPECTRAL_EFFICIENCY[idx]
    if np.asarray(cqi).ndim == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------
# dB helpers
# ----------------------------------------------------------------------
def db_to_linear(db: Array) -> Array:
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(linear: Array) -> Array:
    return 10.0 * np.log10(np.maximum(np.asarray(linear, dtype=float), 1e-30))


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = NOISE_FIGURE_DB) -> float:
    """Thermal noise floor: -174 dBm/Hz + 10log10(BW) + receiver noise figure."""
    return -174.0 + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class KpiSpec:
    """Which KPI channels a model generates, in which order."""

    kpis: tuple

    def __init__(self, kpis: Sequence[KPI] = (KPI.RSRP, KPI.RSRQ, KPI.SINR, KPI.CQI)) -> None:
        object.__setattr__(self, "kpis", tuple(KPI(k) for k in kpis))

    @property
    def n_channels(self) -> int:
        return len(self.kpis)

    def names(self) -> List[str]:
        return [k.value for k in self.kpis]

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip a [..., n_channels] array to physical KPI ranges; snap CQI."""
        out = np.array(values, dtype=float, copy=True)
        for idx, kpi in enumerate(self.kpis):
            if kpi in KPI_RANGES:
                lo, hi = KPI_RANGES[kpi]
                out[..., idx] = np.clip(out[..., idx], lo, hi)
            if kpi == KPI.CQI:
                out[..., idx] = np.round(out[..., idx])
        return out
