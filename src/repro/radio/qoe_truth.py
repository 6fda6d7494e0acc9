"""Ground-truth QoE model: throughput and packet error rate from link KPIs.

The paper's QoE downstream use case (§6.3.1) relies on iPerf3 throughput and
PER measured alongside the radio KPIs in Dataset A.  We substitute a
physically-grounded mapping: downlink throughput follows the spectral
efficiency of the CQI-selected MCS over the UE's share of the bandwidth
(1 - cell load), and PER follows a logistic BLER-style curve in SINR with an
operating-point offset per CQI.  Both get multiplicative measurement noise so
the QoE predictor has realistic residual error even on real KPI inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .kpis import BANDWIDTH_HZ, spectral_efficiency_from_cqi


@dataclass(frozen=True)
class QoETruthModel:
    """Maps (SINR, CQI, load) to throughput (Mbps) and PER."""

    bandwidth_hz: float = BANDWIDTH_HZ
    efficiency_factor: float = 0.65  # protocol overhead vs. Shannon-style bound
    throughput_noise_cv: float = 0.10
    per_floor: float = 0.005
    per_noise_cv: float = 0.15
    bler_slope_db: float = 1.5
    bler_offset_db: float = -4.0

    def throughput_mbps(
        self, cqi: np.ndarray, load: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """UE downlink throughput: MCS spectral efficiency x free bandwidth."""
        eff = spectral_efficiency_from_cqi(np.asarray(cqi))
        share = np.clip(1.0 - np.asarray(load, dtype=float), 0.05, 1.0)
        clean = self.efficiency_factor * eff * share * self.bandwidth_hz / 1e6
        noise = np.clip(rng.normal(1.0, self.throughput_noise_cv, size=np.shape(clean)), 0.5, 1.5)
        return clean * noise

    def packet_error_rate(
        self, sinr_db: np.ndarray, cqi: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """PER from a logistic BLER curve around the CQI operating point.

        Link adaptation targets ~10 % BLER, so PER rises when the actual SINR
        falls below the threshold the scheduler assumed for the chosen CQI.
        """
        from .kpis import CQI_SINR_THRESHOLDS_DB

        cqi_idx = np.clip(np.asarray(cqi, dtype=int) - 1, 0, 14)
        target = CQI_SINR_THRESHOLDS_DB[cqi_idx] + self.bler_offset_db
        margin_db = np.asarray(sinr_db, dtype=float) - target
        bler = 1.0 / (1.0 + np.exp(margin_db / self.bler_slope_db))
        noise = np.clip(rng.normal(1.0, self.per_noise_cv, size=np.shape(bler)), 0.3, 2.0)
        return np.clip(bler * noise + self.per_floor, 0.0, 1.0)

    def generate(
        self,
        sinr_db: np.ndarray,
        cqi: np.ndarray,
        load: np.ndarray,
        rng: np.random.Generator,
    ) -> Dict[str, np.ndarray]:
        return {
            "throughput_mbps": self.throughput_mbps(cqi, load, rng),
            "per": self.packet_error_rate(sinr_db, cqi, rng),
        }
