"""MDT / crowdsourcing measurement substitutes (paper §1, §7.2).

The paper motivates GenDT against two user-device-based alternatives it
could not compare with for lack of data:

* **MDT** (minimization of drive tests): measurements from consenting user
  devices — spatially *skewed* toward where participating users happen to
  be, and sparse where they are not;
* **crowdsourcing** (OpenSignal-style apps): limited by OS APIs to coarse
  signal-strength sampling at low and irregular rates.

This module synthesizes both from the same radio substrate, so the
coverage-map use case can quantify the sparsity/skew problems the paper
cites (Shodamola et al.) and compare them with GenDT-generated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..radio.simulator import DriveTestSimulator
from ..world.region import Region

#: The KPI that MDT, crowdsourcing and GenDT coverage measurements report.
COVERAGE_KPI = "rsrp"
#: Crowdsourcing's reporting period (app wake-ups), in seconds.
CROWD_REPORT_PERIOD_S = 30.0
#: Crowdsourcing's reading granularity (OS API quantization), in dB.
CROWD_QUANTIZATION_DB = 2.0
#: Length of each route the operator chooses for GenDT pseudo-measurements.
GENDT_ROUTE_LENGTH_M = 1500.0


@dataclass
class SparseMeasurements:
    """Point samples of a KPI with locations: the MDT/crowdsourcing output."""

    lat: np.ndarray
    lon: np.ndarray
    value: np.ndarray
    kpi: str = COVERAGE_KPI

    def __len__(self) -> int:
        return len(self.value)

    def concat(self, other: "SparseMeasurements") -> "SparseMeasurements":
        if other.kpi != self.kpi:
            raise ValueError("cannot concatenate different KPIs")
        return SparseMeasurements(
            np.concatenate([self.lat, other.lat]),
            np.concatenate([self.lon, other.lon]),
            np.concatenate([self.value, other.value]),
            self.kpi,
        )


def mdt_campaign(
    region: Region,
    rng: np.random.Generator,
    n_users: int = 20,
    report_period_s: float = 10.0,
    participation: float = 0.3,
    hotspot_bias: float = 0.7,
) -> SparseMeasurements:
    """Synthesize an MDT collection round.

    Each simulated user walks/drives a short route; only a ``participation``
    fraction consents to reporting, and consenting users are biased toward
    the urban core with probability ``hotspot_bias`` (the spatial-skew
    problem): MDT density follows people, not measurement need.
    """
    simulator = DriveTestSimulator(region, candidate_range_m=3000.0)
    city_names = [c.name for c in region.cities]
    lats: List[np.ndarray] = []
    lons: List[np.ndarray] = []
    values: List[np.ndarray] = []
    for _ in range(n_users):
        if rng.random() > participation:
            continue
        # Spatially skewed start: hotspot users cluster in the first city.
        city = city_names[0] if rng.random() < hotspot_bias else city_names[
            int(rng.integers(len(city_names)))
        ]
        speed = float(rng.uniform(1.0, 15.0))
        length_m = float(rng.uniform(300.0, 1500.0))
        route = region.roads.random_walk_route(rng, length_m, city=city)
        trajectory = region.roads.route_to_trajectory(
            route, speed, 1.0, scenario="mdt", rng=rng
        )
        if len(trajectory) < 3:
            continue
        record = simulator.simulate(trajectory, rng)
        # Devices report at the MDT periodicity, not every second.
        stride = max(1, int(round(report_period_s / trajectory.sample_interval_s)))
        idx = np.arange(0, len(trajectory), stride)
        lats.append(trajectory.lat[idx])
        lons.append(trajectory.lon[idx])
        values.append(record.kpi[COVERAGE_KPI][idx])
    if not values:
        return SparseMeasurements(np.zeros(0), np.zeros(0), np.zeros(0))
    return SparseMeasurements(np.concatenate(lats), np.concatenate(lons), np.concatenate(values))


def crowdsourced_campaign(
    region: Region,
    rng: np.random.Generator,
    n_users: int = 40,
) -> SparseMeasurements:
    """Synthesize a crowdsourced (OpenSignal-style) collection round.

    Coarser: long reporting periods (app wake-ups) and quantized readings
    (OS API granularity), but broader user spread than MDT.
    """
    raw = mdt_campaign(
        region, rng,
        n_users=n_users, report_period_s=CROWD_REPORT_PERIOD_S,
        participation=0.8, hotspot_bias=0.3,
    )
    quantized = np.round(raw.value / CROWD_QUANTIZATION_DB) * CROWD_QUANTIZATION_DB
    return SparseMeasurements(raw.lat, raw.lon, quantized)


@dataclass
class CoverageMap:
    """Gridded KPI map over a region (the coverage-mapping use case)."""

    frame_origin: Tuple[float, float]
    x_edges: np.ndarray
    y_edges: np.ndarray
    mean: np.ndarray       #: [rows, cols], NaN where no data
    counts: np.ndarray

    @property
    def fill_fraction(self) -> float:
        """Fraction of grid pixels with at least one sample."""
        return float((self.counts > 0).mean())

    def error_vs(self, other: "CoverageMap") -> float:
        """Mean |difference| over pixels both maps cover."""
        both = (self.counts > 0) & (other.counts > 0)
        if not both.any():
            return float("inf")
        return float(np.abs(self.mean[both] - other.mean[both]).mean())


def build_coverage_map(
    region: Region,
    measurements: SparseMeasurements,
    pixel_m: float = 200.0,
    extent_m: float = 2500.0,
) -> CoverageMap:
    """Bin sparse measurements into a mean-KPI grid around the region origin."""
    frame = region.frame
    x, y = frame.to_xy(measurements.lat, measurements.lon)
    edges = np.arange(-extent_m, extent_m + pixel_m, pixel_m)
    n = len(edges) - 1
    sums = np.zeros((n, n))
    counts = np.zeros((n, n))
    xi = np.clip(np.digitize(x, edges) - 1, 0, n - 1)
    yi = np.clip(np.digitize(y, edges) - 1, 0, n - 1)
    inside = (x >= -extent_m) & (x < extent_m) & (y >= -extent_m) & (y < extent_m)
    np.add.at(sums, (yi[inside], xi[inside]), measurements.value[inside])
    np.add.at(counts, (yi[inside], xi[inside]), 1.0)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return CoverageMap(
        frame_origin=(frame.lat0, frame.lon0),
        x_edges=edges, y_edges=edges, mean=mean, counts=counts,
    )


def gendt_coverage_measurements(
    model,
    region: Region,
    rng: np.random.Generator,
    n_routes: int = 12,
) -> SparseMeasurements:
    """Generate GenDT pseudo-measurements over systematic routes.

    Unlike MDT, the operator *chooses* the routes, so coverage is uniform —
    the generative model removes the dependence on where users happen to be.
    """
    kpi_idx = model.kpi_names.index(COVERAGE_KPI)
    city_names = [c.name for c in region.cities]
    lats: List[np.ndarray] = []
    lons: List[np.ndarray] = []
    values: List[np.ndarray] = []
    for k in range(n_routes):
        city = city_names[k % len(city_names)]
        route = region.roads.random_walk_route(rng, GENDT_ROUTE_LENGTH_M, city=city)
        trajectory = region.roads.route_to_trajectory(
            route, 8.0, 2.0, scenario="gendt_map", rng=rng
        )
        if len(trajectory) < 3:
            continue
        series = model.generate(trajectory)
        lats.append(trajectory.lat)
        lons.append(trajectory.lon)
        values.append(series[:, kpi_idx])
    return SparseMeasurements(np.concatenate(lats), np.concatenate(lons), np.concatenate(values))
