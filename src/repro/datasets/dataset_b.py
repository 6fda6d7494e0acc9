"""Synthetic equivalent of the paper's Dataset B.

The original: the public CNI Dortmund-area dataset (Sliwa et al.), collected
with an Android app on OnePlus 8 phones at coarser, chipset-dependent
granularity (~2-4 s), spanning several cities connected by highways.  Four
scenarios: two city-driving and two highway (paper Table 2).  Only RSRP and
RSRQ are usable in the original (which is why the paper's Dataset-B tables
report only those KPIs).

Ours: a four-city synthetic region joined by highways; city-driving routes
random-walk each city's grid, highway routes follow the inter-city links.
The ``long trajectory`` of paper §6.1.3 — ~2230 s across three cities,
mixing inner-city and highway driving — is built by
:func:`make_long_trajectory`.  :func:`make_active_learning_subsets` yields
the 23 geographically disjoint subsets used by the §6.2 measurement
efficiency study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geo.routes import CitySpec
from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord, DriveTestSimulator
from ..world.region import Region, build_region
from .base import DriveTestDataset


@dataclass(frozen=True)
class ScenarioBSpec:
    """One Dataset-B driving scenario."""

    name: str
    city: Optional[str]  # None => highway between cities
    speed_mps: float
    interval_s: float
    samples_target: int


#: Paper Table 2 scenario parameters.
DATASET_B_SCENARIOS = (
    ScenarioBSpec("city_driving_1", "nordstadt", 9.1, 3.8, 21000),
    ScenarioBSpec("city_driving_2", "suedstadt", 9.8, 3.5, 23000),
    ScenarioBSpec("highway_1", None, 26.7, 2.1, 39000),
    ScenarioBSpec("highway_2", None, 31.1, 2.3, 46000),
)

#: Sampling interval of the long trajectory (§6.1.3).
LONG_TRAJECTORY_INTERVAL_S = 2.5
#: Sampling interval of the active-learning subsets (§6.2).
ACTIVE_LEARNING_INTERVAL_S = 3.0

#: City layout: four cities in a rough line, highway-connected.
DATASET_B_CITIES = (
    CitySpec("nordstadt", 51.51, 7.46, half_extent_m=1800.0, street_spacing_m=260.0),
    CitySpec("suedstadt", 51.47, 7.55, half_extent_m=1800.0, street_spacing_m=260.0),
    CitySpec("weststadt", 51.43, 7.64, half_extent_m=1500.0, street_spacing_m=280.0),
    CitySpec("oststadt", 51.39, 7.73, half_extent_m=1500.0, street_spacing_m=280.0),
)


def build_region_b(seed: int = 11) -> Region:
    """The shared Dataset-B region (used by dataset, long trajectory, subsets)."""
    rng = np.random.default_rng(seed)
    return build_region(
        list(DATASET_B_CITIES),
        rng,
        city_site_density_per_km2=5.0,
        highway_site_spacing_m=1800.0,
        land_use_pixel_m=150.0,
    )


def make_dataset_b(
    seed: int = 11,
    samples_per_scenario: Optional[int] = None,
    trajectories_per_scenario: int = 4,
    region: Optional[Region] = None,
) -> DriveTestDataset:
    """Build the synthetic Dataset B (see module docstring)."""
    rng = np.random.default_rng(seed + 1)
    region = region or build_region_b(seed)
    simulator = DriveTestSimulator(region, candidate_range_m=4500.0)
    dataset = DriveTestDataset(name="dataset_b", region=region, simulator=simulator)

    highway_pairs = [("nordstadt", "suedstadt"), ("suedstadt", "weststadt"),
                     ("weststadt", "oststadt")]
    for spec in DATASET_B_SCENARIOS:
        total = samples_per_scenario or spec.samples_target
        per_traj = max(30, total // trajectories_per_scenario)
        for k in range(trajectories_per_scenario):
            if spec.city is not None:
                length_m = per_traj * spec.interval_s * spec.speed_mps * 1.05
                route = region.roads.random_walk_route(rng, length_m, city=spec.city)
            else:
                a, b = highway_pairs[k % len(highway_pairs)]
                route = region.roads.intercity_route(a, b, rng, city_detour_m=400.0)
            trajectory = region.roads.route_to_trajectory(
                route, spec.speed_mps, spec.interval_s, scenario=spec.name, rng=rng
            )
            if len(trajectory) > per_traj:
                trajectory = trajectory.slice(0, per_traj)
            record = simulator.simulate(trajectory, rng)
            dataset.records.append(record)
    return dataset


def make_long_trajectory(
    region: Region,
    seed: int = 23,
    target_duration_s: float = 2230.0,
) -> Trajectory:
    """The §6.1.3 long & complex trajectory: three cities + highway legs.

    City segments drive at city speed, highway legs at highway speed; the
    result is one continuous multi-scenario trajectory of roughly the
    paper's 2230 s duration.
    """
    rng = np.random.default_rng(seed)
    cities = ["nordstadt", "suedstadt", "weststadt"]
    trajectory: Optional[Trajectory] = None
    for a, b in zip(cities[:-1], cities[1:]):
        route = region.roads.intercity_route(a, b, rng, city_detour_m=900.0)
        leg = region.roads.route_to_trajectory(
            route, 18.0, LONG_TRAJECTORY_INTERVAL_S, scenario="long_complex", rng=rng
        )
        trajectory = leg if trajectory is None else trajectory.concat(leg)
    assert trajectory is not None
    max_samples = int(target_duration_s / LONG_TRAJECTORY_INTERVAL_S)
    if len(trajectory) > max_samples:
        trajectory = trajectory.slice(0, max_samples)
    return trajectory


def make_active_learning_subsets(
    region: Region,
    seed: int = 31,
    n_subsets: int = 23,
    samples_per_subset: int = 400,
) -> List[DriveTestRecord]:
    """Geographically disjoint measurement subsets for the §6.2 study.

    Each subset is one record anchored at a distinct start node spread over
    the whole region (cities round-robin), so subsets differ in the scenario
    mix and environment they cover.
    """
    rng = np.random.default_rng(seed)
    simulator = DriveTestSimulator(region, candidate_range_m=4500.0)
    city_names = [c.name for c in region.cities]
    records: List[DriveTestRecord] = []
    for k in range(n_subsets):
        city = city_names[k % len(city_names)]
        speed = 9.0 if k % 3 else 22.0
        length_m = samples_per_subset * ACTIVE_LEARNING_INTERVAL_S * speed * 1.1
        if k % 3 == 0 and len(city_names) > 1:
            other = city_names[(k // 3 + 1) % len(city_names)]
            if other != city:
                route = region.roads.intercity_route(city, other, rng, city_detour_m=300.0)
            else:
                route = region.roads.random_walk_route(rng, length_m, city=city)
        else:
            route = region.roads.random_walk_route(rng, length_m, city=city)
        trajectory = region.roads.route_to_trajectory(
            route, speed, ACTIVE_LEARNING_INTERVAL_S, scenario=f"subset_{k}", rng=rng
        )
        if len(trajectory) > samples_per_subset:
            trajectory = trajectory.slice(0, samples_per_subset)
        records.append(simulator.simulate(trajectory, rng))
    return records
