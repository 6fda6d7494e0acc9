"""Synthetic equivalent of the paper's Dataset A.

The original: first-hand Nemo Handy measurements at 1 s granularity in and
around one city centre, under three mobility scenarios — walking (1.4 m/s),
bus (5.6 m/s), tram (11.5 m/s) — roughly 14-15 k samples each (paper
Table 1), with iPerf3 throughput/PER collected alongside (used by the QoE
use case).

Ours: one dense synthetic city, routes random-walked over its street grid at
the same speeds and sampling interval, KPIs from the calibrated drive-test
simulator, QoE ground truth attached to every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geo.routes import CitySpec
from ..radio.simulator import DriveTestSimulator
from ..world.region import build_region
from .base import DriveTestDataset


@dataclass(frozen=True)
class ScenarioASpec:
    """One Dataset-A mobility scenario."""

    name: str
    speed_mps: float
    interval_s: float
    samples_target: int


#: Paper Table 1 scenario parameters (sample counts are the paper's).
DATASET_A_SCENARIOS = (
    ScenarioASpec("walk", 1.4, 1.0, 15245),
    ScenarioASpec("bus", 5.6, 1.0, 13890),
    ScenarioASpec("tram", 11.5, 1.0, 14198),
)


def make_dataset_a(
    seed: int = 7,
    samples_per_scenario: Optional[int] = None,
    trajectories_per_scenario: int = 4,
    with_qoe: bool = True,
) -> DriveTestDataset:
    """Build the synthetic Dataset A.

    Args:
        seed: master seed; the whole dataset is deterministic given it.
        samples_per_scenario: total measurement samples per scenario.
            Defaults to the paper's counts (Table 1); pass a smaller number
            for fast tests.
        trajectories_per_scenario: how many independent routes the samples
            are spread over (the split needs >= 2 to hold out a route).
        with_qoe: attach throughput/PER ground truth (Dataset A has it).
    """
    rng = np.random.default_rng(seed)
    city = CitySpec("cityA", 51.50, -0.12, half_extent_m=2000.0, street_spacing_m=250.0)
    region = build_region([city], rng, city_site_density_per_km2=7.0)
    simulator = DriveTestSimulator(region, candidate_range_m=2500.0)

    dataset = DriveTestDataset(name="dataset_a", region=region, simulator=simulator)
    for spec in DATASET_A_SCENARIOS:
        total = samples_per_scenario or spec.samples_target
        per_traj = max(30, total // trajectories_per_scenario)
        for _ in range(trajectories_per_scenario):
            # Route long enough to yield per_traj samples at this speed.
            length_m = per_traj * spec.interval_s * spec.speed_mps * 1.05
            route = region.roads.random_walk_route(rng, length_m, city="cityA")
            trajectory = region.roads.route_to_trajectory(
                route, spec.speed_mps, spec.interval_s, scenario=spec.name, rng=rng
            )
            if len(trajectory) > per_traj:
                trajectory = trajectory.slice(0, per_traj)
            record = simulator.simulate(trajectory, rng, with_qoe=with_qoe)
            dataset.records.append(record)
    return dataset
