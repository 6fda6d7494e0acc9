"""The drive-test simulator against its loop reference, bit for bit.

``DriveTestSimulator.simulate`` must reproduce ``tests/simulator_reference.py``
exactly: every KPI series, the serving-cell and serving-load series, the
candidate set, the QoE series and the generator's state after the call.
Routes cover Dataset A's city deployment and Dataset B's mixed city and
highway cells (17 dBi, 45° sectors), at 3 samples, about 60 samples and
more than 400 samples (so candidate discovery runs at a stride of 2 or more).
"""

import numpy as np
import pytest

from repro.datasets import make_long_trajectory
from repro.radio import HandoverConfig, select_serving_cells
from tests.simulator_reference import (
    reference_candidate_cells,
    reference_select_serving_cells,
    reference_simulate,
)


def _assert_same_record(new, ref):
    assert sorted(new.kpi) == sorted(ref.kpi)
    for name in ref.kpi:
        assert np.array_equal(new.kpi[name], ref.kpi[name]), name
    assert np.array_equal(new.serving_cell_id, ref.serving_cell_id)
    assert np.array_equal(new.serving_load, ref.serving_load)
    assert new.candidate_cell_ids == ref.candidate_cell_ids
    assert sorted(new.qoe) == sorted(ref.qoe)
    for name in ref.qoe:
        assert np.array_equal(new.qoe[name], ref.qoe[name]), name


def _check(simulator, trajectory, seed, with_qoe=False):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = simulator.simulate(trajectory, rng_new, with_qoe=with_qoe)
    ref = reference_simulate(simulator, trajectory, rng_ref, with_qoe=with_qoe)
    _assert_same_record(new, ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return new


@pytest.fixture(scope="module")
def long_city_route(tiny_dataset_a):
    region = tiny_dataset_a.region
    rng = np.random.default_rng(5)
    route = region.roads.random_walk_route(rng, 450 * 5.6 * 1.05, city="cityA")
    trajectory = region.roads.route_to_trajectory(route, 5.6, 1.0, scenario="bus", rng=rng)
    assert len(trajectory) > 400
    return trajectory


@pytest.fixture(scope="module")
def long_mixed_route(tiny_dataset_b):
    trajectory = make_long_trajectory(tiny_dataset_b.region)
    assert len(trajectory) > 400
    return trajectory


@pytest.mark.parametrize("length", [3, 60])
@pytest.mark.parametrize("with_qoe", [False, True])
def test_dataset_a_route(tiny_dataset_a, length, with_qoe):
    trajectory = tiny_dataset_a.records[1].trajectory.slice(0, length)
    record = _check(tiny_dataset_a.simulator, trajectory, seed=length, with_qoe=with_qoe)
    assert len(record) == length
    assert bool(record.qoe) == with_qoe


@pytest.mark.parametrize("with_qoe", [False, True])
def test_dataset_a_long_route_strided(tiny_dataset_a, long_city_route, with_qoe):
    simulator = tiny_dataset_a.simulator
    assert len(long_city_route) // 200 >= 2
    _check(simulator, long_city_route, seed=8, with_qoe=with_qoe)


@pytest.mark.parametrize("length", [3, 60])
def test_dataset_b_highway_route(tiny_dataset_b, length):
    highway = [r for r in tiny_dataset_b.records if r.scenario.startswith("highway")]
    simulator = tiny_dataset_b.simulator
    for index, record in enumerate(highway):
        _check(simulator, record.trajectory.slice(0, length), seed=100 * length + index)


def test_dataset_b_long_route_mixes_antennas(tiny_dataset_b, long_mixed_route):
    """The long route sees city and highway sectors in one candidate set."""
    simulator = tiny_dataset_b.simulator
    assert len(long_mixed_route) // 200 >= 2
    cells = reference_candidate_cells(simulator, long_mixed_route)
    assert len({c.antenna for c in cells}) == 2
    _check(simulator, long_mixed_route, seed=9)


def test_serving_cells_match_reference_with_ties_and_gaps():
    """Handover on rows with exact ties and cells dropping out (-inf)."""
    rng = np.random.default_rng(3)
    rsrp = np.round(rng.normal(-90.0, 6.0, size=(300, 5)))
    rsrp[40:60, 2] = -np.inf
    rsrp[100:140, :] = rsrp[100:140, :1]
    rsrp[200:, 0] = -np.inf
    for config in (HandoverConfig(), HandoverConfig(hysteresis_db=0.0, time_to_trigger_samples=1)):
        assert np.array_equal(
            select_serving_cells(rsrp, config), reference_select_serving_cells(rsrp, config)
        )
