"""Shared fixtures.

Expensive objects (regions, datasets, trained models) are session-scoped so
the suite amortizes their construction across test modules.  Everything is
seeded; no test touches global random state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GenDT, small_config
from repro.core import generator as generator_module
from repro.datasets import (
    DriveTestDataset,
    make_dataset_a,
    make_dataset_b,
    split_per_scenario,
)
from repro.geo import CitySpec
from repro.radio import DriveTestSimulator
from repro.world import Region, build_region


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    return np.random.default_rng(999)


@pytest.fixture(scope="session")
def small_region() -> Region:
    """One small city region shared by substrate tests."""
    rng = np.random.default_rng(42)
    city = CitySpec("testcity", 51.5, -0.1, half_extent_m=1200.0, street_spacing_m=300.0)
    return build_region([city], rng, city_site_density_per_km2=7.0)


@pytest.fixture(scope="session")
def two_city_region() -> Region:
    """Two cities joined by a highway (exercises highway code paths)."""
    rng = np.random.default_rng(43)
    cities = [
        CitySpec("west", 51.50, -0.10, half_extent_m=1000.0, street_spacing_m=300.0),
        CitySpec("east", 51.47, -0.02, half_extent_m=1000.0, street_spacing_m=300.0),
    ]
    return build_region(cities, rng, city_site_density_per_km2=6.0)


@pytest.fixture(scope="session")
def small_simulator(small_region) -> DriveTestSimulator:
    return DriveTestSimulator(small_region, candidate_range_m=2500.0)


@pytest.fixture(scope="session")
def tiny_dataset_a() -> DriveTestDataset:
    """A fast Dataset A (few hundred samples per scenario)."""
    return make_dataset_a(seed=7, samples_per_scenario=360, trajectories_per_scenario=3)


@pytest.fixture(scope="session")
def tiny_dataset_b() -> DriveTestDataset:
    return make_dataset_b(seed=11, samples_per_scenario=360, trajectories_per_scenario=3)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset_a):
    rng = np.random.default_rng(77)
    return split_per_scenario(tiny_dataset_a, 0.3, 200.0, rng)


def _fit_tiny_gendt(dataset, split) -> GenDT:
    config = small_config(epochs=3, hidden_size=12, batch_len=20, train_step=10)
    model = GenDT(dataset.region, kpis=["rsrp", "rsrq"], config=config, seed=3)
    model.fit(split.train)
    return model


def _trained_state(model: GenDT) -> dict:
    """Copies of the generator weights and the normalizers' fitted state."""
    state = {f"generator.{k}": v for k, v in model.generator.state_dict().items()}
    for name in ("env_normalizer", "target_normalizer"):
        for key, value in getattr(model, name).state().items():
            state[f"{name}.{key}"] = np.array(value, copy=True)
    return state


@pytest.fixture(scope="session")
def trained_gendt(tiny_dataset_a, tiny_split) -> GenDT:
    """A tiny trained GenDT shared by model/uncertainty/use-case tests.

    Shared across the session, so no test may train or reload it: what one
    test leaves would change what the next one sees.  Teardown checks that
    the weights and normalizers are still the ones ``fit`` left.
    """
    model = _fit_tiny_gendt(tiny_dataset_a, tiny_split)
    before = _trained_state(model)
    yield model
    after = _trained_state(model)
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    assert not changed, f"a test changed the shared trained_gendt: {changed}"


@pytest.fixture(scope="session")
def trained_gendt_float64(tiny_dataset_a, tiny_split) -> GenDT:
    """``trained_gendt`` computing in float64, for tests of batching logic at 1e-12."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator_module, "COMPUTE_DTYPE", np.float64)
        return _fit_tiny_gendt(tiny_dataset_a, tiny_split)


@pytest.fixture(scope="session")
def sample_trajectory(small_region):
    rng = np.random.default_rng(5)
    route = small_region.roads.random_walk_route(rng, 1500.0, city="testcity")
    return small_region.roads.route_to_trajectory(
        route, speed_mps=8.0, interval_s=1.0, scenario="test", rng=rng
    )


@pytest.fixture(scope="session")
def sample_record(small_simulator, sample_trajectory, session_rng):
    return small_simulator.simulate(sample_trajectory, np.random.default_rng(17), with_qoe=True)
