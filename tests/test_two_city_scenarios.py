"""Multi-city / highway code paths: intercity routes, highway deployments."""

import numpy as np
import pytest

from repro.radio import DriveTestSimulator, cell_dwell_times


@pytest.fixture(scope="module")
def highway_record(two_city_region):
    rng = np.random.default_rng(0)
    route = two_city_region.roads.intercity_route("west", "east", rng, city_detour_m=300.0)
    trajectory = two_city_region.roads.route_to_trajectory(
        route, speed_mps=25.0, interval_s=2.0, scenario="highway", rng=rng
    )
    simulator = DriveTestSimulator(two_city_region, candidate_range_m=4500.0)
    return simulator.simulate(trajectory, rng)


class TestHighwayScenario:
    def test_highway_cells_deployed(self, two_city_region):
        highway_sites = {
            c.site_id for c in two_city_region.deployment.cells
            if c.antenna.beamwidth_deg == 45.0  # highway sector profile
        }
        assert len(highway_sites) >= 2

    def test_highway_drive_simulates(self, highway_record):
        assert len(highway_record) > 50
        assert np.isfinite(highway_record.kpi["rsrp"]).all()

    def test_highway_handovers_frequent(self, highway_record):
        dwell = cell_dwell_times(
            highway_record.serving_cell_id, highway_record.trajectory.t
        )
        # At 25 m/s with ~1.8 km site spacing, several handovers must occur.
        assert len(dwell) >= 3

    def test_serving_cells_include_highway_cells(self, highway_record, two_city_region):
        highway_cell_ids = {
            c.cell_id for c in two_city_region.deployment.cells
            if c.antenna.beamwidth_deg == 45.0
        }
        used = set(np.unique(highway_record.serving_cell_id))
        assert used & highway_cell_ids  # at least one highway cell served

    def test_context_covers_highway_stretch(self, two_city_region, highway_record):
        from repro.context import ContextBuilder

        builder = ContextBuilder(two_city_region, 6)
        windows = builder.generation_windows(highway_record.trajectory, 25)
        assert all(w.n_cells >= 1 for w in windows)

    def test_gendt_trains_on_multi_city(self, two_city_region, highway_record):
        from repro.core import GenDT, small_config

        config = small_config(epochs=1, hidden_size=8, batch_len=15, train_step=15)
        model = GenDT(two_city_region, kpis=["rsrp"], config=config, seed=0)
        model.fit([highway_record])
        out = model.generate(highway_record.trajectory)
        assert out.shape == (len(highway_record), 1)


class TestEnvironmentConsistency:
    def test_highway_corridor_low_density(self, two_city_region):
        # Mid-point between the cities should be less urban than a centre.
        west = two_city_region.cities[0]
        east = two_city_region.cities[1]
        mid_lat = (west.center_lat + east.center_lat) / 2
        mid_lon = (west.center_lon + east.center_lon) / 2
        centre_clutter = float(
            two_city_region.land_use.clutter_at(west.center_lat, west.center_lon)
        )
        mid_clutter = float(two_city_region.land_use.clutter_at(mid_lat, mid_lon))
        assert mid_clutter < centre_clutter

    def test_env_extractor_deterministic(self, two_city_region, highway_record):
        from repro.context import EnvironmentContextExtractor

        e1 = EnvironmentContextExtractor(two_city_region)
        e2 = EnvironmentContextExtractor(two_city_region)
        traj = highway_record.trajectory.slice(0, 20)
        np.testing.assert_allclose(e1.features(traj), e2.features(traj))
