"""Cell deployments and link-budget KPI derivation."""

import numpy as np
import pytest

from repro.geo import CitySpec, LocalFrame
from repro.radio import (
    Cell,
    CellDeployment,
    deploy_city,
    deploy_highway,
    select_serving_cells,
)
from repro.radio.channel import link_kpis, per_cell_rsrp, sample_cell_loads


@pytest.fixture(scope="module")
def frame():
    return LocalFrame(51.5, -0.1)


@pytest.fixture(scope="module")
def city_cells(frame):
    rng = np.random.default_rng(0)
    city = CitySpec("c", 51.5, -0.1, half_extent_m=1000.0)
    return deploy_city(city, frame, rng, site_density_per_km2=6.0)


class TestDeployments:
    def test_city_density_close_to_request(self, city_cells):
        area_km2 = 4.0  # 2 km x 2 km
        sites = len({c.site_id for c in city_cells})
        assert sites == pytest.approx(6.0 * area_km2, rel=0.3)

    def test_three_sectors_per_site(self, city_cells):
        from collections import Counter

        counts = Counter(c.site_id for c in city_cells)
        assert set(counts.values()) == {3}

    def test_sector_directions_spread(self, city_cells):
        by_site = {}
        for cell in city_cells:
            by_site.setdefault(cell.site_id, []).append(cell.direction_deg)
        for directions in by_site.values():
            diffs = np.diff(sorted(directions))
            np.testing.assert_allclose(diffs, 120.0, atol=1.0)

    def test_unique_cell_ids(self, city_cells):
        ids = [c.cell_id for c in city_cells]
        assert len(set(ids)) == len(ids)

    def test_highway_deployment_follows_road(self, frame):
        rng = np.random.default_rng(1)
        waypoints = [(51.5, -0.1), (51.5, -0.02)]  # ~5.5 km east-west
        cells = deploy_highway(waypoints, frame, rng, site_spacing_m=1500.0)
        assert len(cells) >= 4
        lats = np.array([c.lat for c in cells])
        assert np.all(np.abs(lats - 51.5) < 0.01)


class TestCellDeployment:
    @pytest.fixture(scope="class")
    def deployment(self, city_cells, frame):
        return CellDeployment(city_cells, frame)

    def test_rejects_empty(self, frame):
        with pytest.raises(ValueError):
            CellDeployment([], frame)

    def test_rejects_duplicate_ids(self, frame):
        cell = Cell(0, 51.5, -0.1, 43.0, 0.0)
        with pytest.raises(ValueError):
            CellDeployment([cell, cell], frame)

    def test_lookup_by_id(self, deployment, city_cells):
        assert deployment[city_cells[3].cell_id] is city_cells[3]

    def test_distances_shape(self, deployment):
        d = deployment.distances_m(51.5, -0.1)
        assert d.shape == (len(deployment),)
        assert np.all(d >= 0)


class TestLinkBudget:
    @pytest.fixture(scope="class")
    def setup(self, small_region, sample_trajectory):
        cells = list(small_region.deployment.cells[:20])
        clutter = small_region.clutter_along(
            sample_trajectory.lat, sample_trajectory.lon
        )
        rng = np.random.default_rng(7)
        rsrp = per_cell_rsrp(
            small_region.deployment.frame, sample_trajectory, cells, clutter, rng
        )
        return cells, rsrp

    def test_rsrp_matrix_shape(self, setup, sample_trajectory):
        cells, rsrp = setup
        assert rsrp.shape == (len(sample_trajectory), len(cells))

    def test_rsrp_values_physical(self, setup):
        _, rsrp = setup
        assert np.all(rsrp < 0)     # dBm below 0 for macro distances
        assert np.all(rsrp > -200)  # not absurdly low

    def test_closer_cells_stronger_on_average(self, setup, small_region, sample_trajectory):
        cells, rsrp = setup
        mid = len(sample_trajectory) // 2
        distances = small_region.deployment.frame
        lat, lon = sample_trajectory.lat[mid], sample_trajectory.lon[mid]
        d = np.array([
            float(distances.distance_m(lat, lon, c.lat, c.lon)) for c in cells
        ])
        # Spearman-ish check: correlation between distance and mean RSRP < 0.
        corr = np.corrcoef(d, rsrp[mid])[0, 1]
        assert corr < -0.3

    def test_loads_in_unit_range(self, setup):
        cells, _ = setup
        loads = sample_cell_loads(len(cells), 50, np.random.default_rng(0))
        assert loads.shape == (50, len(cells))
        assert np.all((loads >= 0.05) & (loads <= 0.95))

    def test_loads_slowly_varying(self):
        loads = sample_cell_loads(3, 500, np.random.default_rng(1))
        step_change = np.abs(np.diff(loads, axis=0)).mean()
        assert step_change < 0.05

    def test_link_kpis_consistent(self, setup):
        cells, rsrp = setup
        serving = select_serving_cells(rsrp)
        loads = sample_cell_loads(len(cells), rsrp.shape[0], np.random.default_rng(2))
        kpis = link_kpis(rsrp, serving, loads)
        t = np.arange(rsrp.shape[0])
        np.testing.assert_allclose(kpis["rsrp"], rsrp[t, serving])
        # RSSI must exceed the serving wideband power (it includes it).
        from repro.radio import rssi_from_rsrp
        assert np.all(kpis["rssi"] >= rssi_from_rsrp(kpis["rsrp"]) - 1e-9)
        assert np.all((kpis["rsrq"] >= -19.5) & (kpis["rsrq"] <= -3.0))
        assert np.all((kpis["cqi"] >= 1) & (kpis["cqi"] <= 15))

    def test_sinr_decreases_with_interference(self, setup):
        cells, rsrp = setup
        serving = select_serving_cells(rsrp)
        t = rsrp.shape[0]
        quiet = link_kpis(rsrp, serving, np.full((t, len(cells)), 0.05))
        busy = link_kpis(rsrp, serving, np.full((t, len(cells)), 0.95))
        assert quiet["sinr"].mean() > busy["sinr"].mean()
