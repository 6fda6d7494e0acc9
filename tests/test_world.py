"""Environment world: attributes, land-use raster, PoIs, regions."""

import numpy as np
import pytest

from repro.geo import CitySpec, LocalFrame
from repro.world import (
    ENV_ATTRIBUTES,
    LAND_USE_CLASSES,
    N_ENV_ATTRIBUTES,
    N_LAND_USE,
    N_POI,
    POI_CLASSES,
    build_region,
    generate_land_use,
    generate_pois,
)


class TestAttributeSchema:
    def test_twenty_six_attributes(self):
        assert N_ENV_ATTRIBUTES == 26
        assert N_LAND_USE + N_POI == 26

    def test_no_duplicate_names(self):
        assert len(set(ENV_ATTRIBUTES)) == len(ENV_ATTRIBUTES)

    def test_paper_classes_present(self):
        assert "green_urban" in LAND_USE_CLASSES
        assert "continuous_urban" in LAND_USE_CLASSES
        assert "tram_stops" in POI_CLASSES
        assert "motorways" in POI_CLASSES


#: Batched query points: the city centre, a nearby point, one far outside the raster.
BATCH_LAT = np.array([51.5, 51.51, 52.5])
BATCH_LON = np.array([-0.1, -0.09, 1.0])


@pytest.fixture(scope="module")
def land_use():
    rng = np.random.default_rng(0)
    frame = LocalFrame(51.5, -0.1)
    city = CitySpec("c", 51.5, -0.1, half_extent_m=1000.0)
    return generate_land_use(frame, [city], extent_m=2000.0, rng=rng, pixel_m=100.0)


class TestLandUse:
    def test_fractions_sum_to_one(self, land_use):
        sums = land_use.fractions.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_fractions_nonnegative(self, land_use):
        assert np.all(land_use.fractions >= 0)

    def test_city_center_is_urban(self, land_use):
        center = land_use.fractions_at(51.5, -0.1)
        idx = {c: i for i, c in enumerate(LAND_USE_CLASSES)}
        urban = center[idx["continuous_urban"]] + center[idx["high_dense_urban"]]
        rural = center[idx["barren_lands"]]
        assert urban > rural

    def test_clutter_decays_from_center(self, land_use):
        center = float(land_use.clutter_at(51.5, -0.1))
        frame = land_use.frame
        edge_lat, edge_lon = frame.to_latlon(1900.0, 1900.0)
        edge = float(land_use.clutter_at(float(edge_lat), float(edge_lon)))
        assert center > edge

    def test_clutter_in_unit_range(self, land_use):
        lats = 51.5 + np.linspace(-0.015, 0.015, 20)
        lons = -0.1 + np.linspace(-0.02, 0.02, 20)
        clutter = land_use.clutter_at(lats, lons)
        assert np.all(clutter >= 0.0) and np.all(clutter <= 1.0)

    def test_fractions_within_averages(self, land_use):
        frac = land_use.fractions_within(51.5, -0.1, 500.0)
        assert frac.shape == (N_LAND_USE,)
        assert frac.sum() == pytest.approx(1.0, abs=1e-9)
        batch = land_use.fractions_within(BATCH_LAT, BATCH_LON, 500.0)
        assert batch.shape == (len(BATCH_LAT), N_LAND_USE)
        np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(batch[0], frac, rtol=0, atol=1e-12)

    def test_query_outside_raster_clamps(self, land_use):
        out = land_use.fractions_at(52.5, 1.0)  # far outside
        assert out.shape == (N_LAND_USE,)
        assert np.isfinite(out).all()


class TestPois:
    @pytest.fixture(scope="class")
    def pois(self, land_use):
        rng = np.random.default_rng(1)
        return generate_pois(land_use, extent_m=2000.0, rng=rng)

    def test_counts_vector_shape(self, pois):
        counts = pois.counts_within(51.5, -0.1, 500.0)
        assert counts.shape == (N_POI,)
        assert np.all(counts >= 0)
        batch = pois.counts_within(BATCH_LAT, BATCH_LON, 500.0)
        assert batch.shape == (len(BATCH_LAT), N_POI)
        assert np.array_equal(batch[0], counts)

    def test_counts_monotone_in_radius(self, pois):
        small = pois.counts_within(51.5, -0.1, 200.0)
        large = pois.counts_within(51.5, -0.1, 800.0)
        assert np.all(large >= small)
        small = pois.counts_within(BATCH_LAT, BATCH_LON, 200.0)
        large = pois.counts_within(BATCH_LAT, BATCH_LON, 800.0)
        assert np.all(large >= small)

    def test_urban_core_has_more_pois(self, pois, land_use):
        center = pois.counts_within(51.5, -0.1, 500.0).sum()
        edge_lat, edge_lon = land_use.frame.to_latlon(1800.0, 1800.0)
        edge = pois.counts_within(float(edge_lat), float(edge_lon), 500.0).sum()
        assert center >= edge
        both = pois.counts_within(np.array([51.5, edge_lat]), np.array([-0.1, edge_lon]), 500.0)
        assert np.array_equal(both.sum(axis=1), [center, edge])


class TestRegion:
    def test_region_builds(self, small_region):
        assert len(small_region.deployment) > 10
        assert small_region.land_use is not None
        assert small_region.pois is not None

    def test_two_city_region_has_highways(self, two_city_region):
        assert len(two_city_region.highway_polylines) >= 1

    def test_clutter_along(self, small_region, sample_trajectory):
        clutter = small_region.clutter_along(sample_trajectory.lat, sample_trajectory.lon)
        assert clutter.shape == (len(sample_trajectory),)
        assert np.all((clutter >= 0) & (clutter <= 1))

    def test_deterministic_given_seed(self):
        cities = [CitySpec("d", 51.5, -0.1, half_extent_m=800.0)]
        r1 = build_region(cities, np.random.default_rng(7))
        r2 = build_region(cities, np.random.default_rng(7))
        assert len(r1.deployment) == len(r2.deployment)
        np.testing.assert_allclose(
            r1.deployment.positions_xy(), r2.deployment.positions_xy()
        )

    def test_dataset_b_highway_polyline_ends(self, tiny_dataset_b):
        """Each Dataset B highway polyline starts and ends where it always has.

        Each of Dataset B's three highway components holds fewer than half
        the highway nodes, so networkx's subgraph view yields its nodes in
        the order of the component's node set, and the chaining starts at
        the first degree-1 node that set yields.  Walked in graph order,
        every polyline would start at its other end, and the highway cells
        would be placed from that end.  A networkx release that changes
        set iteration order fails here by name.
        """
        ends = [(p[0], p[-1]) for p in tiny_dataset_b.region.highway_polylines]
        expected = [
            ((51.484029417052334, 7.527478135765872), (51.49597058294766, 7.482541632632962)),
            ((51.442590502482865, 7.619805770506809), (51.455970582947664, 7.572521864234128)),
            ((51.402590502482866, 7.709823429656095), (51.417409497517134, 7.66019422949319)),
        ]
        assert len(ends) == len(expected)
        for (first, last), (want_first, want_last) in zip(ends, expected):
            assert first == pytest.approx(want_first, abs=1e-9)
            assert last == pytest.approx(want_last, abs=1e-9)
