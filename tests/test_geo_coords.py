"""Coordinate math: haversine, local frames."""

import numpy as np
import pytest

from repro.geo import LocalFrame, haversine_m


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(51.5, -0.1, 51.5, -0.1) == pytest.approx(0.0, abs=1e-6)

    def test_one_degree_latitude(self):
        # One degree of latitude is ~111.2 km everywhere.
        d = haversine_m(50.0, 0.0, 51.0, 0.0)
        assert d == pytest.approx(111_195, rel=0.01)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = haversine_m(0.0, 0.0, 0.0, 1.0)
        at_60 = haversine_m(60.0, 0.0, 60.0, 1.0)
        assert at_60 == pytest.approx(at_equator * 0.5, rel=0.01)

    def test_symmetry(self):
        d1 = haversine_m(51.5, -0.1, 48.85, 2.35)
        d2 = haversine_m(48.85, 2.35, 51.5, -0.1)
        assert d1 == pytest.approx(d2)

    def test_vectorized(self):
        lats = np.array([50.0, 51.0])
        out = haversine_m(lats, 0.0, lats + 0.01, 0.0)
        assert out.shape == (2,)
        assert np.all(out > 1000)


class TestLocalFrame:
    def test_origin_maps_to_zero(self):
        frame = LocalFrame(51.5, -0.1)
        x, y = frame.to_xy(51.5, -0.1)
        assert float(x) == pytest.approx(0.0, abs=1e-9)
        assert float(y) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self):
        frame = LocalFrame(51.5, -0.1)
        lat, lon = 51.52, -0.08
        x, y = frame.to_xy(lat, lon)
        lat2, lon2 = frame.to_latlon(x, y)
        assert float(lat2) == pytest.approx(lat, abs=1e-9)
        assert float(lon2) == pytest.approx(lon, abs=1e-9)

    def test_agrees_with_haversine_locally(self):
        frame = LocalFrame(51.5, -0.1)
        lat2, lon2 = 51.53, -0.05
        planar = float(frame.distance_m(51.5, -0.1, lat2, lon2))
        sphere = haversine_m(51.5, -0.1, lat2, lon2)
        assert planar == pytest.approx(sphere, rel=0.005)

    def test_north_is_positive_y(self):
        frame = LocalFrame(51.5, -0.1)
        _, y = frame.to_xy(51.6, -0.1)
        assert float(y) > 0

    def test_east_is_positive_x(self):
        frame = LocalFrame(51.5, -0.1)
        x, _ = frame.to_xy(51.5, 0.0)
        assert float(x) > 0

    def test_vectorized_round_trip(self):
        frame = LocalFrame(51.5, -0.1)
        lats = np.linspace(51.45, 51.55, 10)
        lons = np.linspace(-0.15, -0.05, 10)
        x, y = frame.to_xy(lats, lons)
        lat2, lon2 = frame.to_latlon(x, y)
        np.testing.assert_allclose(lat2, lats)
        np.testing.assert_allclose(lon2, lons)
