"""Trajectory invariants and editing operations."""

import numpy as np
import pytest

from repro.geo import Trajectory, from_waypoints


def straight_trajectory(n=10, dt=1.0):
    t = np.arange(n) * dt
    lat = 51.5 + np.arange(n) * 1e-4
    lon = np.full(n, -0.1)
    return Trajectory(t, lat, lon, scenario="test")


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.arange(3), np.zeros(4), np.zeros(3))

    def test_non_increasing_time_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_2d_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_len_and_iter(self):
        traj = straight_trajectory(5)
        assert len(traj) == 5
        rows = list(traj)
        assert rows[0] == (0.0, pytest.approx(51.5), -0.1)


class TestGeometry:
    def test_duration(self):
        assert straight_trajectory(11).duration_s == pytest.approx(10.0)

    def test_sample_interval(self):
        assert straight_trajectory(10, dt=2.5).sample_interval_s == pytest.approx(2.5)

    def test_length_positive_for_moving(self):
        assert straight_trajectory().length_m() > 0

    def test_speed_consistency(self):
        traj = straight_trajectory()
        avg = traj.average_speed_mps()
        assert avg == pytest.approx(traj.length_m() / traj.duration_s)

    def test_speeds_array_length(self):
        traj = straight_trajectory(10)
        assert len(traj.speeds_mps()) == 10

    def test_min_distance_to_self_is_zero(self):
        traj = straight_trajectory()
        assert traj.min_distance_to(traj) == pytest.approx(0.0, abs=1e-6)

    def test_min_distance_to_shifted(self):
        a = straight_trajectory()
        b = Trajectory(a.t, a.lat, a.lon + 0.01, "other")  # ~700 m east
        assert 500 < a.min_distance_to(b) < 900


class TestEditing:
    def test_slice_rebases_time(self):
        traj = straight_trajectory(10)
        part = traj.slice(3, 7)
        assert len(part) == 4
        assert part.t[0] == 0.0
        assert part.scenario == "test"

    def test_resample_uniform(self):
        traj = straight_trajectory(10, dt=1.0)
        dense = traj.resample(0.5)
        assert dense.sample_interval_s == pytest.approx(0.5)
        assert len(dense) == 19

    def test_resample_preserves_endpoints(self):
        traj = straight_trajectory(10)
        dense = traj.resample(0.5)
        assert dense.lat[0] == pytest.approx(traj.lat[0])
        assert dense.lat[-1] == pytest.approx(traj.lat[-1])

    def test_resample_invalid_interval(self):
        with pytest.raises(ValueError):
            straight_trajectory().resample(0.0)

    def test_concat_monotone_time(self):
        a = straight_trajectory(5)
        b = straight_trajectory(5)
        joined = a.concat(b)
        assert len(joined) == 10
        assert np.all(np.diff(joined.t) > 0)

    def test_concat_scenario_merge(self):
        a = straight_trajectory(3)
        b = Trajectory(np.arange(3.0), np.full(3, 51.0), np.full(3, 0.0), "other")
        assert a.concat(b).scenario == "test+other"
        assert a.concat(straight_trajectory(3)).scenario == "test"


class TestFromWaypoints:
    def test_speed_respected(self, rng):
        traj = from_waypoints(
            [(51.5, -0.1), (51.51, -0.1)], speed_mps=10.0, interval_s=1.0
        )
        assert traj.average_speed_mps() == pytest.approx(10.0, rel=0.05)

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            from_waypoints([(51.5, -0.1)], 1.0, 1.0)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            from_waypoints(
                [(51.5, -0.1), (51.51, -0.1)], 10.0, 1.0, speed_jitter=0.2
            )

    def test_jitter_changes_timing(self, rng):
        wp = [(51.5, -0.1), (51.51, -0.1), (51.52, -0.1)]
        plain = from_waypoints(wp, 10.0, 1.0)
        jittered = from_waypoints(wp, 10.0, 1.0, speed_jitter=0.3, rng=rng)
        assert len(plain) != len(jittered) or not np.allclose(
            plain.lat[: len(jittered)], jittered.lat[: len(plain)]
        )

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            from_waypoints([(51.5, -0.1), (51.51, -0.1)], 0.0, 1.0)
