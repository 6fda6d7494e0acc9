"""Propagation models: pathloss, shadowing correlation, antenna, fading."""

import numpy as np
import pytest

from repro.radio import (
    FastFadingModel,
    PathlossModel,
    SectorAntenna,
    ShadowingModel,
    wrap_angle_deg,
)


class TestPathloss:
    def test_monotone_in_distance(self):
        model = PathlossModel()
        d = np.array([50.0, 100.0, 500.0, 2000.0])
        pl = model.pathloss_db(d, np.zeros(4))
        assert np.all(np.diff(pl) > 0)

    def test_clutter_increases_loss(self):
        model = PathlossModel()
        open_field = model.pathloss_db(np.array([500.0]), np.array([0.0]))
        urban = model.pathloss_db(np.array([500.0]), np.array([1.0]))
        assert urban > open_field

    def test_minimum_distance_floor(self):
        model = PathlossModel()
        near = model.pathloss_db(np.array([1.0]), np.array([0.0]))
        at_floor = model.pathloss_db(np.array([model.d_min_m]), np.array([0.0]))
        assert near == pytest.approx(at_floor)

    def test_slope_matches_exponent(self):
        model = PathlossModel(base_exponent=3.0, clutter_exponent_scale=0.0)
        pl1 = model.pathloss_db(np.array([100.0]), np.array([0.0]))
        pl2 = model.pathloss_db(np.array([1000.0]), np.array([0.0]))
        assert (pl2 - pl1) == pytest.approx(30.0)  # 10*n per decade

    def test_broadcasting_matrix(self):
        model = PathlossModel()
        d = np.ones((5, 3)) * 200.0
        clutter = np.linspace(0, 1, 5)[:, None]
        pl = model.pathloss_db(d, clutter)
        assert pl.shape == (5, 3)
        assert np.all(np.diff(pl[:, 0]) > 0)  # more clutter, more loss


class TestShadowing:
    def test_trace_length(self, rng):
        model = ShadowingModel()
        steps = np.full(99, 10.0)
        trace = model.sample_along_multi(steps, 1, rng)[:, 0]
        assert trace.shape == (100,)

    def test_autocorrelation_decays_with_distance(self):
        model = ShadowingModel(sigma_db=6.0, decorrelation_m=50.0, clutter_sigma_scale=0.0)
        rng = np.random.default_rng(0)
        # Small steps -> high lag-1 correlation; huge steps -> none.
        small = np.stack([
            model.sample_along_multi(np.full(400, 5.0), 1, rng)[:, 0] for _ in range(20)
        ])
        large = np.stack([
            model.sample_along_multi(np.full(400, 500.0), 1, rng)[:, 0] for _ in range(20)
        ])

        def lag1(traces):
            a = traces[:, :-1].ravel()
            b = traces[:, 1:].ravel()
            return np.corrcoef(a, b)[0, 1]

        assert lag1(small) > 0.8
        assert abs(lag1(large)) < 0.15

    def test_stationary_variance(self):
        model = ShadowingModel(sigma_db=6.0, clutter_sigma_scale=0.0)
        rng = np.random.default_rng(1)
        traces = np.stack([
            model.sample_along_multi(np.full(200, 50.0), 1, rng)[:, 0] for _ in range(100)
        ])
        assert traces.std() == pytest.approx(6.0, rel=0.15)

    def test_multi_matches_single_statistics(self):
        model = ShadowingModel(clutter_sigma_scale=0.0)
        rng = np.random.default_rng(2)
        multi = model.sample_along_multi(np.full(300, 20.0), 50, rng)
        assert multi.shape == (301, 50)
        assert multi.std() == pytest.approx(model.sigma_db, rel=0.15)

    def test_multi_cells_independent(self):
        model = ShadowingModel(clutter_sigma_scale=0.0)
        rng = np.random.default_rng(3)
        multi = model.sample_along_multi(np.full(800, 10.0), 2, rng)
        corr = np.corrcoef(multi[:, 0], multi[:, 1])[0, 1]
        assert abs(corr) < 0.35  # long-run cross-cell correlation ~ 0

    def test_clutter_raises_sigma(self):
        model = ShadowingModel(sigma_db=4.0, clutter_sigma_scale=4.0)
        rng = np.random.default_rng(4)
        steps = np.full(500, 200.0)
        calm = np.stack([model.sample_along_multi(steps, 1, rng, clutter=np.zeros(501))[:, 0] for _ in range(30)])
        rough = np.stack([model.sample_along_multi(steps, 1, rng, clutter=np.ones(501))[:, 0] for _ in range(30)])
        assert rough.std() > calm.std()


class TestFastFading:
    def test_sample_shape(self, rng):
        fading = FastFadingModel()
        assert fading.sample(100, 1, rng)[:, 0].shape == (100,)

    def test_speed_raises_sigma(self):
        fading = FastFadingModel(sigma_db=1.0, speed_scale=0.1)
        rng = np.random.default_rng(5)
        slow = np.concatenate([fading.sample(2000, 1, rng, np.zeros(2000))[:, 0] for _ in range(3)])
        fast = np.concatenate([fading.sample(2000, 1, rng, np.full(2000, 30.0))[:, 0] for _ in range(3)])
        assert fast.std() > slow.std() * 1.5


class TestAntennas:
    def test_boresight_is_max_gain(self):
        ant = SectorAntenna(max_gain_dbi=15.0)
        assert ant.gain_dbi(0.0) == pytest.approx(15.0)

    def test_gain_decreases_off_axis(self):
        ant = SectorAntenna()
        gains = [float(ant.gain_dbi(a)) for a in (0, 30, 60, 120)]
        assert all(g1 > g2 for g1, g2 in zip(gains[:-1], gains[1:]))

    def test_3db_beamwidth(self):
        ant = SectorAntenna(beamwidth_deg=65.0)
        # At half the beamwidth off axis, attenuation is 12*(0.5)^2 = 3 dB.
        assert ant.gain_dbi(32.5) == pytest.approx(ant.max_gain_dbi - 3.0)

    def test_front_to_back_floor(self):
        ant = SectorAntenna(max_gain_dbi=15.0, front_to_back_db=25.0)
        assert ant.gain_dbi(180.0) == pytest.approx(-10.0)

    def test_symmetry(self):
        ant = SectorAntenna()
        assert ant.gain_dbi(40.0) == pytest.approx(float(ant.gain_dbi(-40.0)))

    def test_wrap_angle(self):
        assert wrap_angle_deg(190.0) == pytest.approx(-170.0)
        assert wrap_angle_deg(-190.0) == pytest.approx(170.0)
        assert wrap_angle_deg(0.0) == pytest.approx(0.0)

    def test_wrap_angle_is_bitwise_idempotent(self):
        # ``channel.per_cell_rsrp`` hands raw bearing offsets to
        # ``gain_dbi``, which wraps them once; wrapping twice must not differ.
        edges = np.array([0.0, 180.0, 540.0, 360.0, 720.0, 1e-300, 1e-12, 1e300, np.inf, np.nan])
        edges = np.concatenate([edges, -edges])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        rng = np.random.default_rng(0)
        spread = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-3, 6, 20_000)
        angles = np.concatenate([edges, spread, rng.uniform(-1e3, 1e3, 20_000)])
        with np.errstate(invalid="ignore"):  # inf % 360 is NaN
            once = wrap_angle_deg(angles)
            twice = wrap_angle_deg(once)
            by_remainder = (angles + 180.0) % 360.0 - 180.0
        assert np.array_equal(twice.view(np.uint64), once.view(np.uint64))
        assert np.all((once[np.isfinite(once)] >= -180.0) & (once[np.isfinite(once)] < 180.0))
        # Bit for bit the remainder form, but for its 180.0 at -180 - 1 ulp.
        assert np.count_nonzero(by_remainder == 180.0) == 1
        by_remainder[by_remainder == 180.0] = -180.0
        assert np.array_equal(once.view(np.uint64), by_remainder.view(np.uint64))
