"""MDT/crowdsourcing substitutes and the coverage-map use case."""

import numpy as np
import pytest

from repro.datasets import (
    SparseMeasurements,
    build_coverage_map,
    crowdsourced_campaign,
    gendt_coverage_measurements,
    mdt_campaign,
)


class TestSparseMeasurements:
    def test_concat(self):
        a = SparseMeasurements(np.zeros(2), np.zeros(2), np.ones(2))
        b = SparseMeasurements(np.ones(3), np.ones(3), np.zeros(3))
        joined = a.concat(b)
        assert len(joined) == 5

    def test_concat_kpi_mismatch(self):
        a = SparseMeasurements(np.zeros(1), np.zeros(1), np.ones(1), "rsrp")
        b = SparseMeasurements(np.zeros(1), np.zeros(1), np.ones(1), "rsrq")
        with pytest.raises(ValueError):
            a.concat(b)


class TestCampaigns:
    def test_mdt_yields_samples(self, small_region):
        rng = np.random.default_rng(0)
        samples = mdt_campaign(small_region, rng, n_users=10, participation=0.8)
        assert len(samples) > 10
        assert np.all(samples.value < -30)  # dBm-scale RSRP

    def test_mdt_participation_gates_volume(self, small_region):
        few = mdt_campaign(
            small_region, np.random.default_rng(1), n_users=20, participation=0.1
        )
        many = mdt_campaign(
            small_region, np.random.default_rng(1), n_users=20, participation=0.9
        )
        assert len(many) > len(few)

    def test_crowdsourced_quantized(self, small_region):
        rng = np.random.default_rng(2)
        samples = crowdsourced_campaign(small_region, rng, n_users=15)
        assert len(samples) > 0
        remainder = np.abs(samples.value / 2.0 - np.round(samples.value / 2.0))
        assert remainder.max() < 1e-9

    def test_crowdsourced_sparser_in_time(self, small_region):
        # 30 s reporting vs 10 s: fewer samples per user on similar routes.
        mdt = mdt_campaign(
            small_region, np.random.default_rng(3), n_users=20,
            report_period_s=10.0, participation=0.8, hotspot_bias=0.0,
        )
        crowd = crowdsourced_campaign(small_region, np.random.default_rng(3), n_users=20)
        assert len(crowd) < len(mdt)


class TestCoverageMap:
    def test_build_map_shapes(self, small_region):
        rng = np.random.default_rng(4)
        samples = mdt_campaign(small_region, rng, n_users=15, participation=0.9)
        cmap = build_coverage_map(small_region, samples, pixel_m=250.0, extent_m=1500.0)
        assert cmap.mean.shape == cmap.counts.shape
        assert 0.0 < cmap.fill_fraction <= 1.0

    def test_empty_pixels_nan(self, small_region):
        samples = SparseMeasurements(
            np.array([51.5]), np.array([-0.1]), np.array([-85.0])
        )
        cmap = build_coverage_map(small_region, samples, pixel_m=250.0, extent_m=1000.0)
        assert np.isnan(cmap.mean[cmap.counts == 0]).all()
        assert (cmap.counts > 0).sum() == 1

    def test_mdt_skew_vs_gendt_uniformity(self, small_region, trained_gendt):
        """The headline comparison: GenDT routes cover more of the map than a
        skewed MDT campaign of comparable sample count."""
        rng = np.random.default_rng(5)
        mdt = mdt_campaign(
            small_region, rng, n_users=12, participation=0.5, hotspot_bias=0.9
        )
        gendt = gendt_coverage_measurements(trained_gendt, small_region, rng, n_routes=8)
        map_mdt = build_coverage_map(small_region, mdt, pixel_m=300.0, extent_m=1200.0)
        map_gendt = build_coverage_map(small_region, gendt, pixel_m=300.0, extent_m=1200.0)
        assert map_gendt.fill_fraction >= map_mdt.fill_fraction * 0.8

    def test_error_vs_requires_overlap(self, small_region):
        a = build_coverage_map(
            small_region,
            SparseMeasurements(np.array([51.5]), np.array([-0.1]), np.array([-85.0])),
            pixel_m=300.0, extent_m=900.0,
        )
        b = build_coverage_map(
            small_region,
            SparseMeasurements(np.array([51.5]), np.array([-0.1]), np.array([-80.0])),
            pixel_m=300.0, extent_m=900.0,
        )
        assert a.error_vs(b) == pytest.approx(5.0)
