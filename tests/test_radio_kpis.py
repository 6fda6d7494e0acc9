"""KPI definitions and the paper's analytic relations between them."""

import numpy as np
import pytest

from repro.radio import (
    CQI_SINR_THRESHOLDS_DB,
    DEFAULT_N_RB,
    KPI,
    KPI_RANGES,
    KpiSpec,
    cqi_from_sinr,
    db_to_linear,
    linear_to_db,
    rsrp_from_rssi,
    rsrq_db,
    rssi_from_rsrp,
    rssi_from_rsrp_rsrq,
    spectral_efficiency_from_cqi,
    thermal_noise_dbm,
)


class TestRsrpRssiRelation:
    def test_offset_is_10log_12nrb(self):
        rssi = -50.0
        rsrp = rsrp_from_rssi(rssi)
        assert rsrp == pytest.approx(rssi - 10 * np.log10(12 * DEFAULT_N_RB))

    def test_round_trip(self):
        rsrp = -90.0
        assert rsrp_from_rssi(rssi_from_rsrp(rsrp)) == pytest.approx(rsrp)

    def test_any_two_give_the_third(self):
        # The paper's statement: given two of RSRP/RSRQ/RSSI, derive the third.
        rsrp, rssi = -92.0, -61.0
        rsrq = rsrq_db(rsrp, rssi)
        assert rssi_from_rsrp_rsrq(rsrp, rsrq) == pytest.approx(rssi)

    def test_rsrq_full_load_bound(self):
        # With RSSI equal to serving wideband power only (12*N_RB REs at
        # RSRP), RSRQ reaches its upper bound of 10log10(N_RB) - 10log10(12*N_RB)
        # = -10log10(12) ≈ -10.79 dB.
        rsrp = -90.0
        rssi = rssi_from_rsrp(rsrp)
        assert rsrq_db(rsrp, rssi) == pytest.approx(-10 * np.log10(12.0))

    def test_vectorized(self):
        rsrp = np.array([-80.0, -100.0])
        out = rssi_from_rsrp(rsrp)
        assert out.shape == (2,)


class TestCqiMapping:
    def test_thresholds_monotone(self):
        assert np.all(np.diff(CQI_SINR_THRESHOLDS_DB) > 0)

    def test_low_sinr_gives_cqi_1(self):
        assert cqi_from_sinr(-15.0) == 1.0

    def test_high_sinr_gives_cqi_15(self):
        assert cqi_from_sinr(30.0) == 15.0

    def test_monotone_in_sinr(self):
        sinrs = np.linspace(-10, 25, 100)
        cqis = cqi_from_sinr(sinrs)
        assert np.all(np.diff(cqis) >= 0)

    def test_discrete_values(self):
        cqis = cqi_from_sinr(np.linspace(-10, 25, 57))
        assert set(np.unique(cqis)).issubset(set(range(1, 16)))

    def test_scalar_in_scalar_out(self):
        assert isinstance(cqi_from_sinr(5.0), float)

    def test_spectral_efficiency_monotone(self):
        eff = spectral_efficiency_from_cqi(np.arange(1, 16))
        assert np.all(np.diff(eff) > 0)

    def test_spectral_efficiency_range(self):
        assert spectral_efficiency_from_cqi(1) == pytest.approx(0.1523)
        assert spectral_efficiency_from_cqi(15) == pytest.approx(5.5547)


class TestDbHelpers:
    def test_db_round_trip(self):
        assert linear_to_db(db_to_linear(-33.0)) == pytest.approx(-33.0)

    def test_3db_doubles_power(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_thermal_noise_10mhz(self):
        # -174 + 10log10(9e6) + 7 ≈ -97.5 dBm
        assert thermal_noise_dbm(9e6) == pytest.approx(-97.46, abs=0.1)


class TestKpiSpec:
    def test_default_channels(self):
        spec = KpiSpec()
        assert spec.n_channels == 4
        assert spec.names() == ["rsrp", "rsrq", "sinr", "cqi"]

    def test_accepts_strings(self):
        spec = KpiSpec(["rsrp", "rsrq"])
        assert spec.kpis == (KPI.RSRP, KPI.RSRQ)

    def test_clip_enforces_ranges(self):
        spec = KpiSpec(["rsrp", "cqi"])
        raw = np.array([[-200.0, 30.0], [0.0, -5.0]])
        clipped = spec.clip(raw)
        lo, hi = KPI_RANGES[KPI.RSRP]
        assert clipped[0, 0] == lo
        assert clipped[1, 0] == hi
        assert clipped[0, 1] == 15.0
        assert clipped[1, 1] == 1.0

    def test_clip_rounds_cqi(self):
        spec = KpiSpec(["cqi"])
        clipped = spec.clip(np.array([[7.4], [7.6]]))
        np.testing.assert_allclose(clipped.ravel(), [7.0, 8.0])

    def test_clip_does_not_mutate_input(self):
        spec = KpiSpec(["rsrp"])
        raw = np.array([[-200.0]])
        spec.clip(raw)
        assert raw[0, 0] == -200.0
