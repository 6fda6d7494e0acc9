"""Fidelity metric properties: MAE, DTW, HWD, efficiency accounting."""

import numpy as np
import pytest

from repro.metrics import fidelity
from repro.metrics import (
    dtw,
    evaluate_series,
    fraction_used,
    hwd,
    mae,
    measurement_efficiency,
    wasserstein_1d,
)


class TestMAE:
    def test_identity_zero(self, rng):
        x = rng.normal(size=100)
        assert mae(x, x) == 0.0

    def test_constant_offset(self, rng):
        x = rng.normal(size=100)
        assert mae(x, x + 3.0) == pytest.approx(3.0)

    def test_symmetry(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert mae(x, y) == pytest.approx(mae(y, x))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))


class TestDTW:
    def test_identity_zero(self, rng):
        x = rng.normal(size=50)
        assert dtw(x, x) == pytest.approx(0.0)

    def test_shift_invariance_advantage(self):
        # A time-shifted copy: DTW must be far below MAE.
        t = np.linspace(0, 6 * np.pi, 200)
        x = np.sin(t)
        y = np.sin(t + 0.5)
        assert dtw(x, y, band=30) < mae(x, y) / 3

    def test_symmetry(self, rng):
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert dtw(x, y) == pytest.approx(dtw(y, x))

    def test_symmetry_under_alignment_ties(self):
        # Near-constant series (quantized KPIs) produce many equal-cost
        # alignment paths of different lengths; the normalization's
        # tie-breaking must not depend on argument order.
        x = np.full(20, -43.0)
        x[9] = -40.0
        y = np.full(20, -43.0)
        y[3] = -40.0
        y[15] = -44.0
        assert dtw(x, y) == pytest.approx(dtw(y, x), rel=1e-12)

    def test_different_lengths(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=70)
        assert np.isfinite(dtw(x, y))

    def test_band_widened_for_length_gap(self):
        # A band narrower than the length difference must still work
        # (implementation widens it).
        x = np.zeros(20)
        y = np.zeros(60)
        assert dtw(x, y, band=2) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.zeros(0), np.zeros(5))

    def test_upper_bounded_by_pointwise(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        assert dtw(x, y) <= mae(x, y) + 1e-9


class TestHWD:
    def test_identical_distributions_zero(self, rng):
        x = rng.normal(size=2000)
        assert hwd(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_mean_shift_approximates_offset(self, rng):
        x = rng.normal(0, 1, size=5000)
        y = rng.normal(2.0, 1, size=5000)
        assert hwd(x, y) == pytest.approx(2.0, rel=0.15)

    def test_permutation_invariant(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        shuffled = y.copy()
        rng.shuffle(shuffled)
        assert hwd(x, y) == pytest.approx(hwd(x, shuffled))

    def test_agrees_with_exact_wasserstein(self, rng, monkeypatch):
        monkeypatch.setattr(fidelity, "HWD_BINS", 200)
        x = rng.normal(0, 1, size=3000)
        y = rng.normal(1.0, 1.5, size=3000)
        assert hwd(x, y) == pytest.approx(wasserstein_1d(x, y), rel=0.1)

    def test_degenerate_equal_values(self):
        assert hwd(np.full(10, 5.0), np.full(10, 5.0)) == 0.0


class TestWasserstein:
    def test_known_value(self):
        # W1 between point masses at 0 and at 3 is 3.
        assert wasserstein_1d(np.zeros(100), np.full(100, 3.0)) == pytest.approx(3.0)

    def test_triangle_inequality(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(1, 1, 500)
        c = rng.normal(2, 1, 500)
        assert wasserstein_1d(a, c) <= wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-9


class TestEvaluateSeries:
    def test_returns_all_metrics(self, rng):
        x, y = rng.normal(size=100), rng.normal(size=100)
        out = evaluate_series(x, y)
        assert set(out) == {"mae", "dtw", "hwd"}
        assert all(v >= 0 for v in out.values())


class TestEfficiency:
    def test_fraction_and_efficiency(self, tiny_dataset_a):
        records = tiny_dataset_a.records
        used = records[:2]
        frac = fraction_used(used, records)
        assert 0 < frac < 1
        assert measurement_efficiency(used, records) == pytest.approx(1 - frac)

    def test_full_usage(self, tiny_dataset_a):
        records = tiny_dataset_a.records
        assert fraction_used(records, records) == pytest.approx(1.0)
        assert measurement_efficiency(records, records) == pytest.approx(0.0)

    def test_time_weighting(self, tiny_dataset_a):
        # Fraction is weighted by duration, not record count.
        records = tiny_dataset_a.records
        longest = max(records, key=lambda r: r.trajectory.duration_s)
        frac = fraction_used([longest], records)
        assert frac >= 1.0 / len(records) * 0.5
