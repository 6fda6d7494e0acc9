"""Serving-cell channel post-processing (snap + dwell filtering)."""

import numpy as np
import pytest

from repro.usecases import handover, handover_intervals_from_series
from repro.usecases.handover import snap_serving_series


@pytest.fixture
def no_dwell_filter(monkeypatch):
    """A one-sample minimum dwell: snapping alone, no run is merged."""
    monkeypatch.setattr(handover, "MIN_DWELL_SAMPLES", 1)


@pytest.mark.usefixtures("no_dwell_filter")
class TestSnapToCandidates:
    def test_snaps_to_nearest_candidate(self):
        series = np.array([101.2, 99.7, 150.4, 148.9])
        out = snap_serving_series(series, candidate_ids=[100, 150])
        np.testing.assert_array_equal(out, [100, 100, 150, 150])

    def test_without_candidates_rounds(self):
        out = snap_serving_series(np.array([1.4, 2.6]))
        np.testing.assert_array_equal(out, [1, 3])

    def test_values_outside_candidate_range_clamped(self):
        out = snap_serving_series(np.array([-50.0, 500.0]), candidate_ids=[10, 20])
        np.testing.assert_array_equal(out, [10, 20])

    def test_single_candidate(self):
        out = snap_serving_series(np.array([5.0, 99.0]), candidate_ids=[42])
        np.testing.assert_array_equal(out, [42, 42])


class TestDwellFiltering:
    def test_short_dwell_merged_into_previous(self):
        series = np.array([1, 1, 1, 2, 1, 1, 1], dtype=float)
        out = snap_serving_series(series)
        np.testing.assert_array_equal(out, [1, 1, 1, 1, 1, 1, 1])

    def test_long_dwell_kept(self):
        series = np.array([1, 1, 1, 2, 2, 2], dtype=float)
        out = snap_serving_series(series)
        np.testing.assert_array_equal(out, series.astype(int))

    def test_leading_short_run_kept(self):
        # Nothing precedes the first run, so it cannot be merged.
        series = np.array([9, 1, 1, 1, 1], dtype=float)
        out = snap_serving_series(series)
        assert out[0] == 9

    def test_flicker_storm_collapses(self):
        rng = np.random.default_rng(0)
        base = np.repeat([10, 20, 30], 20).astype(float)
        noisy = base + rng.normal(0, 0.3, len(base))
        out = snap_serving_series(noisy, candidate_ids=[10, 20, 30])
        changes = int(np.count_nonzero(np.diff(out)))
        assert changes == 2  # only the two true handovers survive

    @pytest.mark.usefixtures("no_dwell_filter")
    def test_min_dwell_one_is_identity(self):
        series = np.array([1, 2, 1, 2], dtype=float)
        out = snap_serving_series(series)
        np.testing.assert_array_equal(out, series.astype(int))


class TestIntervalExtraction:
    def test_intervals_after_snapping(self):
        series = np.array([10.1, 9.9, 10.2, 20.3, 19.8, 20.1, 30.0, 29.9, 30.1])
        t = np.arange(9.0)
        intervals = handover_intervals_from_series(series, t, candidate_ids=[10, 20, 30])
        np.testing.assert_allclose(intervals, [3.0])

    def test_no_handover_no_intervals(self):
        series = np.full(10, 7.0)
        intervals = handover_intervals_from_series(series, np.arange(10.0))
        assert len(intervals) == 0
