"""Serving-cell selection, handover timing, dwell statistics."""

import numpy as np
import pytest

from repro.radio import (
    HandoverConfig,
    cell_dwell_times,
    handover_times,
    inter_handover_times,
    select_serving_cells,
)


def two_cell_crossover(n=20, margin=10.0):
    """Cell 0 strong first half, cell 1 strong second half."""
    rsrp = np.zeros((n, 2))
    rsrp[:, 0] = np.linspace(-70, -70 - margin, n)
    rsrp[:, 1] = np.linspace(-70 - margin, -70, n)
    return rsrp


class TestSelection:
    def test_starts_on_strongest(self):
        rsrp = np.array([[-80.0, -60.0], [-80.0, -60.0], [-80.0, -60.0]])
        serving = select_serving_cells(rsrp, HandoverConfig(3.0, 1))
        assert serving[0] == 1

    def test_handover_happens_after_crossover(self):
        rsrp = two_cell_crossover()
        serving = select_serving_cells(rsrp, HandoverConfig(3.0, 2))
        assert serving[0] == 0
        assert serving[-1] == 1

    def test_hysteresis_delays_handover(self):
        rsrp = two_cell_crossover()
        early = select_serving_cells(rsrp, HandoverConfig(1.0, 1))
        late = select_serving_cells(rsrp, HandoverConfig(8.0, 1))
        t_early = int(np.argmax(early == 1))
        t_late = int(np.argmax(late == 1))
        assert t_late > t_early

    def test_time_to_trigger_filters_flicker(self):
        # One-sample spike above hysteresis must not trigger with TTT=3.
        rsrp = np.full((10, 2), -80.0)
        rsrp[:, 0] = -70.0
        rsrp[5, 1] = -50.0  # single-sample spike
        serving = select_serving_cells(rsrp, HandoverConfig(3.0, 3))
        assert np.all(serving == 0)

    def test_sustained_advantage_triggers(self):
        rsrp = np.full((10, 2), -80.0)
        rsrp[:, 0] = -70.0
        rsrp[4:, 1] = -50.0
        serving = select_serving_cells(rsrp, HandoverConfig(3.0, 3))
        assert serving[-1] == 1

    def test_radio_link_failure_reselects(self):
        rsrp = np.full((6, 2), -80.0)
        rsrp[:, 0] = -70.0
        rsrp[3:, 0] = -np.inf  # serving cell vanishes
        serving = select_serving_cells(rsrp, HandoverConfig(3.0, 3))
        assert serving[2] == 0
        assert serving[3] == 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            select_serving_cells(np.zeros(5))
        with pytest.raises(ValueError):
            select_serving_cells(np.zeros((5, 0)))


class TestHandoverTiming:
    def test_handover_times(self):
        ids = np.array([0, 0, 1, 1, 2, 2])
        t = np.arange(6.0)
        np.testing.assert_allclose(handover_times(ids, t), [2.0, 4.0])

    def test_inter_handover_times(self):
        ids = np.array([0, 0, 1, 1, 1, 2])
        t = np.arange(6.0)
        np.testing.assert_allclose(inter_handover_times(ids, t), [3.0])

    def test_no_handover_empty(self):
        assert len(inter_handover_times(np.zeros(5, int), np.arange(5.0))) == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            handover_times(np.zeros(3, int), np.arange(4.0))

    def test_dwell_times_sum_to_duration(self):
        ids = np.array([0, 0, 1, 2, 2, 2])
        t = np.arange(6.0)
        dwell = cell_dwell_times(ids, t)
        assert len(dwell) == 3
        assert dwell.sum() == pytest.approx(6.0)

    def test_dwell_single_cell(self):
        dwell = cell_dwell_times(np.zeros(10, int), np.arange(10.0))
        assert len(dwell) == 1
        assert dwell[0] == pytest.approx(10.0)

    def test_dwell_empty(self):
        assert len(cell_dwell_times(np.zeros(0, int), np.zeros(0))) == 0
