"""Candidate-cell discovery and simulator invariants."""

import numpy as np
import pytest

from repro.radio import DriveTestSimulator


class TestCandidateCells:
    def test_candidates_sorted_by_id(self, small_simulator, sample_trajectory):
        cells = small_simulator.candidate_cells(sample_trajectory)
        ids = [c.cell_id for c in cells]
        assert ids == sorted(ids)

    def test_candidates_cover_route_endpoints(self, small_simulator, sample_trajectory, small_region):
        cells = small_simulator.candidate_cells(sample_trajectory)
        cell_ids = {c.cell_id for c in cells}
        deployment = small_region.deployment
        for k in (0, len(sample_trajectory) - 1):
            distances = deployment.distances_m(sample_trajectory.lat[k], sample_trajectory.lon[k])
            nearest = int(np.argmin(distances))
            if distances[nearest] <= 1000.0:
                assert deployment.cells[nearest].cell_id in cell_ids

    def test_stride_sampling_stable(self, small_region, sample_trajectory):
        """Candidate sets from dense and strided sampling agree closely."""
        sim = DriveTestSimulator(small_region, candidate_range_m=2000.0)
        dense = sim.candidate_cells(sample_trajectory.resample(0.5))
        coarse = sim.candidate_cells(sample_trajectory)
        dense_ids = {c.cell_id for c in dense}
        coarse_ids = {c.cell_id for c in coarse}
        # Strided discovery may miss only marginal far cells.
        assert len(coarse_ids & dense_ids) >= 0.85 * len(dense_ids)


class TestRecordInvariants:
    def test_rsrq_respects_definition_bound(self, sample_record):
        # RSRQ <= -10*log10(12) (full-allocation bound) by construction.
        assert np.all(sample_record.kpi["rsrq"] <= -10 * np.log10(12.0) + 1e-6)

    def test_rssi_stronger_than_rsrp(self, sample_record):
        # Wideband power across 600 REs always exceeds the per-RE RSRP.
        assert np.all(sample_record.kpi["rssi"] > sample_record.kpi["rsrp"])

    def test_cqi_consistent_with_sinr(self, sample_record):
        from repro.radio import cqi_from_sinr

        expected = cqi_from_sinr(sample_record.kpi["sinr"])
        np.testing.assert_allclose(sample_record.kpi["cqi"], expected)

    def test_serving_cell_is_strongest_modulo_hysteresis(self, sample_record):
        # The serving cell's RSRP stays within hysteresis+ttt slack of the
        # maximum visible RSRP most of the time.  We can't recompute the
        # full matrix here, but the serving RSRP must stay in a sane band.
        rsrp = sample_record.kpi["rsrp"]
        assert rsrp.max() - rsrp.min() < 80.0

    def test_qoe_and_kpi_lengths_match(self, sample_record):
        for series in sample_record.qoe.values():
            assert len(series) == len(sample_record)
        assert len(sample_record.serving_load) == len(sample_record)
