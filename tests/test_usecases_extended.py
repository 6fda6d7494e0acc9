"""Extended use cases (paper §C.2): cell load, bandwidth, video QoE, what-if."""

import numpy as np
import pytest

from repro.usecases import (
    CellLoadEstimator,
    LinkBandwidthPredictor,
    PlayerConfig,
    bandwidth_features,
    deployment_override,
    handover_indicator,
    simulate_session,
    with_new_site,
    with_power_offset,
    without_cells,
)


class TestCellLoadEstimator:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset_a):
        records = tiny_dataset_a.records[:8]
        estimator = CellLoadEstimator(epochs=40, seed=0)
        estimator.fit(records, [r.serving_load for r in records])
        return estimator, records

    def test_serving_load_exposed(self, tiny_dataset_a):
        record = tiny_dataset_a.records[0]
        assert record.serving_load.shape == (len(record),)
        assert np.all((record.serving_load >= 0.05) & (record.serving_load <= 0.95))

    def test_predictions_in_unit_range(self, fitted):
        estimator, records = fitted
        pred = estimator.predict(records[-1].kpi)
        assert pred.shape == (len(records[-1]),)
        assert np.all((pred >= 0) & (pred <= 1))

    def test_beats_constant_mean(self, fitted, tiny_dataset_a):
        estimator, records = fitted
        test = tiny_dataset_a.records[8]
        pred = estimator.predict(test.kpi)
        truth = test.serving_load
        err_model = np.abs(pred - truth).mean()
        err_const = np.abs(truth.mean() - truth).mean()
        # RSRQ/SINR do carry load information in the link budget.
        assert err_model < err_const * 1.15

    def test_misaligned_fit_rejected(self, tiny_dataset_a):
        estimator = CellLoadEstimator()
        with pytest.raises(ValueError):
            estimator.fit(tiny_dataset_a.records[:2], [np.zeros(3)])

    def test_requires_fit(self, tiny_dataset_a):
        with pytest.raises(RuntimeError):
            CellLoadEstimator().predict(tiny_dataset_a.records[0].kpi)


class TestBandwidthPredictor:
    def test_handover_indicator(self):
        ids = np.array([1, 1, 1, 2, 2, 2, 2, 2])
        indicator = handover_indicator(ids, window=1)
        np.testing.assert_allclose(indicator, [0, 0, 1, 1, 1, 0, 0, 0])

    def test_indicator_no_changes(self):
        assert handover_indicator(np.ones(5, int)).sum() == 0

    def test_features_shape(self, tiny_dataset_a):
        record = tiny_dataset_a.records[0]
        features = bandwidth_features(record)
        assert features.shape == (len(record), 5)

    def test_features_need_qoe(self, tiny_dataset_b):
        with pytest.raises(ValueError):
            bandwidth_features(tiny_dataset_b.records[0])

    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset_a):
        predictor = LinkBandwidthPredictor(n_members=2, epochs=40, seed=0)
        predictor.fit(tiny_dataset_a.records[:8])
        return predictor

    def test_prediction_positive(self, fitted, tiny_dataset_a):
        test = tiny_dataset_a.records[8]
        pred = fitted.predict(bandwidth_features(test))
        assert pred.shape == (len(test),)
        assert np.all(pred >= 0)

    def test_tracks_ground_truth(self, fitted, tiny_dataset_a):
        test = tiny_dataset_a.records[8]
        pred = fitted.predict(bandwidth_features(test))
        truth = test.qoe["throughput_mbps"]
        corr = np.corrcoef(pred, truth)[0, 1]
        assert corr > 0.5  # CQI alone strongly determines throughput

    def test_interval_brackets_mean(self, fitted, tiny_dataset_a):
        test = tiny_dataset_a.records[8]
        features = bandwidth_features(test)
        lower, upper = fitted.predict_interval(features)
        mean = fitted.predict(features)
        assert np.all(lower <= mean + 1e-9)
        assert np.all(mean <= upper + 1e-9)

    def test_requires_fit(self, tiny_dataset_a):
        predictor = LinkBandwidthPredictor()
        with pytest.raises(RuntimeError):
            predictor.predict(np.zeros((3, 5)))


class TestVideoQoE:
    def test_high_throughput_no_stalls(self):
        session = simulate_session(np.full(120, 10.0))
        assert session.stall_ratio < 0.1
        assert session.average_bitrate_mbps >= 4.0
        assert session.qoe_score() > 3.5

    def test_starved_session_stalls(self):
        session = simulate_session(np.full(120, 0.2))
        assert session.stall_ratio > 0.3
        assert session.qoe_score() < 2.5

    def test_qoe_monotone_in_throughput(self):
        scores = [
            simulate_session(np.full(120, mbps)).qoe_score()
            for mbps in (0.3, 1.0, 3.0, 8.0)
        ]
        assert scores == sorted(scores)

    def test_variable_throughput_causes_switches(self, rng):
        stable = simulate_session(np.full(200, 3.0))
        wild = simulate_session(np.clip(3.0 + 2.5 * rng.standard_normal(200), 0.2, None))
        assert wild.n_switches > stable.n_switches

    def test_buffer_bounded(self):
        config = PlayerConfig(max_buffer_s=10.0)
        session = simulate_session(np.full(100, 50.0), config)
        assert session.buffer_s.max() <= 10.0 + 1e-9

    def test_score_range(self, rng):
        for _ in range(5):
            series = np.clip(rng.normal(2.0, 2.0, size=60), 0.0, None)
            score = simulate_session(series).qoe_score()
            assert 1.0 <= score <= 5.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            simulate_session(np.zeros(0))


class TestWhatIf:
    def test_power_offset(self, small_region):
        boosted = with_power_offset(small_region.deployment, 6.0)
        originals = {c.cell_id: c.p_max_dbm for c in small_region.deployment.cells}
        for cell in boosted.cells:
            assert cell.p_max_dbm == pytest.approx(originals[cell.cell_id] + 6.0)

    def test_power_offset_subset(self, small_region):
        target = small_region.deployment.cells[0].cell_id
        edited = with_power_offset(small_region.deployment, -3.0, cell_ids=[target])
        assert edited[target].p_max_dbm == pytest.approx(
            small_region.deployment[target].p_max_dbm - 3.0
        )
        other = small_region.deployment.cells[1].cell_id
        assert edited[other].p_max_dbm == small_region.deployment[other].p_max_dbm

    def test_new_site(self, small_region):
        edited = with_new_site(small_region.deployment, 51.5, -0.1, sectors=3)
        assert len(edited) == len(small_region.deployment) + 3
        new_ids = set(edited.cell_ids()) - set(small_region.deployment.cell_ids())
        assert len(new_ids) == 3

    def test_without_cells(self, small_region):
        victim = small_region.deployment.cells[0].cell_id
        edited = without_cells(small_region.deployment, [victim])
        assert victim not in edited.cell_ids()
        assert len(edited) == len(small_region.deployment) - 1

    def test_cannot_remove_all(self, small_region):
        with pytest.raises(ValueError):
            without_cells(small_region.deployment, small_region.deployment.cell_ids())

    def test_deployment_override_restores(self, trained_gendt):
        original = trained_gendt.region.deployment
        edited = with_power_offset(original, 3.0)
        with deployment_override(trained_gendt, edited):
            assert trained_gendt.region.deployment is edited
            # The network context reads cells through the region: one binding.
            assert trained_gendt.context.network.region is trained_gendt.region
            assert trained_gendt.context.network.deployment is edited
        assert trained_gendt.region.deployment is original
        assert trained_gendt.context.network.deployment is original

    def test_override_relabels_cells_consistently(self, trained_gendt, tiny_split):
        # Cell ids and distances must come from the same deployment, or
        # every window would attach one cell's id to another's context.
        traj = tiny_split.test[0].trajectory
        edited = without_cells(
            trained_gendt.region.deployment,
            trained_gendt.region.deployment.cell_ids()[::2],
        )
        with deployment_override(trained_gendt, edited):
            windows = trained_gendt.context.generation_windows(traj, 20)
        column = {cell_id: j for j, cell_id in enumerate(edited.cell_ids())}
        for window in windows:
            for j, cell_id in enumerate(window.cell_ids):
                np.testing.assert_array_equal(
                    window.cell_features[0, j, :4], edited.attributes[column[cell_id]]
                )

    def test_override_restores_on_exception(self, trained_gendt):
        original = trained_gendt.region.deployment
        edited = with_power_offset(original, 3.0)
        with pytest.raises(RuntimeError):
            with deployment_override(trained_gendt, edited):
                raise RuntimeError("boom")
        assert trained_gendt.region.deployment is original
