"""Configuration-variant coverage: link budget, simulator, model channels."""

import numpy as np
import pytest

from repro.radio import (
    DriveTestSimulator,
    FastFadingModel,
    HandoverConfig,
    LinkBudgetConfig,
    PathlossModel,
    ShadowingModel,
)


class TestLinkBudgetConfigVariants:
    def test_custom_propagation_changes_kpis(self, small_region, sample_trajectory, rng):
        default_sim = DriveTestSimulator(small_region)
        harsh = LinkBudgetConfig(
            pathloss=PathlossModel(base_exponent=3.8),
            shadowing=ShadowingModel(sigma_db=9.0),
            fading=FastFadingModel(sigma_db=2.5),
        )
        harsh_sim = DriveTestSimulator(small_region, link_config=harsh)
        rec_default = default_sim.simulate(sample_trajectory, np.random.default_rng(0))
        rec_harsh = harsh_sim.simulate(sample_trajectory, np.random.default_rng(0))
        # Steeper pathloss -> weaker signal on average.
        assert rec_harsh.kpi["rsrp"].mean() < rec_default.kpi["rsrp"].mean()

    def test_aggressive_handover_config(self, small_region, sample_trajectory):
        eager = DriveTestSimulator(
            small_region, handover_config=HandoverConfig(hysteresis_db=0.5, time_to_trigger_samples=1)
        )
        sticky = DriveTestSimulator(
            small_region, handover_config=HandoverConfig(hysteresis_db=10.0, time_to_trigger_samples=8)
        )
        rec_eager = eager.simulate(sample_trajectory, np.random.default_rng(1))
        rec_sticky = sticky.simulate(sample_trajectory, np.random.default_rng(1))
        eager_changes = int(np.count_nonzero(np.diff(rec_eager.serving_cell_id)))
        sticky_changes = int(np.count_nonzero(np.diff(rec_sticky.serving_cell_id)))
        assert eager_changes > sticky_changes

    def test_candidate_range_gates_cells(self, small_region, sample_trajectory):
        near = DriveTestSimulator(small_region, candidate_range_m=600.0)
        far = DriveTestSimulator(small_region, candidate_range_m=3000.0)
        cells_near = near.candidate_cells(sample_trajectory)
        cells_far = far.candidate_cells(sample_trajectory)
        assert len(cells_far) > len(cells_near)

    def test_higher_noise_figure_lowers_sinr(self, small_region, sample_trajectory):
        quiet = DriveTestSimulator(
            small_region, link_config=LinkBudgetConfig(noise_figure_db=2.0)
        )
        noisy = DriveTestSimulator(
            small_region, link_config=LinkBudgetConfig(noise_figure_db=15.0)
        )
        rec_quiet = quiet.simulate(sample_trajectory, np.random.default_rng(2))
        rec_noisy = noisy.simulate(sample_trajectory, np.random.default_rng(2))
        assert rec_noisy.kpi["sinr"].mean() <= rec_quiet.kpi["sinr"].mean() + 0.5


class TestFourKpiModel:
    def test_all_four_channels_generate(self, tiny_dataset_a, tiny_split):
        from repro.core import GenDT, small_config

        config = small_config(epochs=1, hidden_size=10, batch_len=15, train_step=15)
        model = GenDT(
            tiny_dataset_a.region,
            kpis=["rsrp", "rsrq", "sinr", "cqi"],
            config=config,
            seed=0,
        )
        model.fit(tiny_split.train[:2])
        out = model.generate(tiny_split.test[0].trajectory)
        assert out.shape[1] == 4
        # CQI channel snapped to integers in [1, 15].
        assert np.all(out[:, 3] == np.round(out[:, 3]))
        assert np.all((out[:, 3] >= 1) & (out[:, 3] <= 15))
        # SINR within its physical window.
        assert np.all((out[:, 2] >= -10) & (out[:, 2] <= 30))
