"""Configuration variants: the simulator's candidate range and a four-KPI GenDT."""

import numpy as np

from repro.radio import DriveTestSimulator


class TestLinkBudgetConfigVariants:
    def test_candidate_range_gates_cells(self, small_region, sample_trajectory):
        near = DriveTestSimulator(small_region, candidate_range_m=600.0)
        far = DriveTestSimulator(small_region, candidate_range_m=3000.0)
        cells_near = near.candidate_cells(sample_trajectory)
        cells_far = far.candidate_cells(sample_trajectory)
        assert len(cells_far) > len(cells_near)


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
