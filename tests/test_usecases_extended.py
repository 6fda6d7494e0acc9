"""The §C.2 what-if deployment edit and the serving load each record carries."""

from dataclasses import replace

import numpy as np
import pytest

from repro.radio.cells import CellDeployment
from repro.usecases import deployment_override, with_new_site


def with_power_offset(deployment, offset_db):
    """``deployment`` with every cell's ``p_max`` shifted by ``offset_db``."""
    cells = [replace(c, p_max_dbm=c.p_max_dbm + offset_db) for c in deployment.cells]
    return CellDeployment(cells, deployment.frame)


def without_cells(deployment, cell_ids):
    """``deployment`` without the given cells."""
    removed = set(cell_ids)
    return CellDeployment(
        [c for c in deployment.cells if c.cell_id not in removed], deployment.frame
    )


class TestServingLoad:
    def test_serving_load_exposed(self, tiny_dataset_a):
        record = tiny_dataset_a.records[0]
        assert record.serving_load.shape == (len(record),)
        assert np.all((record.serving_load >= 0.05) & (record.serving_load <= 0.95))


class TestWhatIf:
    def test_new_site(self, small_region):
        edited = with_new_site(small_region.deployment, 51.5, -0.1)
        assert len(edited) == len(small_region.deployment) + 3
        new_ids = set(edited.cell_ids()) - set(small_region.deployment.cell_ids())
        assert len(new_ids) == 3

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
