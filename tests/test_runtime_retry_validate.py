"""validate: generation-boundary input checks."""

import numpy as np
import pytest

from repro.geo.trajectory import Trajectory
from repro.runtime import (
    ContextValidationError,
    validate_trajectory,
    validate_windows,
)


def _trajectory(t, lat, lon):
    traj = Trajectory.__new__(Trajectory)
    traj.t = np.asarray(t, dtype=float)
    traj.lat = np.asarray(lat, dtype=float)
    traj.lon = np.asarray(lon, dtype=float)
    traj.scenario = "test"
    return traj


class TestValidateTrajectory:
    def test_valid_passes(self):
        validate_trajectory(_trajectory([0, 1, 2], [51.5, 51.5, 51.5], [-0.1, -0.1, -0.1]))

    def test_empty_rejected(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(_trajectory([], [], []))
        assert excinfo.value.index == -1

    def test_nan_coordinate_reports_index(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 1, 2], [51.5, np.nan, 51.5], [-0.1, -0.1, -0.1])
            )
        assert excinfo.value.index == 1

    def test_non_monotonic_timestamps_report_index(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 2, 1], [51.5, 51.5, 51.5], [-0.1, -0.1, -0.1])
            )
        assert excinfo.value.index == 2

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ContextValidationError) as excinfo:
            validate_trajectory(
                _trajectory([0, 1], [51.5, 123.0], [-0.1, -0.1])
            )
        assert excinfo.value.index == 1

    def test_generation_boundary_rejects_bad_trajectory(self, trained_gendt):
        bad = _trajectory([0, 1, 2], [51.5, np.inf, 51.5], [-0.1, -0.1, -0.1])
        with pytest.raises(ContextValidationError):
            trained_gendt.generate(bad)


class TestValidateWindows:
    def test_zero_cell_window_tolerated(self, trained_gendt, tiny_split):
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:2]
        # Simulate a total coverage hole in window 1.
        hole = windows[1]
        hole.cell_features = hole.cell_features[:, :0, :]
        hole.cell_ids = []
        validate_windows(windows)  # no raise

    def test_nonfinite_env_features_fatal(self, trained_gendt, tiny_split):
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:1]
        windows[0].env_features = windows[0].env_features.copy()
        windows[0].env_features[0, 0] = np.nan
        with pytest.raises(ContextValidationError) as excinfo:
            validate_windows(windows)
        assert excinfo.value.index == 0

    def test_zero_cell_generation_degrades_not_crashes(self, trained_gendt, tiny_split):
        """The documented fallback: an all-padding batch mean-pools to zeros
        and generation still returns finite values."""
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:1]
        hole = windows[0]
        hole.cell_features = hole.cell_features[:, :0, :]
        hole.cell_ids = []
        batch = trained_gendt._assembler().assemble([hole], with_target=True)
        assert batch.cell_mask.sum() == 0
        out, _ = trained_gendt.generator.generate_batch(batch)
        assert np.all(np.isfinite(out))
