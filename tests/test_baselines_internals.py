"""Baseline internals: context encoding, DG components, FDaS candidates."""

import numpy as np
import pytest

from repro.baselines import FDaS, MLPBaseline
from repro.baselines.doppelganger import _DGDiscriminator, _DGGenerator
from repro.baselines.fdas import _CANDIDATES, fit_best_distribution
from repro.radio import KPI, KpiSpec
from repro import nn


class TestContextEncoding:
    @pytest.fixture(scope="class")
    def encoder(self, tiny_dataset_a):
        model = MLPBaseline(tiny_dataset_a.region, kpis=["rsrp"], max_cells=4)
        return model

    def test_flat_feature_width(self, encoder):
        assert encoder.n_flat_features == 4 * 6 + 26

    def test_trajectory_features_shape(self, encoder, tiny_dataset_a, tiny_split):
        encoder._fit_normalizers(tiny_split.train[:2])
        traj = tiny_split.train[0].trajectory
        features = encoder.trajectory_features(traj)
        assert features.shape == (len(traj), encoder.n_flat_features)
        assert np.all(np.isfinite(features))

    def test_padding_when_few_cells(self, encoder, tiny_dataset_a, tiny_split):
        # max_cells=4 > visible count should zero-pad, not crash.
        encoder._fit_normalizers(tiny_split.train[:2])
        traj = tiny_split.train[0].trajectory
        features = encoder.trajectory_features(traj)
        # Cell features occupy the first 24 columns; the padded tail of the
        # nearest-cell block stays finite.
        assert np.isfinite(features[:, :24]).all()

    def test_clip_delegates_to_kpi_spec(self, encoder):
        out = encoder.clip(np.array([[-500.0]]))
        assert out[0, 0] == -140.0


class TestFDaSInternals:
    def test_candidate_family_is_reasonable(self):
        assert "norm" in _CANDIDATES
        assert len(_CANDIDATES) >= 3

    def test_picks_skewed_family_for_skewed_data(self, rng):
        # Gumbel-left-skewed data should not be fit best by a pure normal.
        from scipy import stats

        data = stats.gumbel_l.rvs(loc=-90, scale=5, size=4000, random_state=rng)
        fit = fit_best_distribution(data)
        sample = fit.sample(4000, rng)
        # Whatever family won, the sample skewness must match in sign.
        assert np.sign(stats.skew(sample)) == np.sign(stats.skew(data))

    def test_fitted_distribution_reproducible(self, rng):
        data = rng.normal(-90, 8, size=2000)
        fit = fit_best_distribution(data)
        s1 = fit.sample(100, np.random.default_rng(0))
        s2 = fit.sample(100, np.random.default_rng(0))
        np.testing.assert_allclose(s1, s2)


class TestDGComponents:
    def test_generator_shapes(self):
        rng = np.random.default_rng(0)
        gen = _DGGenerator(n_meta=6, n_noise=3, hidden=8, n_channels=2, rng=rng)
        out = gen(np.zeros((4, 6)), length=10)
        assert out.shape == (4, 10, 2)

    def test_generator_noise_drives_variation(self):
        rng = np.random.default_rng(0)
        gen = _DGGenerator(n_meta=2, n_noise=3, hidden=8, n_channels=1, rng=rng)
        meta = np.zeros((1, 2))
        with nn.no_grad():
            a = gen(meta, 10, rng).numpy()
            b = gen(meta, 10, rng).numpy()
            quiet = gen(meta, 10).numpy()
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(quiet, gen(meta, 10).numpy())

    def test_discriminator_shapes(self):
        rng = np.random.default_rng(0)
        disc = _DGDiscriminator(n_meta=6, n_channels=2, hidden=8, rng=rng)
        logits = disc(nn.Tensor(np.zeros((4, 10, 2))), np.zeros((4, 6)))
        assert logits.shape == (4, 1)


class TestKpiSpecRssi:
    def test_rssi_channel_supported(self):
        spec = KpiSpec(["rsrp", "rssi"])
        assert spec.n_channels == 2
        clipped = spec.clip(np.array([[-200.0, 5.0]]))
        assert clipped[0, 0] == -140.0
        assert clipped[0, 1] == -10.0

    def test_rssi_generation_end_to_end(self, tiny_dataset_a, tiny_split):
        from repro.core import GenDT, small_config

        config = small_config(epochs=1, hidden_size=8, batch_len=15, train_step=15)
        model = GenDT(
            tiny_dataset_a.region, kpis=["rsrp", "rssi"], config=config, seed=0
        )
        model.fit(tiny_split.train[:2])
        out = model.generate(tiny_split.test[0].trajectory)
        assert out.shape[1] == 2
        assert np.all(out[:, 1] >= -113.0)
