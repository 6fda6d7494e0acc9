"""Baseline generation methods."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import (
    DoppelGANger,
    FDaS,
    LSTMGNNBaseline,
    MLPBaseline,
    fit_best_distribution,
)


class TestFDaS:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_split):
        model = FDaS(kpis=["rsrp", "rsrq"], seed=0)
        model.fit(tiny_split.train)
        return model

    def test_distribution_fit_recovers_normal(self, rng):
        data = rng.normal(-90.0, 8.0, size=5000)
        fit = fit_best_distribution(data)
        sample = fit.sample(5000, rng)
        assert sample.mean() == pytest.approx(-90.0, abs=1.0)
        assert sample.std() == pytest.approx(8.0, rel=0.1)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_best_distribution(np.zeros(5))

    def test_generate_shape(self, fitted, tiny_split):
        traj = tiny_split.test[0].trajectory
        out = fitted.generate(traj)
        assert out.shape == (len(traj), 2)

    def test_matches_training_distribution(self, fitted, tiny_split):
        from repro.metrics import hwd

        train_rsrp = np.concatenate([r.kpi["rsrp"] for r in tiny_split.train])
        gen = fitted.generate(tiny_split.train[0].trajectory)
        assert hwd(train_rsrp, gen[:, 0]) < 5.0

    def test_ignores_context(self, fitted, tiny_split):
        # Two different trajectories yield statistically identical outputs.
        a = fitted.generate(tiny_split.test[0].trajectory)
        b = fitted.generate(tiny_split.test[0].trajectory)
        assert abs(a[:, 0].mean() - b[:, 0].mean()) < 5.0

    def test_requires_fit(self, tiny_split):
        with pytest.raises(RuntimeError):
            FDaS().generate(tiny_split.test[0].trajectory)


class TestMLPBaseline:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset_a, tiny_split):
        model = MLPBaseline(
            tiny_dataset_a.region, kpis=["rsrp", "rsrq"], epochs=8, seed=0
        )
        model.fit(tiny_split.train)
        return model

    def test_generate_shape_and_range(self, fitted, tiny_split):
        traj = tiny_split.test[0].trajectory
        out = fitted.generate(traj)
        assert out.shape == (len(traj), 2)
        assert np.all((out[:, 0] >= -140) & (out[:, 0] <= -44))

    def test_deterministic_generation(self, fitted, tiny_split):
        traj = tiny_split.test[0].trajectory
        np.testing.assert_allclose(fitted.generate(traj), fitted.generate(traj))

    def test_competitive_on_training_route(self, fitted, tiny_split):
        # In-sample sanity: on a trajectory it was trained on, the MLP must
        # clearly beat predicting the global training mean everywhere.
        from repro.metrics import mae

        rec = tiny_split.train[0]
        out = fitted.generate(rec.trajectory)
        train_mean = fitted.target_normalizer.mean[0]
        err_model = mae(rec.kpi["rsrp"], out[:, 0])
        err_const = mae(rec.kpi["rsrp"], np.full(len(rec), train_mean))
        assert err_model < err_const

    def test_requires_fit(self, tiny_dataset_a, tiny_split):
        model = MLPBaseline(tiny_dataset_a.region)
        with pytest.raises(RuntimeError):
            model.generate(tiny_split.test[0].trajectory)


class TestLSTMGNN:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset_a, tiny_split):
        model = LSTMGNNBaseline(
            tiny_dataset_a.region, kpis=["rsrp", "rsrq"],
            hidden=12, epochs=2, max_train_len=80, seed=0,
        )
        model.fit(tiny_split.train[:3])
        return model

    def test_generate_shape(self, fitted, tiny_split):
        traj = tiny_split.test[0].trajectory
        out = fitted.generate(traj)
        assert out.shape == (len(traj), 2)
        assert np.all(np.isfinite(out))

    def test_deterministic(self, fitted, tiny_split):
        traj = tiny_split.test[0].trajectory
        np.testing.assert_allclose(fitted.generate(traj), fitted.generate(traj))


class TestDoppelGANger:
    @pytest.fixture(scope="class")
    def fitted_pair(self, tiny_dataset_a, tiny_split):
        orig = DoppelGANger(
            tiny_dataset_a.region, kpis=["rsrp", "rsrq"],
            real_context=False, window_len=20, hidden=10, epochs=2, seed=0,
        )
        orig.fit(tiny_split.train[:3])
        real = DoppelGANger(
            tiny_dataset_a.region, kpis=["rsrp", "rsrq"],
            real_context=True, window_len=20, hidden=10, epochs=2, seed=0,
        )
        real.fit(tiny_split.train[:3])
        return orig, real

    def test_names(self, fitted_pair):
        orig, real = fitted_pair
        assert orig.name == "orig_dg"
        assert real.name == "real_context_dg"

    def test_generate_shapes(self, fitted_pair, tiny_split):
        traj = tiny_split.test[0].trajectory
        for model in fitted_pair:
            out = model.generate(traj)
            assert out.shape == (len(traj), 2)
            assert np.all(np.isfinite(out))

    def test_orig_dg_stochastic_context(self, fitted_pair, tiny_split):
        orig, _ = fitted_pair
        traj = tiny_split.test[0].trajectory
        a = orig.generate(traj)
        b = orig.generate(traj)
        assert not np.allclose(a, b)

    def test_metadata_model_round_trip(self, rng):
        from repro.baselines import GaussianMetadataModel

        data = rng.normal(size=(500, 6)) @ np.diag([1, 2, 3, 1, 1, 0.5])
        model = GaussianMetadataModel()
        model.fit(data)
        sample = model.sample(2000, rng)
        np.testing.assert_allclose(sample.mean(axis=0), data.mean(axis=0), atol=0.3)
        np.testing.assert_allclose(sample.std(axis=0), data.std(axis=0), rtol=0.2)

    def test_metadata_requires_fit(self, rng):
        from repro.baselines import GaussianMetadataModel

        with pytest.raises(RuntimeError):
            GaussianMetadataModel().sample(1, rng)


@pytest.mark.parametrize(
    "make",
    [
        lambda region: MLPBaseline(region, kpis=["rsrp"], hidden=(8,), seed=0),
        lambda region: LSTMGNNBaseline(region, kpis=["rsrp"], hidden=8, max_train_len=40, seed=0),
        lambda region: DoppelGANger(region, kpis=["rsrp"], window_len=20, hidden=8, seed=0),
    ],
    ids=["mlp", "lstm_gnn", "doppelganger"],
)
def test_zero_epochs_take_no_optimizer_step(make, tiny_dataset_a, tiny_split, monkeypatch):
    # epochs=0 means no epoch; only None selects the constructor's default.
    steps = []
    monkeypatch.setattr(nn.Adam, "step", lambda optimizer: steps.append(optimizer))
    make(tiny_dataset_a.region).fit(tiny_split.train[:1], epochs=0)
    assert steps == []
