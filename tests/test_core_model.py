"""GenDT generator assembly, training, high-level API."""

import numpy as np
import pytest

from repro.core import GenDT, GenDTConfig, GenDTGenerator, WindowAssembler, small_config
from repro.core.features import ModelBatch
from repro.runtime import read_checkpoint, write_checkpoint


class TestGeneratorAssembly:
    @pytest.fixture(scope="class")
    def batch(self, trained_gendt, tiny_split):
        windows = trained_gendt.build_training_windows(tiny_split.train[:1])[:3]
        return trained_gendt._assembler().assemble(windows, with_target=True)

    def test_batch_shapes(self, batch, trained_gendt):
        assert batch.cell_x.shape[1] == trained_gendt.config.max_cells
        assert batch.cell_x.shape[3] == 6
        assert batch.env.shape[2] == 28  # 26 env attributes + 2 kinematic
        assert batch.target.shape[2] == 2
        assert batch.cell_mask.shape == batch.cell_x.shape[:2]

    def test_mask_marks_real_cells(self, batch):
        assert np.all((batch.cell_mask == 0) | (batch.cell_mask == 1))
        assert batch.cell_mask.sum() > 0
        # Padded rows are all-zero features.
        for i in range(batch.n_windows):
            for j in range(batch.cell_x.shape[1]):
                if batch.cell_mask[i, j] == 0:
                    assert np.all(batch.cell_x[i, j] == 0)

    def test_h_avg_shape(self, batch, trained_gendt):
        gen = trained_gendt.generator
        h = gen.h_avg(batch.cell_x.astype(gen.dtype), batch.cell_mask.astype(gen.dtype))
        assert h.shape == (batch.n_windows, batch.length, trained_gendt.config.hidden_size)

    def test_teacher_forced_output(self, batch, trained_gendt):
        out = trained_gendt.generator.forward_teacher_forced(batch)
        assert out["output"].shape == batch.target.shape
        assert "mu" in out and "log_sigma" in out

    def test_generate_batch_autoregressive_state(self, batch, trained_gendt):
        # The batch's windows tile one series; ResGen's AR state starts at
        # zero and runs on across the window boundaries.
        gen = trained_gendt.generator
        out, params = gen.generate_batch(
            batch, collect_params=True, rng=np.random.default_rng(0)
        )
        length = batch.length
        assert out.shape == (1, batch.n_windows * length, 2)
        assert params["mu"].shape == out.shape
        assert np.all(params["sigma"] > 0)
        assert np.all(params["mu"][:, 0] == 0.0)
        assert np.all(params["mu"][:, length] != 0.0)

    def test_empty_assembly_rejected(self, trained_gendt):
        with pytest.raises(ValueError):
            trained_gendt._assembler().assemble([], with_target=True)


class TestTraining:
    def test_loss_decreases(self, trained_gendt):
        history = trained_gendt.trainer.history
        assert len(history.mse) >= 3
        assert history.mse[-1] < history.mse[0]

    def test_history_records_all_terms(self, trained_gendt):
        last = trained_gendt.trainer.history.last()
        for key in ("total", "mse", "adv", "disc", "nll"):
            assert np.isfinite(last[key])

    def test_fit_requires_records(self, tiny_dataset_a):
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=small_config())
        with pytest.raises(ValueError):
            model.fit([])


class TestGenerateAPI:
    def test_output_shape_and_units(self, trained_gendt, tiny_split):
        record = tiny_split.test[0]
        out = trained_gendt.generate(record.trajectory)
        assert out.shape == (len(record.trajectory), 2)
        # Physical ranges: RSRP in dBm band, RSRQ in dB band.
        assert np.all((out[:, 0] >= -140) & (out[:, 0] <= -44))
        assert np.all((out[:, 1] >= -19.5) & (out[:, 1] <= -3.0))

    def test_generations_stochastic(self, trained_gendt, tiny_split):
        traj = tiny_split.test[0].trajectory
        a = trained_gendt.generate(traj)
        b = trained_gendt.generate(traj)
        assert not np.allclose(a, b)

    def test_generate_samples_stack(self, trained_gendt, tiny_split):
        traj = tiny_split.test[0].trajectory
        samples = trained_gendt.generate_samples(traj, 3)
        assert samples.shape == (3, len(traj), 2)

    def test_tracks_real_better_than_permuted(self, trained_gendt, tiny_split):
        # The conditional model must beat its own output paired with the
        # *wrong* trajectory — i.e. context actually matters.
        from repro.metrics import mae

        rec = tiny_split.test[0]
        real = rec.kpi_matrix(["rsrp", "rsrq"])
        gen = trained_gendt.generate(rec.trajectory)
        err_right = mae(real[:, 0], gen[:, 0])
        err_reversed = mae(real[::-1, 0], gen[:, 0])
        # Not a strict inequality in every seed, but with geometry-driven
        # RSRP the aligned error should not be dramatically worse.
        assert err_right < err_reversed * 1.5

    def test_requires_fit(self, tiny_dataset_a, tiny_split):
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=small_config())
        with pytest.raises(RuntimeError):
            model.generate(tiny_split.test[0].trajectory)


class TestPersistence:
    def test_save_load_round_trip(self, trained_gendt, tiny_split, tmp_path):
        path = tmp_path / "gendt.npz"
        trained_gendt.save(path)
        clone = GenDT.load(path, trained_gendt.region, seed=123)
        # The checkpoint alone decides what model comes back.
        assert clone.kpi_names == trained_gendt.kpi_names
        assert clone.config == trained_gendt.config
        traj = tiny_split.test[0].trajectory
        out = clone.generate(traj)
        assert out.shape == (len(traj), 2)
        # Weights equal => deterministic parts agree.
        np.testing.assert_allclose(
            clone.target_normalizer.mean, trained_gendt.target_normalizer.mean
        )
        for (name, a), (_, b) in zip(
            clone.generator.state_dict().items(), trained_gendt.generator.state_dict().items()
        ):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_checkpoint_carries_its_config(self, trained_gendt, tmp_path):
        path = tmp_path / "gendt.npz"
        trained_gendt.save(path)
        _, meta = read_checkpoint(path)
        saved = GenDTConfig.from_meta(meta["config"])
        assert saved == trained_gendt.config
        assert isinstance(saved.resgen_hidden, tuple)

    def test_config_meta_with_an_unknown_field_names_it(self, trained_gendt):
        meta = {**trained_gendt.config.to_meta(), "d_steps_per_g_step": 1}
        with pytest.raises(ValueError, match=r"unknown GenDTConfig fields.*'d_steps_per_g_step'"):
            GenDTConfig.from_meta(meta)

    def test_load_checkpoint_with_an_unknown_config_field_rejected(self, trained_gendt, tmp_path):
        path = tmp_path / "gendt.npz"
        trained_gendt.save(path)
        arrays, meta = read_checkpoint(path)
        meta["config"]["d_steps_per_g_step"] = 1
        write_checkpoint(path, arrays, meta)
        with pytest.raises(ValueError, match=r"unknown GenDTConfig fields.*'d_steps_per_g_step'"):
            GenDT.load(path, trained_gendt.region)

    @staticmethod
    def _load_without(model, path, key):
        model.save(path)
        arrays, meta = read_checkpoint(path)
        del meta[key]
        write_checkpoint(path, arrays, meta)
        with pytest.raises(ValueError) as excinfo:
            GenDT.load(path, model.region)
        assert str(path) in str(excinfo.value)
        assert repr(key) in str(excinfo.value)

    def test_load_checkpoint_without_config_rejected(self, trained_gendt, tmp_path):
        self._load_without(trained_gendt, tmp_path / "gendt.npz", "config")

    def test_load_checkpoint_without_kpis_rejected(self, trained_gendt, tmp_path):
        self._load_without(trained_gendt, tmp_path / "gendt.npz", "kpis")

    @pytest.mark.parametrize("key", ["n_env", "env_normalizer", "target_normalizer"])
    def test_load_checkpoint_without_model_state_rejected(self, trained_gendt, tmp_path, key):
        self._load_without(trained_gendt, tmp_path / "gendt.npz", key)


class TestAblationVariants:
    @pytest.fixture(scope="class")
    def mini_train(self, tiny_split):
        return tiny_split.train[:2]

    def _fit(self, region, mini_train, **overrides):
        base = dict(epochs=1, hidden_size=8, batch_len=15, train_step=15)
        base.update(overrides)
        config = small_config(**base)
        model = GenDT(region, kpis=["rsrp"], config=config, seed=1)
        model.fit(mini_train)
        return model

    def test_no_resgen(self, tiny_dataset_a, mini_train, tiny_split):
        model = self._fit(tiny_dataset_a.region, mini_train, use_resgen=False)
        out = model.generate(tiny_split.test[0].trajectory)
        assert np.all(np.isfinite(out))

    def test_no_srnn(self, tiny_dataset_a, mini_train, tiny_split):
        model = self._fit(tiny_dataset_a.region, mini_train, use_stochastic_layers=False)
        out = model.generate(tiny_split.test[0].trajectory)
        assert np.all(np.isfinite(out))

    def test_no_gan(self, tiny_dataset_a, mini_train, tiny_split):
        model = self._fit(tiny_dataset_a.region, mini_train, lambda_adv=0.0)
        assert model.trainer.discriminator is None
        out = model.generate(tiny_split.test[0].trajectory)
        assert np.all(np.isfinite(out))

    def test_no_batch_one_shot(self, tiny_dataset_a, mini_train, tiny_split):
        model = self._fit(tiny_dataset_a.region, mini_train, batch_len=None)
        out = model.generate(tiny_split.test[0].trajectory)
        assert out.shape[0] == len(tiny_split.test[0].trajectory)
