"""Atomic checkpoint container: round trips, corruption detection, rotation,
optimizer state serialization, and bit-exact training resume."""

import numpy as np
import pytest

from repro import nn
from repro.core import GenDT, small_config
from repro.runtime import (
    CheckpointManager,
    CheckpointCorruptError,
    SCHEMA_VERSION,
    read_checkpoint,
    write_checkpoint,
)


def _arrays():
    rng = np.random.default_rng(0)
    return {"a": rng.normal(size=(4, 3)), "b": np.arange(7.0), "nested.name": rng.normal(size=2)}


class TestContainer:
    def test_round_trip(self, tmp_path):
        arrays = _arrays()
        path = write_checkpoint(tmp_path / "x.gendt", arrays, {"epoch": 3, "tag": "t"})
        loaded, meta = read_checkpoint(path)
        assert meta == {"epoch": 3, "tag": "t"}
        assert set(loaded) == set(arrays)
        for key in arrays:
            np.testing.assert_array_equal(loaded[key], arrays[key])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(tmp_path / "nope.gendt")

    def test_corrupt_any_single_byte_detected(self, tmp_path):
        """Property-style: flipping one byte anywhere must be detected."""
        path = write_checkpoint(tmp_path / "x.gendt", _arrays(), {"epoch": 1})
        raw = path.read_bytes()
        rng = np.random.default_rng(42)
        # Sample positions across the whole file (magic, header, digest,
        # payload) plus the boundaries.
        positions = sorted(
            set(rng.integers(0, len(raw), size=40).tolist()) | {0, 7, 8, 20, len(raw) - 1}
        )
        for pos in positions:
            corrupted = bytearray(raw)
            corrupted[pos] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointCorruptError):
                read_checkpoint(path)
        path.write_bytes(raw)
        read_checkpoint(path)  # pristine copy still loads

    def test_truncation_detected(self, tmp_path):
        path = write_checkpoint(tmp_path / "x.gendt", _arrays(), {})
        raw = path.read_bytes()
        for cut in (4, 12, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointCorruptError):
                read_checkpoint(path)

    def test_unknown_schema_rejected(self, tmp_path, monkeypatch):
        import repro.runtime.checkpoint as ckpt

        path = write_checkpoint(tmp_path / "x.gendt", _arrays(), {})
        monkeypatch.setattr(ckpt, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        with pytest.raises(CheckpointCorruptError, match="schema version"):
            ckpt.read_checkpoint(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_checkpoint(tmp_path / "x.gendt", _arrays(), {})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestManager:
    def test_rotation_keeps_last_n(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for epoch in range(5):
            manager.save({"w": np.full(3, float(epoch))}, {"kind": "trainer", "epoch": epoch}, epoch)
        epochs = [e for e, _ in manager.checkpoints()]
        assert epochs == [3, 4]
        assert manager.latest().name.endswith("000004.gendt")

    def test_latest_of_an_empty_directory_is_none(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None
        assert CheckpointManager(tmp_path / "absent").latest() is None

    def test_due_every_n_epochs(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert [epoch for epoch in range(9) if manager.due(epoch)] == [2, 5, 8]
        assert all(CheckpointManager(tmp_path).due(epoch) for epoch in range(4))

    @pytest.mark.parametrize("name", ["every", "keep_last"])
    def test_settings_below_one_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match=name):
            CheckpointManager(tmp_path, **{name: 0})


class TestOptimizerState:
    def _stepped_adam(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        opt = nn.Adam(layer.parameters(), lr=0.05)
        x = nn.Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        for _ in range(3):
            loss = nn.mse_loss(layer(x), nn.Tensor(np.zeros((4, 2))))
            opt.zero_grad()
            loss.backward()
            opt.step()
        return layer, opt, x

    def test_adam_state_round_trip(self):
        layer, opt, x = self._stepped_adam()
        state = opt.state_dict()
        assert int(state["t"][0]) == 3

        clone_layer = nn.Linear(3, 2, rng=np.random.default_rng(9))
        clone_layer.load_state_dict(layer.state_dict())
        clone_opt = nn.Adam(clone_layer.parameters(), lr=999.0)
        clone_opt.load_state_dict(state)
        assert clone_opt.lr == opt.lr

        # One more identical step on both must produce identical parameters.
        for optimizer, module in ((opt, layer), (clone_opt, clone_layer)):
            loss = nn.mse_loss(module(x), nn.Tensor(np.zeros((4, 2))))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        for (_, a), (_, b) in zip(layer.named_parameters(), clone_layer.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


class TestTrainingResume:
    """save -> resume-from-epoch-k reproduces an uninterrupted run bit-exactly."""

    CFG = dict(epochs=3, hidden_size=8, batch_len=20, train_step=10, minibatch_windows=16)

    def _model(self, dataset):
        return GenDT(dataset.region, kpis=["rsrp"], config=small_config(**self.CFG), seed=5)

    def test_resume_bit_exact(self, tiny_dataset_a, tiny_split, tmp_path):
        full = self._model(tiny_dataset_a)
        full_history = full.fit(
            tiny_split.train, checkpoints=CheckpointManager(tmp_path / "full", keep_last=5)
        )

        # "Interrupted" run: stop after epoch 2, then resume to completion.
        part = self._model(tiny_dataset_a)
        checkpoints = CheckpointManager(tmp_path / "part", keep_last=5)
        part.fit(tiny_split.train, epochs=2, checkpoints=checkpoints)
        resumed = self._model(tiny_dataset_a)
        resumed_history = resumed.fit(
            tiny_split.train, checkpoints=checkpoints, resume_from=checkpoints.latest()
        )

        full_state = full.generator.state_dict()
        resumed_state = resumed.generator.state_dict()
        assert set(full_state) == set(resumed_state)
        for key in full_state:
            np.testing.assert_array_equal(full_state[key], resumed_state[key])
        np.testing.assert_array_equal(full_history.mse, resumed_history.mse)
        np.testing.assert_array_equal(full_history.total, resumed_history.total)

    def test_resume_restores_history_and_rng(self, tiny_dataset_a, tiny_split, tmp_path):
        model = self._model(tiny_dataset_a)
        checkpoints = CheckpointManager(tmp_path / "c", keep_last=5)
        model.fit(tiny_split.train, epochs=2, checkpoints=checkpoints)
        resumed = self._model(tiny_dataset_a)
        history = resumed.fit(tiny_split.train, resume_from=checkpoints.latest())
        # 2 restored epochs + 1 new one.
        assert len(history.mse) == 3

    def test_checkpoints_written_only_when_due(self, tiny_dataset_a, tiny_split, tmp_path):
        checkpoints = CheckpointManager(tmp_path / "c", every=2, keep_last=5)
        self._model(tiny_dataset_a).fit(tiny_split.train, checkpoints=checkpoints)
        assert [epoch for epoch, _ in checkpoints.checkpoints()] == [1]

    def test_trainer_checkpoint_carries_model_meta(self, tiny_dataset_a, tiny_split, tmp_path):
        model = self._model(tiny_dataset_a)
        checkpoints = CheckpointManager(tmp_path / "c")
        model.fit(tiny_split.train, epochs=1, checkpoints=checkpoints)
        _, meta = read_checkpoint(checkpoints.latest())
        assert meta["kind"] == "trainer"
        assert meta["kpis"] == ["rsrp"]
        assert "rng_state" in meta and "target_normalizer" in meta


class TestModelPersistenceFormat:
    def test_model_save_is_checksummed_checkpoint(self, trained_gendt, tmp_path):
        path = tmp_path / "model.gendt"
        trained_gendt.save(path)
        _, meta = read_checkpoint(path)
        assert meta["kind"] == "model"
        assert meta["kpis"] == ["rsrp", "rsrq"]

    def test_corrupted_model_checkpoint_rejected(self, trained_gendt, tmp_path):
        path = tmp_path / "model.gendt"
        trained_gendt.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            GenDT.load(path, trained_gendt.region)
