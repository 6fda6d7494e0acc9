"""CLI fault-tolerance flags: --epochs 0, --checkpoint-every/--resume."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.runtime import read_checkpoint


DATA = ["--samples", "120", "--seed", "3"]
COMMON = [*DATA, "--hidden", "8"]


class TestEpochsZero:
    def test_zero_epochs_exits_cleanly(self, capsys):
        rc = main(["train", *COMMON, "--epochs", "0"])
        assert rc == 0
        assert "no epochs run" in capsys.readouterr().out

    def test_negative_epochs_exits_cleanly(self, capsys):
        rc = main(["train", *COMMON, "--epochs", "-2"])
        assert rc == 0
        assert "no epochs run" in capsys.readouterr().out


class TestParserFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.checkpoint_every == 0
        assert args.keep_last == 3
        assert not args.resume
        assert args.checkpoint_dir is None

    def test_resume_without_checkpointing_is_an_error(self, capsys):
        rc = main(["train", *COMMON, "--epochs", "1", "--resume"])
        assert rc == 2
        assert "--resume requires" in capsys.readouterr().out


class TestCheckpointedTraining:
    def test_checkpoints_written_with_rotation(self, tmp_path, capsys):
        out = str(tmp_path / "model.gendt")
        ckpt_dir = tmp_path / "ckpts"
        rc = main([
            "train", *COMMON, "--epochs", "4", "--out", out,
            "--checkpoint-every", "1", "--checkpoint-dir", str(ckpt_dir),
            "--keep-last", "2",
        ])
        assert rc == 0
        written = sorted(p.name for p in ckpt_dir.iterdir())
        assert written == ["ckpt-000002.gendt", "ckpt-000003.gendt"]

    def test_interrupt_and_resume_param_identical(self, tmp_path, capsys):
        """train --epochs 4 --checkpoint-every 1 interrupted after epoch 2,
        resumed with --resume, matches an uninterrupted 4-epoch run."""
        ckpt_dir = str(tmp_path / "ckpts")
        out_resumed = str(tmp_path / "resumed.gendt")
        out_full = str(tmp_path / "full.gendt")

        # "Interrupted" run: the first 2 epochs of the 4-epoch schedule.
        rc = main([
            "train", *COMMON, "--epochs", "2", "--out", str(tmp_path / "partial.gendt"),
            "--checkpoint-every", "1", "--checkpoint-dir", ckpt_dir, "--keep-last", "5",
        ])
        assert rc == 0

        rc = main([
            "train", *COMMON, "--epochs", "4", "--out", out_resumed, "--resume",
            "--checkpoint-every", "1", "--checkpoint-dir", ckpt_dir, "--keep-last", "5",
        ])
        assert rc == 0
        assert "resuming from" in capsys.readouterr().out

        rc = main(["train", *COMMON, "--epochs", "4", "--out", out_full])
        assert rc == 0

        resumed_arrays, _ = read_checkpoint(out_resumed)
        full_arrays, _ = read_checkpoint(out_full)
        assert set(resumed_arrays) == set(full_arrays)
        for key in full_arrays:
            np.testing.assert_array_equal(resumed_arrays[key], full_arrays[key])

    def test_resume_with_empty_dir_trains_from_scratch(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "empty"
        ckpt_dir.mkdir()
        rc = main([
            "train", *COMMON, "--epochs", "1", "--out", str(tmp_path / "m.gendt"),
            "--checkpoint-every", "1", "--checkpoint-dir", str(ckpt_dir), "--resume",
        ])
        assert rc == 0
        assert "training from scratch" in capsys.readouterr().out

    def test_trained_checkpoint_generates(self, tmp_path):
        """A checksummed CLI checkpoint feeds generate unchanged."""
        out = str(tmp_path / "model.gendt")
        rc = main(["train", *COMMON, "--epochs", "1", "--out", out])
        assert rc == 0
        csv = str(tmp_path / "gen.csv")
        rc = main([
            "generate", *DATA, "--checkpoint", out,
            "--route-length-m", "500", "--out", csv,
        ])
        assert rc == 0
        data = np.genfromtxt(csv, delimiter=",", names=True)
        assert len(data) > 10
