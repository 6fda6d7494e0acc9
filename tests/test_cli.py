"""CLI smoke tests (tiny scale, real subprocess-free invocation)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "a"
        assert args.seed == 7

    def test_generate_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    @pytest.mark.parametrize("command", ["generate", "generate-campaign", "evaluate"])
    @pytest.mark.parametrize("option", [["--hidden", "10"], ["--kpis", "rsrp"]])
    def test_model_options_come_from_the_checkpoint(self, command, option):
        # The checkpoint carries its KPIs and config; re-declaring them is an error.
        with pytest.raises(SystemExit):
            main([command, "--checkpoint", "m.gendt", *option])


class TestCommands:
    def test_simulate_prints_stats(self, capsys):
        rc = main(["simulate", "--samples", "150", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "walk" in out and "tram" in out
        assert "rsrp_mean" in out

    def test_train_generate_evaluate_round_trip(self, tmp_path, capsys):
        ckpt = str(tmp_path / "model.npz")
        rc = main([
            "train", "--samples", "150", "--seed", "3",
            "--epochs", "1", "--hidden", "10", "--out", ckpt,
        ])
        assert rc == 0
        assert (tmp_path / "model.npz").exists()

        csv = str(tmp_path / "gen.csv")
        rc = main([
            "generate", "--samples", "150", "--seed", "3",
            "--checkpoint", ckpt, "--route-length-m", "500",
            "--out", csv,
        ])
        assert rc == 0
        data = np.genfromtxt(csv, delimiter=",", names=True)
        assert {"t_s", "lat", "lon", "rsrp", "rsrq"} <= set(data.dtype.names)
        assert len(data) > 10
        assert np.all(data["rsrp"] <= -44) and np.all(data["rsrp"] >= -140)

        rc = main([
            "evaluate", "--samples", "150", "--seed", "3",
            "--checkpoint", ckpt,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fidelity" in out


class TestGenerateCampaign:
    def test_parser_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate-campaign"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["generate-campaign", "--checkpoint", "m.npz"]
        )
        assert args.routes == 8
        assert args.trajectory_deadline == 0.0
        assert args.max_resamples == 1
        assert not args.no_fdas

    def test_campaign_round_trip(self, tmp_path, capsys):
        import json

        ckpt = str(tmp_path / "model.npz")
        rc = main([
            "train", "--samples", "150", "--seed", "3",
            "--epochs", "1", "--hidden", "10", "--out", ckpt,
        ])
        assert rc == 0

        out = str(tmp_path / "campaign.jsonl")
        rc = main([
            "generate-campaign", "--samples", "150", "--seed", "3",
            "--checkpoint", ckpt,
            "--routes", "2", "--route-length-m", "400",
            "--out", out,
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "campaign: 2 trajectories" in printed

        lines = [json.loads(line) for line in open(out, encoding="utf-8")]
        envelopes, trailer = lines[:-1], lines[-1]
        assert len(envelopes) == 2
        assert all(e["record"] == "envelope" for e in envelopes)
        assert trailer["record"] == "summary"
        assert trailer["status_counts"]["ok"] >= 1
