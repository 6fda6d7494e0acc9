"""Tests for the graph verifier (repro.analysis.graph).

Covers the three layers of the subsystem: the verifier itself (clean models
pass, the seeded defect classes are caught with named module paths and
shapes), the integration points (raise_on_error, and freedom from side
effects — the model's RNG stream, ``.grad`` and ``training`` flags — so
fit/load-time verification cannot change training), and the tooling on top (verify-graph
CLI exit codes, the SHP001 lint rule, lint --select / --ignore / --format
json).
"""

import json
import textwrap

import numpy as np
import pytest

from repro import cli, nn
from repro.core import GenDT, small_config
from repro.analysis.engine import lint_file
from repro.analysis.engine import main as lint_main
from repro.analysis.graph import verify
from repro.analysis.graph.registry import seeded_defects, shipped_entries
from repro.runtime.errors import GraphContractError

SHIPPED = {entry.name: entry for entry in shipped_entries()}
DEFECTS = {defect.name: defect for defect in seeded_defects()}


# ---------------------------------------------------------------------------
# Clean models verify clean.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_model_verifies_clean(name):
    entry = SHIPPED[name]
    report = verify(entry.build(0))
    assert report.ok, report.format()
    assert report.n_params > 0
    assert report.bound_dims, "verification should bind at least one dim"


def test_report_format_clean_line():
    report = verify(SHIPPED["linear"].build(0))
    text = report.format()
    assert text.startswith("ok    Linear.forward")
    assert "Fin=12" in text and "Fout=6" in text


# ---------------------------------------------------------------------------
# Seeded defects are detected, with module paths and shapes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_seeded_defect_detected(name):
    defect = DEFECTS[name]
    report = verify(defect.build(0))
    assert not report.ok, f"defect {name} slipped past the verifier"
    assert defect.expect in report.format()


def test_miswindowed_resgen_names_module_path_and_shapes():
    report = verify(DEFECTS["resgen_miswindowed"].build(0))
    text = report.format()
    # The failure is localised to the submodule that received the bad input,
    # and the message names the contract dim, not just raw integers.
    assert "ResGen.mlp" in text
    assert "'Fin' should be 38, got 42" in text
    assert "got [5, 42]" in text


def test_dead_weight_lists_exact_parameters():
    report = verify(DEFECTS["dead_weight"].build(0))
    assert sorted(report.dead_params) == ["orphan.bias", "orphan.weight"]
    assert not report.violations


def test_detached_head_reports_severed_path_and_no_grad_output():
    report = verify(DEFECTS["detached_head"].build(0))
    assert report.no_grad_output
    assert sorted(report.severed_params) == ["stem.bias", "stem.weight"]
    assert not report.dead_params


def test_lstm_sequence_twin_checks_weight_shapes():
    # A recurrent weight that no longer fits the input is caught by
    # lstm_sequence's own shape check, inside the module that called it.
    lstm = SHIPPED["stochastic_lstm"].build(0)
    lstm.weight_ih = nn.Parameter(np.zeros((4 * 14, 8)))
    with pytest.raises(GraphContractError) as excinfo:
        verify(lstm, raise_on_error=True)
    err = excinfo.value
    assert err.module_path == "LSTM"
    assert "weight_ih" in str(err)


def test_raise_on_error_raises_graph_contract_error():
    module = DEFECTS["resgen_miswindowed"].build(0)
    with pytest.raises(GraphContractError) as excinfo:
        verify(module, raise_on_error=True)
    assert "mlp" in str(excinfo.value)


def test_verify_is_free_of_rng_side_effects(tiny_dataset_a, tiny_split, monkeypatch):
    # fit()/load() verify the generator up front; that must not advance the
    # model's stream, or training becomes nondeterministic vs. the seed.  Nor
    # may it touch gradients or train/eval flags.
    def fit():
        config = small_config(epochs=1, hidden_size=6, batch_len=20, train_step=10)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=3)
        history = model.fit(tiny_split.train[:2])
        return history.total, model.rng.bit_generator.state

    verified_fit = fit()
    monkeypatch.setattr(GenDT, "_verify_generator", lambda self: None)
    assert fit() == verified_fit
    verified = SHIPPED["gendt_generator"].build(11)
    params = verified.parameters()
    for i, param in enumerate(params):
        param.grad = np.full(param.shape, float(i)) if i % 2 else None
    submodules = list(verified.modules())
    for i, sub in enumerate(submodules):
        sub.training = i % 3 != 0
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    flags = [sub.training for sub in submodules]
    report = verify(verified)
    assert report.ok, report.format()
    for param, grad in zip(params, grads):
        if grad is None:
            assert param.grad is None
        else:
            np.testing.assert_array_equal(param.grad, grad)
    assert [sub.training for sub in submodules] == flags


def test_dead_parameter_of_a_stochastic_module_is_dead_not_severed():
    # Every run draws from a fresh default_rng(0), so the perturbed re-run
    # sees the first run's noise and an orphan parameter moves nothing.
    module = SHIPPED["gendt_generator"].build(0)
    module.orphan = nn.Linear(3, 3, np.random.default_rng(0))
    report = verify(module)
    assert sorted(report.dead_params) == ["orphan.bias", "orphan.weight"]
    assert report.severed_params == []


def test_verify_leaves_defect_weights_unchanged():
    # The severed/dead re-check perturbs a weight and must restore it exactly.
    for name in ("dead_weight", "detached_head"):
        module = DEFECTS[name].build(0)
        before = module.state_dict()
        verify(module)
        for key, value in module.state_dict().items():
            np.testing.assert_array_equal(value, before[key])


def test_fit_weights_identical_with_and_without_verification(
    tiny_dataset_a, tiny_split, monkeypatch
):
    import repro.analysis.graph as graph

    config = dict(epochs=1, hidden_size=8, batch_len=20, train_step=10, minibatch_windows=16)
    states = []
    for verifying in (True, False):
        if not verifying:
            monkeypatch.setattr(graph, "verify", lambda *args, **kwargs: None)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=small_config(**config), seed=5)
        model.fit(tiny_split.train)
        states.append(model.generator.state_dict())
    assert states[0].keys() == states[1].keys()
    for key, value in states[0].items():
        np.testing.assert_array_equal(value, states[1][key])


def test_verify_rejects_module_without_contract():
    class Bare(nn.Module):
        def forward(self, x):
            return x

    # A missing declaration is a usage error, not a graph defect.
    with pytest.raises(ValueError) as excinfo:
        verify(Bare())
    assert "contract" in str(excinfo.value).lower()


# ---------------------------------------------------------------------------
# CLI: repro verify-graph
# ---------------------------------------------------------------------------


def test_cli_verify_graph_clean_exit_zero(capsys):
    assert cli.main(["verify-graph", "linear", "mlp"]) == 0
    out = capsys.readouterr().out
    assert "ok    Linear.forward" in out
    assert "ok    MLP.forward" in out


def test_cli_verify_graph_unknown_model_exit_two(capsys):
    assert cli.main(["verify-graph", "no_such_model"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_cli_verify_graph_self_test(capsys):
    assert cli.main(["verify-graph", "linear", "--self-test"]) == 0
    out = capsys.readouterr().out
    for name in DEFECTS:
        assert f"ok    defect {name} detected" in out


def test_cli_verify_graph_json(capsys):
    assert cli.main(["verify-graph", "linear", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "linear"
    assert payload[0]["ok"] is True
    assert payload[0]["bound_dims"] == {"Fin": 12, "Fout": 6}


def test_cli_verify_graph_list(capsys):
    assert cli.main(["verify-graph", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SHIPPED:
        assert name in out


# ---------------------------------------------------------------------------
# SHP001: exported Modules must declare contracts.
# ---------------------------------------------------------------------------


def _write_core_file(tmp_path, source):
    target = tmp_path / "repro" / "core" / "models.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def test_shp001_flags_uncontracted_module(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            def forward(self, x):
                return x
        """,
    )
    violations = lint_file(path, select=["SHP001"])
    assert [v.rule for v in violations] == ["SHP001"]
    assert "Net" in violations[0].message


def test_shp001_accepts_contracted_module(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn
        from repro.analysis.graph.spec import Spec, contract

        @contract(inputs={"x": Spec("B", "F")}, outputs=Spec("B", "F"))
        class Net(nn.Module):
            def forward(self, x):
                return x
        """,
    )
    assert lint_file(path, select=["SHP001"]) == []


def test_shp001_noqa_opt_out(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Container(nn.Module):  # repro: noqa[SHP001]
            pass
        """,
    )
    assert lint_file(path, select=["SHP001"]) == []


def test_shp001_ignores_out_of_scope_paths(tmp_path):
    target = tmp_path / "repro" / "eval" / "models.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro import nn\n\nclass Net(nn.Module):\n    pass\n",
        encoding="utf-8",
    )
    assert lint_file(target, select=["SHP001"]) == []


# ---------------------------------------------------------------------------
# Lint CLI: --select / --ignore / --format json
# ---------------------------------------------------------------------------


def test_lint_ignore_silences_rule(tmp_path):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            pass
        """,
    )
    assert lint_main([str(path), "--select", "SHP001"]) == 1
    assert lint_main([str(path), "--ignore", "SHP001"]) == 0


def test_lint_unknown_rule_exit_two(tmp_path, capsys):
    path = _write_core_file(tmp_path, "x = 1\n")
    assert lint_main([str(path), "--select", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    assert lint_main([str(path), "--ignore", "NOPE999"]) == 2


def test_lint_format_json(tmp_path, capsys):
    path = _write_core_file(
        tmp_path,
        """
        from repro import nn

        class Net(nn.Module):
            pass
        """,
    )
    assert lint_main([str(path), "--select", "SHP001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["rule"] == "SHP001"
    assert set(payload[0]) == {"rule", "path", "line", "col", "message"}


def test_lint_format_json_clean_is_empty_list(tmp_path, capsys):
    path = _write_core_file(tmp_path, "x = 1\n")
    assert lint_main([str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == []
