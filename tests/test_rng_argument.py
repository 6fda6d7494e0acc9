"""Randomness is an argument: a seeded call does not depend on earlier calls.

Every generation entry point takes an ``rng`` and draws from it alone, so
``generate(trajectory, np.random.default_rng(s))`` returns the same series
before and after unrelated ``generate`` calls on the same model.  No
``nn.Module`` holds a generator for such calls to advance.
"""

import numpy as np
import pytest

from repro.analysis.graph.registry import shipped_entries
from repro.baselines import DoppelGANger, FDaS, LSTMGNNBaseline, MLPBaseline
from repro.core import mc_dropout_uncertainty
from repro.eval import evaluate_method

KPIS = ["rsrp", "rsrq"]


@pytest.fixture(scope="module")
def baselines(tiny_dataset_a, tiny_split):
    region = tiny_dataset_a.region
    models = {
        "fdas": FDaS(kpis=KPIS, seed=0),
        "mlp": MLPBaseline(region, kpis=KPIS, hidden=(8,), max_cells=4, epochs=1),
        "lstm_gnn": LSTMGNNBaseline(
            region, kpis=KPIS, hidden=6, max_cells=4, epochs=1, max_train_len=40
        ),
        "orig_dg": DoppelGANger(
            region, kpis=KPIS, window_len=20, hidden=6, max_cells=4, epochs=1
        ),
        "real_context_dg": DoppelGANger(
            region, kpis=KPIS, real_context=True, window_len=20, hidden=6, max_cells=4, epochs=1
        ),
    }
    for model in models.values():
        model.fit(tiny_split.train[:3])
    return models


def _assert_unchanged_by_other_calls(call, other):
    """``call(rng)`` with a fresh ``default_rng(5)`` before and after ``other()``."""
    before = call(np.random.default_rng(5))
    other()
    after = call(np.random.default_rng(5))
    if isinstance(before, np.ndarray):
        np.testing.assert_array_equal(before, after)
    else:
        assert before == after


def test_gendt_generate(trained_gendt, tiny_split):
    traj, other = tiny_split.test[0].trajectory, tiny_split.test[1].trajectory

    def unrelated():
        trained_gendt.generate(other)
        trained_gendt.generate(traj, np.random.default_rng(9))

    _assert_unchanged_by_other_calls(lambda rng: trained_gendt.generate(traj, rng), unrelated)


@pytest.mark.parametrize("name", ["fdas", "mlp", "lstm_gnn", "orig_dg", "real_context_dg"])
def test_baseline_generate(baselines, tiny_split, name):
    model = baselines[name]
    traj, other = tiny_split.test[0].trajectory, tiny_split.test[1].trajectory
    _assert_unchanged_by_other_calls(
        lambda rng: model.generate(traj, rng), lambda: model.generate(other)
    )


@pytest.mark.parametrize("name", ["fdas", "orig_dg"])
def test_stochastic_baseline_draws_from_the_argument(baselines, tiny_split, name):
    # The property above is not vacuous: different generators, different draws.
    traj = tiny_split.test[0].trajectory
    model = baselines[name]
    a = model.generate(traj, np.random.default_rng(5))
    b = model.generate(traj, np.random.default_rng(6))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda model, traj, rng: model.generate_samples(traj, 2, rng),
        lambda model, traj, rng: model.generate_expected(traj, 2, rng),
        lambda model, traj, rng: mc_dropout_uncertainty(model, traj, 2, rng),
    ],
    ids=["generate_samples", "generate_expected", "mc_dropout_uncertainty"],
)
def test_gendt_multi_draw_methods(trained_gendt, tiny_split, call):
    traj, other = tiny_split.test[0].trajectory, tiny_split.test[1].trajectory
    _assert_unchanged_by_other_calls(
        lambda rng: call(trained_gendt, traj, rng), lambda: trained_gendt.generate(other)
    )


def test_harness_results_do_not_depend_on_earlier_calls(trained_gendt, tiny_split):
    records = tiny_split.test[:2]

    def evaluate():
        return evaluate_method("gendt", trained_gendt.generate, records, KPIS, n_generations=2)

    first = evaluate()
    trained_gendt.generate(records[0].trajectory)
    assert evaluate().per_scenario == first.per_scenario


def _generator_attributes(module):
    return [
        f"{type(sub).__name__}.{name}"
        for sub in module.modules()
        for name, value in vars(sub).items()
        if isinstance(value, np.random.Generator)
    ]


@pytest.mark.parametrize("entry", shipped_entries(), ids=lambda entry: entry.name)
def test_shipped_module_holds_no_generator(entry):
    assert _generator_attributes(entry.build(0)) == []


def test_fitted_gendt_generator_holds_no_generator(trained_gendt):
    assert _generator_attributes(trained_gendt.generator) == []
