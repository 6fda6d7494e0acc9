"""MC-dropout uncertainty and the active-learning selection loop."""

import numpy as np
import pytest

from repro.core import (
    GenDT,
    mc_dropout_uncertainty,
    run_active_learning,
    small_config,
    subset_uncertainties,
)
from repro.metrics import fraction_used


class TestUncertainty:
    def test_estimate_fields(self, trained_gendt, tiny_split):
        traj = tiny_split.test[0].trajectory
        est = mc_dropout_uncertainty(trained_gendt, traj, n_passes=3)
        assert est.model_uncertainty > 0
        assert est.data_uncertainty > 0
        assert est.n_passes == 3

    def test_needs_two_passes(self, trained_gendt, tiny_split):
        with pytest.raises(ValueError):
            mc_dropout_uncertainty(trained_gendt, tiny_split.test[0].trajectory, n_passes=1)

    def test_dropout_restored_after_probe(self, trained_gendt, tiny_split):
        resgen = trained_gendt.generator.resgen
        mc_dropout_uncertainty(trained_gendt, tiny_split.test[0].trajectory, n_passes=2)
        assert resgen.training
        assert all(layer.training for layer in resgen.mlp.dropout_layers)

    def test_probe_turns_dropout_on_in_eval_mode(self, trained_gendt, tiny_split):
        traj = tiny_split.test[0].trajectory
        generator = trained_gendt.generator

        def probe():
            return mc_dropout_uncertainty(trained_gendt, traj, 3, np.random.default_rng(5))

        in_training = probe()
        generator.eval()
        try:
            in_eval = probe()
            assert not generator.resgen.training
            assert not any(layer.training for layer in generator.resgen.mlp.dropout_layers)
        finally:
            generator.train()
        # Dropout was on in both probes: the same draws give the same estimate.
        assert in_eval.model_uncertainty > 0
        assert in_eval == in_training

    def test_requires_resgen(self, tiny_dataset_a, tiny_split):
        config = small_config(epochs=1, hidden_size=8, use_resgen=False, batch_len=15)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=0)
        model.fit(tiny_split.train[:2])
        with pytest.raises(RuntimeError):
            mc_dropout_uncertainty(model, tiny_split.test[0].trajectory)

    def test_subset_scores(self, trained_gendt, tiny_split):
        subsets = [[r] for r in tiny_split.test[:2]]
        scores = subset_uncertainties(trained_gendt, subsets, n_passes=2)
        assert len(scores) == 2
        assert all(s > 0 for s in scores)

    def test_subset_scores_ignore_earlier_calls(self, trained_gendt, tiny_split):
        """Each record draws from its own generator, never from ``model.rng``."""
        subsets = [[r] for r in tiny_split.test[:3]]
        state = trained_gendt.rng.bit_generator.state
        try:
            before = subset_uncertainties(trained_gendt, subsets, n_passes=4)
            assert trained_gendt.rng.bit_generator.state == state
            trained_gendt.generate(tiny_split.test[0].trajectory)
            assert subset_uncertainties(trained_gendt, subsets, n_passes=4) == before
        finally:
            trained_gendt.rng.bit_generator.state = state


class TestActiveLearning:
    @pytest.fixture(scope="class")
    def setup(self, tiny_dataset_a, tiny_split):
        region = tiny_dataset_a.region
        subsets = [[r] for r in tiny_split.train[:4]]
        eval_rec = tiny_split.test[0]

        def factory():
            config = small_config(epochs=1, hidden_size=8, batch_len=15, train_step=15)
            return GenDT(region, kpis=["rsrp"], config=config, seed=2)

        def evaluate(model):
            from repro.metrics import mae

            gen = model.generate(eval_rec.trajectory)
            return {"mae": mae(eval_rec.kpi["rsrp"], gen[:, 0])}

        return factory, subsets, evaluate

    def test_uncertainty_strategy_runs(self, setup):
        factory, subsets, evaluate = setup
        result = run_active_learning(
            factory, subsets, evaluate, n_steps=2,
            strategy="uncertainty", epochs_per_step=1, mc_passes=2,
        )
        assert result.strategy == "uncertainty"
        assert len(result.steps) == 3
        fractions = result.fractions()
        assert fractions == sorted(fractions)
        # The time-weighted share of §5.1, not a count of subsets.
        used = [r for step in result.steps for r in subsets[step.chosen_subset]]
        assert fractions[-1] == pytest.approx(fraction_used(used, [r for s in subsets for r in s]))
        assert all(np.isfinite(v) for v in result.metric_series("mae"))

    def test_random_strategy_runs(self, setup):
        factory, subsets, evaluate = setup
        result = run_active_learning(
            factory, subsets, evaluate, n_steps=2,
            strategy="random", rng=np.random.default_rng(0), epochs_per_step=1,
        )
        assert len(result.steps) == 3

    def test_random_requires_rng(self, setup):
        factory, subsets, evaluate = setup
        with pytest.raises(ValueError):
            run_active_learning(factory, subsets, evaluate, 1, strategy="random")

    def test_unknown_strategy(self, setup):
        factory, subsets, evaluate = setup
        with pytest.raises(ValueError):
            run_active_learning(factory, subsets, evaluate, 1, strategy="greedy")

    def test_no_repeat_selection(self, setup):
        factory, subsets, evaluate = setup
        result = run_active_learning(
            factory, subsets, evaluate, n_steps=3,
            strategy="random", rng=np.random.default_rng(1), epochs_per_step=1,
        )
        chosen = [s.chosen_subset for s in result.steps]
        assert len(set(chosen)) == len(chosen)
