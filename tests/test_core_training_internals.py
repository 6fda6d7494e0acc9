"""Trainer internals: loss wiring, discriminator interaction, minibatching."""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.core import (
    GenDT,
    GenDTGenerator,
    GenDTTrainer,
    WindowAssembler,
    make_minibatches,
    small_config,
)


@pytest.fixture(scope="module")
def training_setup(tiny_dataset_a, tiny_split):
    config = small_config(epochs=1, hidden_size=10, batch_len=15, train_step=15)
    model = GenDT(tiny_dataset_a.region, kpis=["rsrp", "rsrq"], config=config, seed=0)
    # Prepare normalizers + windows without fitting the generator.
    records = tiny_split.train[:2]
    stacked = np.concatenate([r.kpi_matrix(model.kpi_names) for r in records])
    model.target_normalizer.fit(stacked)
    windows = model.build_training_windows(records)
    env = np.concatenate([w.env_features for w in windows])
    model.env_normalizer.fit(env)
    return model, windows, config


class TestMinibatching:
    def test_all_windows_used(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(0)
        batches = make_minibatches(model._assembler(), windows, 4, rng)
        assert sum(b.n_windows for b in batches) == len(windows)

    def test_batches_respect_size_cap(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(0)
        batches = make_minibatches(model._assembler(), windows, 4, rng)
        assert all(b.n_windows <= 4 for b in batches)

    def test_mixed_lengths_grouped(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(0)
        # Append a duplicate window with a different length.
        import copy

        short = copy.deepcopy(windows[0])
        short.cell_features = short.cell_features[:7]
        short.env_features = short.env_features[:7]
        short.ue_lat = short.ue_lat[:7]
        short.ue_lon = short.ue_lon[:7]
        short.ue_speed = short.ue_speed[:7]
        short.target = short.target[:7]
        batches = make_minibatches(model._assembler(), list(windows) + [short], 4, rng)
        lengths = {b.length for b in batches}
        assert 7 in lengths


class TestTrainerWiring:
    def test_no_discriminator_when_lambda_zero(self, training_setup):
        model, windows, config = training_setup
        cfg = small_config(epochs=1, hidden_size=10, lambda_adv=0.0)
        gen = GenDTGenerator(2, 28, cfg, np.random.default_rng(0))
        trainer = GenDTTrainer(gen, cfg, np.random.default_rng(0))
        assert trainer.discriminator is None
        assert trainer.d_optimizer is None

    def test_fit_empty_batches_rejected(self, training_setup):
        model, windows, config = training_setup
        gen = GenDTGenerator(2, 28, config, np.random.default_rng(0))
        trainer = GenDTTrainer(gen, config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            trainer.fit([])

    def test_single_step_updates_parameters(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(1)
        gen = GenDTGenerator(2, 28, config, rng)
        trainer = GenDTTrainer(gen, config, rng)
        batches = make_minibatches(model._assembler(), windows, 4, rng)
        before = {k: v.copy() for k, v in gen.state_dict().items()}
        trainer.fit(batches[:1], epochs=1)
        after = gen.state_dict()
        changed = [k for k in before if not np.allclose(before[k], after[k])]
        assert len(changed) > len(before) // 2  # most parameters moved

    def test_history_lengths_match_epochs(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(2)
        gen = GenDTGenerator(2, 28, config, rng)
        trainer = GenDTTrainer(gen, config, rng)
        batches = make_minibatches(model._assembler(), windows, 4, rng)
        trainer.fit(batches, epochs=3)
        assert len(trainer.history.total) == 3
        assert len(trainer.history.discriminator) == 3

    def test_discriminator_loss_finite_and_positive(self, training_setup):
        model, windows, config = training_setup
        rng = np.random.default_rng(3)
        gen = GenDTGenerator(2, 28, config, rng)
        trainer = GenDTTrainer(gen, config, rng)
        batches = make_minibatches(model._assembler(), windows, 4, rng)
        trainer.fit(batches, epochs=2)
        for value in trainer.history.discriminator:
            assert np.isfinite(value)
            assert value > 0

    def test_generator_step_computes_no_discriminator_gradient(self, training_setup, monkeypatch):
        # The step freezes the discriminator: its weights get no gradient,
        # and the generator's update is bit-identical to one made with the
        # discriminator's gradients computed too.
        model, windows, config = training_setup
        runs = []
        for freeze in (True, False):
            if not freeze:
                monkeypatch.setattr(nn.Module, "frozen", lambda self: contextlib.nullcontext())
            rng = np.random.default_rng(4)
            gen = GenDTGenerator(2, 28, config, rng)
            trainer = GenDTTrainer(gen, config, rng)
            batch = make_minibatches(model._assembler(), windows, 4, rng)[0].astype(gen.dtype)
            stats = trainer._generator_step(batch)
            d_params = trainer.discriminator.parameters()
            assert all(p.requires_grad for p in d_params)  # unfrozen after the step
            runs.append((stats, gen.state_dict(), [p.grad for p in d_params]))
        (stats, state, d_grads), (ref_stats, ref_state, ref_d_grads) = runs
        assert all(grad is None for grad in d_grads)
        assert all(grad is not None for grad in ref_d_grads)
        assert stats == ref_stats
        for name, value in state.items():
            assert np.array_equal(value, ref_state[name]), name

    def test_continue_fit_keeps_normalizers(self, tiny_dataset_a, tiny_split):
        config = small_config(epochs=1, hidden_size=8, batch_len=15, train_step=15)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=0)
        model.fit(tiny_split.train)
        mean_before = model.target_normalizer.mean.copy()
        model.continue_fit(tiny_split.train[:1], epochs=1)
        np.testing.assert_allclose(model.target_normalizer.mean, mean_before)

    def test_continue_fit_requires_fitted(self, tiny_dataset_a, tiny_split):
        config = small_config(epochs=1, hidden_size=8)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=0)
        with pytest.raises(RuntimeError):
            model.continue_fit(tiny_split.train[:1], epochs=1)

    def test_zero_epochs_run_no_epoch(self, tiny_dataset_a, tiny_split):
        # epochs=0 means no epoch; only None selects the config's epochs.
        config = small_config(hidden_size=8, batch_len=15, train_step=15)
        model = GenDT(tiny_dataset_a.region, kpis=["rsrp"], config=config, seed=0)
        assert model.fit(tiny_split.train[:1], epochs=0).mse == []
        assert model.continue_fit(tiny_split.train[:1], epochs=0).mse == []
