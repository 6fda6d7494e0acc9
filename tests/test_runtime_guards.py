"""HealthGuard: fault injection, rollback recovery, LR backoff, give-up."""

import numpy as np
import pytest

from repro.core import GenDT, small_config
from repro.core.training import LR_GENERATOR
from repro.runtime import DivergenceError, HealthGuard, guards
from repro.runtime.guards import LR_BACKOFF, MAX_RECOVERIES, MIN_BASELINE


CFG = dict(epochs=2, hidden_size=8, batch_len=20, train_step=10, minibatch_windows=16)


def _fresh_model(dataset):
    return GenDT(dataset.region, kpis=["rsrp"], config=small_config(**CFG), seed=5)


@pytest.fixture
def no_rollback_budget(monkeypatch):
    monkeypatch.setattr(guards, "MAX_RECOVERIES", 0)


class TestGuardConfig:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            HealthGuard().inject_fault("meteor_strike", at_step=0)


class TestFaultRecovery:
    def test_nan_loss_recovered(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("nan_loss", at_step=2)
        model = _fresh_model(tiny_dataset_a)
        history = model.fit(tiny_split.train, guard=guard)
        # Training completed, the recovery is on the record, and the model
        # still generates finite output.
        assert guard.recoveries == 1
        assert [e.kind for e in guard.events] == ["nan_loss"]
        assert guard.events[0].action == "rollback"
        assert sum(history.recoveries) == 1
        assert all(np.isfinite(v) for v in history.total)
        out = model.generate(tiny_split.test[0].trajectory)
        assert np.all(np.isfinite(out))

    def test_corrupt_grad_recovered_without_poisoning_params(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("corrupt_grad", at_step=1)
        model = _fresh_model(tiny_dataset_a)
        model.fit(tiny_split.train, guard=guard)
        assert [e.kind for e in guard.events] == ["nonfinite_grad"]
        for param in model.generator.parameters():
            assert np.all(np.isfinite(param.data))

    def test_explode_loss_detected_as_divergence(self, tiny_dataset_a, tiny_split):
        # Injected after MIN_BASELINE healthy steps, so the baseline is armed.
        guard = HealthGuard()
        guard.inject_fault("explode_loss", at_step=MIN_BASELINE + 1)
        model = _fresh_model(tiny_dataset_a)
        model.fit(tiny_split.train, guard=guard)
        assert [e.kind for e in guard.events] == ["divergence"]

    def test_lr_backoff_applied_on_rollback(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("nan_loss", at_step=1)
        model = _fresh_model(tiny_dataset_a)
        model.fit(tiny_split.train, guard=guard)
        assert model.trainer.g_optimizer.lr == pytest.approx(LR_GENERATOR * LR_BACKOFF)
        assert guard.events[0].lr_after == pytest.approx(LR_GENERATOR * LR_BACKOFF)

    def test_multiple_faults_multiple_recoveries(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("nan_loss", at_step=1)
        guard.inject_fault("corrupt_grad", at_step=3)
        model = _fresh_model(tiny_dataset_a)
        history = model.fit(tiny_split.train, guard=guard)
        assert guard.recoveries == 2
        assert sum(history.recoveries) == 2

    @pytest.mark.usefixtures("no_rollback_budget")
    def test_max_recoveries_exhausted_raises(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("nan_loss", at_step=1)
        model = _fresh_model(tiny_dataset_a)
        with pytest.raises(DivergenceError) as excinfo:
            model.fit(tiny_split.train, guard=guard)
        assert excinfo.value.step == 1
        assert guard.events[-1].action == "fatal"

    def test_fatal_after_budget_of_rollbacks(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        faults = range(1, MAX_RECOVERIES + 2)  # one fault more than the budget
        for step in faults:
            guard.inject_fault("nan_loss", at_step=step)
        model = _fresh_model(tiny_dataset_a)
        with pytest.raises(DivergenceError) as excinfo:
            model.fit(tiny_split.train, guard=guard)
        assert excinfo.value.step == faults[-1]
        assert [e.action for e in guard.events] == ["rollback"] * MAX_RECOVERIES + ["fatal"]

    @pytest.mark.usefixtures("no_rollback_budget")
    def test_params_left_at_last_good_snapshot_after_fatal(self, tiny_dataset_a, tiny_split):
        guard = HealthGuard()
        guard.inject_fault("nan_loss", at_step=1)
        model = _fresh_model(tiny_dataset_a)
        with pytest.raises(DivergenceError):
            model.fit(tiny_split.train, guard=guard)
        # Rollback happened before the raise: parameters are finite/sane.
        for param in model.generator.parameters():
            assert np.all(np.isfinite(param.data))


class TestGuardNeutrality:
    def test_healthy_run_unaffected_by_guard(self, tiny_dataset_a, tiny_split):
        """With no faults, a guarded run is bit-identical to an unguarded one."""
        plain = _fresh_model(tiny_dataset_a)
        plain_history = plain.fit(tiny_split.train)

        guarded = _fresh_model(tiny_dataset_a)
        guarded_history = guarded.fit(tiny_split.train, guard=HealthGuard())

        np.testing.assert_array_equal(plain_history.mse, guarded_history.mse)
        a = plain.generator.state_dict()
        b = guarded.generator.state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
