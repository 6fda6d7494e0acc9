"""The draw axis of generation: one call per request, context built once.

``GenDT.generate_normalized(trajectory, n_draws=n)`` validates the
trajectory and builds its context windows once, then generates every window
for all ``n`` draws in one ``generate_batch`` call.  The campaign runner
leaves window building to that call, so each request's windows are built
once, and a window that fails validation there quarantines the request.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.baselines.fdas import FDaS
from repro.context.windows import ContextBuilder
from repro.core import GenDT, GenDTGenerator, mc_dropout_uncertainty, small_config
from repro.core import generator as generator_module
from repro.core import networks
from repro.core.generator import FIRST_STAGE_ROWS
from repro.core.networks import GnnNodeNetwork, ResGen
from repro.nn.tensor import Tensor
from repro.radio.kpis import KPI, KpiSpec
from repro.serving import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CampaignConfig,
    CampaignRunner,
    FaultPlan,
    ManualClock,
)


@pytest.fixture()
def calls(monkeypatch):
    """Counts window builds and ``generate_batch`` calls (with their row counts)."""
    counts = {"windows": 0, "batches": 0, "rows": []}
    build, generate_batch = ContextBuilder.windows_for_trajectory, GenDTGenerator.generate_batch

    def counted_build(self, *args, **kwargs):
        counts["windows"] += 1
        return build(self, *args, **kwargs)

    def counted_batch(self, batch, *args, **kwargs):
        counts["batches"] += 1
        counts["rows"].append(batch.n_windows)
        return generate_batch(self, batch, *args, **kwargs)

    monkeypatch.setattr(ContextBuilder, "windows_for_trajectory", counted_build)
    monkeypatch.setattr(GenDTGenerator, "generate_batch", counted_batch)
    return counts


def n_windows(model, trajectory) -> int:
    return len(model.context.generation_windows(trajectory, model._batch_len(len(trajectory))))


def make_runner(model, fdas=None, plan=None, **config_kwargs):
    clock = ManualClock()
    config = CampaignConfig(seed=42, **config_kwargs)
    return CampaignRunner(
        model, fdas=fdas, config=config, fault_plan=plan, clock=clock, sleep=clock.sleep
    )


class TestOneBatchPerWindow:
    @pytest.mark.parametrize("n", [3, 5])
    def test_generate_samples_builds_windows_once(self, trained_gendt, tiny_split, calls, n):
        traj = tiny_split.test[0].trajectory
        windows = n_windows(trained_gendt, traj)
        calls["windows"] = 0
        samples = trained_gendt.generate_samples(traj, n)
        assert samples.shape == (n, len(traj), 2)
        assert calls["windows"] == 1
        assert calls["batches"] == 1
        assert calls["rows"] == [windows]

    def test_mc_dropout_builds_windows_once(self, trained_gendt, tiny_split, calls):
        traj = tiny_split.test[0].trajectory
        windows = n_windows(trained_gendt, traj)
        calls["windows"] = 0
        estimate = mc_dropout_uncertainty(trained_gendt, traj, n_passes=4)
        assert estimate.n_passes == 4
        assert calls["windows"] == 1
        assert calls["batches"] == 1
        assert calls["rows"] == [windows]

    def test_window_hook_sees_the_draw_stack(self, trained_gendt, tiny_split):
        traj = tiny_split.test[0].trajectory
        shapes = []
        out = trained_gendt.generate_normalized(
            traj, n_draws=3, window_hook=lambda i, block: shapes.append(block.shape)
        )
        length = trained_gendt._batch_len(len(traj))
        assert shapes == [(3, length, 2)] * n_windows(trained_gendt, traj)
        assert out["series"].shape == (3, len(traj), 2)
        assert np.all(np.isfinite(out["series"]))

    def test_draws_differ(self, trained_gendt, tiny_split):
        samples = trained_gendt.generate_samples(tiny_split.test[0].trajectory, 3)
        assert not np.allclose(samples[0], samples[1])
        assert not np.allclose(samples[1], samples[2])

    def test_rejects_zero_draws(self, trained_gendt, tiny_split):
        with pytest.raises(ValueError, match="n_draws"):
            trained_gendt.generate_normalized(tiny_split.test[0].trajectory, n_draws=0)


class TestOneCallPerRequest:
    @pytest.fixture()
    def g_n_rows(self, monkeypatch):
        rows, forward = [], GnnNodeNetwork.forward

        def counted(self, cell_inputs, *args, **kwargs):
            rows.append(cell_inputs.shape[0])
            return forward(self, cell_inputs, *args, **kwargs)

        monkeypatch.setattr(GnnNodeNetwork, "forward", counted)
        return rows

    def test_route_over_the_row_budget_is_one_call(
        self, trained_gendt, tiny_split, calls, g_n_rows
    ):
        first, second, third = (r.trajectory for r in tiny_split.test[:3])
        traj = first.concat(second).concat(third)
        windows = n_windows(trained_gendt, traj)
        assert windows * trained_gendt.config.max_cells > FIRST_STAGE_ROWS
        series = trained_gendt.generate(traj)
        assert series.shape == (len(traj), 2)
        assert calls["batches"] == 1
        assert calls["rows"] == [windows]
        assert len(g_n_rows) > 1
        assert max(g_n_rows) <= FIRST_STAGE_ROWS
        assert sum(g_n_rows) == windows * trained_gendt.config.max_cells


class TestTailWindow:
    """The last window, anchored at ``T - L``, rolls only its new samples."""

    @pytest.fixture()
    def steps(self, monkeypatch):
        steps, rollout = [], ResGen.rollout

        def counted(self, env, base, *args, **kwargs):
            steps.append(base.shape[:2])
            return rollout(self, env, base, *args, **kwargs)

        monkeypatch.setattr(ResGen, "rollout", counted)
        return steps

    @pytest.mark.parametrize("n", [1, 2])
    def test_resgen_steps_sum_to_the_route_length(self, trained_gendt, tiny_split, steps, n):
        traj = tiny_split.test[0].trajectory.slice(0, 110)
        length = trained_gendt._batch_len(len(traj))
        assert len(traj) % length != 0
        hooked = []
        out = trained_gendt.generate_normalized(
            traj, n_draws=n, window_hook=lambda i, block: hooked.append(block.shape)
        )
        assert all(draws == n for draws, _ in steps)
        assert sum(samples for _, samples in steps) == len(traj)
        assert hooked == [(n, samples, 2) for _, samples in steps]
        assert hooked[-1][1] == len(traj) % length
        assert np.all(np.isfinite(out["series"]))


def _assert_first_stage_batched_equals_per_window(model, traj, atol):
    # G_n and G_a for one window at a time, given no generator (so without
    # noise), against the batched first stage of every window and draw.
    gen = model.generator
    windows = model.context.generation_windows(traj, model._batch_len(len(traj)))
    expected, done = np.empty((len(traj), 2)), 0
    with nn.no_grad():
        for window in windows:
            batch = model._assembler().assemble([window], with_target=False).astype(gen.dtype)
            _, n_cells, length, n_feat = batch.cell_x.shape
            flat = Tensor(batch.cell_x.reshape(n_cells, length, n_feat))
            hidden = gen.node_net(flat).numpy()
            mask = batch.cell_mask[0]
            h_avg = (hidden * mask[:, None, None]).sum(axis=0) / max(mask.sum(), 1.0)
            base = gen.agg_net(Tensor(h_avg[None])).numpy()[0]
            expected[done:window.start + length] = base[done - window.start:]
            done = window.start + length
    series = model.generate_normalized(traj, n_draws=2, first_stage_only=True)["series"]
    for draw in series:
        np.testing.assert_allclose(draw, expected, rtol=0, atol=atol)


def test_first_stage_batched_equals_per_window(trained_gendt_float64, tiny_split):
    traj = tiny_split.test[0].trajectory.slice(0, 110)
    _assert_first_stage_batched_equals_per_window(trained_gendt_float64, traj, atol=1e-12)


def test_first_stage_batched_equals_per_window_float32(trained_gendt, tiny_split):
    # In float32 the two batchings round differently: max |diff| measured
    # 1.5e-8 (one float32 ulp near 0.2); the bound is a few ulps at 1.
    traj = tiny_split.test[0].trajectory.slice(0, 110)
    _assert_first_stage_batched_equals_per_window(trained_gendt, traj, atol=1e-7)


def _assert_deterministic_draws_equal_the_single_draw(dataset, split, atol):
    # No denoising noise, no SRNN noise, no ResGen sampling: every draw of the
    # batch is the same deterministic function of the context.
    config = small_config(
        epochs=1, hidden_size=8, batch_len=20, train_step=10, use_stochastic_layers=False
    )
    model = GenDT(dataset.region, kpis=["rsrp", "rsrq"], config=config, seed=4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(networks, "N_NOISE_NODE", 0)
        model.fit(split.train)
    traj = split.test[0].trajectory
    single = model.generate_normalized(traj, first_stage_only=True)["series"]
    stack = model.generate_normalized(traj, n_draws=3, first_stage_only=True)["series"]
    assert single.shape == (1, len(traj), 2)
    assert stack.shape == (3, len(traj), 2)
    for row in stack:
        np.testing.assert_allclose(row, single[0], rtol=0, atol=atol)


def test_deterministic_draws_equal_the_single_draw(tiny_dataset_a, tiny_split, monkeypatch):
    monkeypatch.setattr(generator_module, "COMPUTE_DTYPE", np.float64)
    _assert_deterministic_draws_equal_the_single_draw(tiny_dataset_a, tiny_split, atol=1e-12)


def test_deterministic_draws_equal_the_single_draw_float32(tiny_dataset_a, tiny_split):
    # float32: max |diff| measured 0; the bound is a few float32 ulps at 1.
    _assert_deterministic_draws_equal_the_single_draw(tiny_dataset_a, tiny_split, atol=1e-7)


def test_kpi_clip_on_a_draw_stack_equals_clipping_each_draw():
    spec = KpiSpec([KPI.RSRP, KPI.RSRQ, KPI.CQI])
    rng = np.random.default_rng(0)
    stack = rng.normal([-90.0, -10.0, 8.0], [40.0, 10.0, 10.0], size=(4, 30, 3))
    clipped = spec.clip(stack)
    for draw, clipped_draw in zip(stack, clipped):
        np.testing.assert_array_equal(clipped_draw, spec.clip(draw))
    # The stack does get clipped on its channel axis.
    assert clipped[..., 0].max() <= -44.0
    assert np.array_equal(clipped[..., 2], np.round(clipped[..., 2]))


class TestCampaignWindows:
    def test_runner_builds_each_requests_windows_once(self, trained_gendt, tiny_split, calls):
        routes = [r.trajectory for r in tiny_split.test[:3]]
        result = make_runner(trained_gendt).run(routes)
        assert [e.status for e in result.envelopes] == [STATUS_OK] * 3
        assert calls["windows"] == len(routes)


class TestWindowValidationAtTheModel:
    """Non-finite environment context, met where the model builds windows."""

    BAD_SAMPLE = 45  # window 2 at batch_len 20

    @pytest.fixture()
    def routes(self, tiny_split):
        good = [r.trajectory for r in tiny_split.test[:2]]
        bad = copy.deepcopy(good[0])
        return [good[0], bad, good[1]]

    @pytest.fixture()
    def nan_env(self, trained_gendt, routes, monkeypatch):
        environment = trained_gendt.context.environment
        features = environment.features

        def poisoned(trajectory):
            out = features(trajectory)
            if trajectory is routes[1]:
                out = out.copy()
                out[self.BAD_SAMPLE, 0] = np.nan
            return out

        monkeypatch.setattr(environment, "features", poisoned)

    @pytest.fixture()
    def fdas(self, tiny_split):
        fdas = FDaS(kpis=["rsrp", "rsrq"], seed=0)
        fdas.fit(tiny_split.train)
        return fdas

    def test_quarantined_with_window_index_breaker_closed(
        self, trained_gendt, routes, nan_env, fdas
    ):
        assert trained_gendt._batch_len(len(routes[1])) == 20
        runner = make_runner(trained_gendt, fdas, breaker_threshold=1)
        result = runner.run(routes)
        assert [e.status for e in result.envelopes] == [
            STATUS_OK, STATUS_QUARANTINED, STATUS_OK,
        ]
        quarantined = result.envelopes[1]
        assert quarantined.quarantine_reason["index"] == 2
        assert "environment" in quarantined.quarantine_reason["error"]
        assert quarantined.series is None
        assert [(f.kind, f.window, f.level) for f in quarantined.faults] == [
            ("quarantined", 2, "admission"),
        ]
        # Bad context is the request's fault, not the model's.
        assert runner.breaker.state == "closed"
        assert runner.breaker.transitions == []
        assert [e.level for e in result.envelopes] == ["full", None, "full"]

    def test_served_by_fdas_while_breaker_open(self, trained_gendt, routes, nan_env, fdas):
        plan = FaultPlan().inject("exception", trajectory=0, window=0, level="full")
        runner = make_runner(trained_gendt, fdas, plan, breaker_threshold=1)
        result = runner.run(routes[:2])
        assert runner.breaker.state == "open"
        served = result.envelopes[1]
        assert served.status == STATUS_OK
        assert served.level == "fdas"
        assert served.series.shape == (len(routes[1]), 2)

    def test_fdas_serves_when_model_rungs_fail(
        self, trained_gendt, routes, nan_env, fdas
    ):
        # Request 0's NaNs at both model rungs make three consecutive
        # failures: the breaker opens, so no later request meets a model rung.
        plan = (
            FaultPlan()
            .inject("nan_output", trajectory=0, level="full", times=None)
            .inject("nan_output", trajectory=0, level="first_stage", times=None)
        )
        runner = make_runner(trained_gendt, fdas, plan)
        result = runner.run(routes)
        assert runner.breaker.state == "open"
        assert [e.status for e in result.envelopes] == [STATUS_OK] * 3
        assert [e.level for e in result.envelopes] == ["fdas"] * 3
