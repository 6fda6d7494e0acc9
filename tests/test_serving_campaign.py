"""Chaos tests for the resilient campaign runner (:mod:`repro.serving`).

Every test drives the real trained model through the serving stack with a
deterministic :class:`FaultPlan` and a hand-advanced clock, so the scenarios
are bit-reproducible and never wait on wall-clock time.
"""

import copy
import json

import numpy as np
import pytest

from repro.baselines.fdas import FDaS
from repro.serving import (
    DEGRADATION_LEVELS,
    STATUS_CANCELLED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUSES,
    CampaignConfig,
    CampaignRunner,
    FaultPlan,
    ManualClock,
)


@pytest.fixture(scope="module")
def fitted_fdas(tiny_split) -> FDaS:
    fdas = FDaS(kpis=["rsrp", "rsrq"], seed=0)
    fdas.fit(tiny_split.train)
    return fdas


@pytest.fixture()
def campaign_trajectories(tiny_split):
    return [r.trajectory for r in tiny_split.test[:3]]


def make_runner(model, fdas, plan=None, **config_kwargs):
    config_kwargs.setdefault("seed", 42)
    clock = ManualClock()
    runner = CampaignRunner(
        model,
        fdas=fdas,
        config=CampaignConfig(**config_kwargs),
        fault_plan=plan,
        clock=clock,
        sleep=clock.sleep,
    )
    return runner, clock


def full_ladder_plan():
    """Defeats the full rung for trajectory 1 and both model rungs for 2."""
    return (
        FaultPlan()
        .inject("nan_output", trajectory=1, level="full", times=None)
        .inject("nan_output", trajectory=2, level="full", times=None)
        .inject("nan_output", trajectory=2, level="first_stage", times=None)
    )


class TestChaosCampaign:
    """The headline scenario: one campaign spanning every ladder level."""

    def test_all_ladder_levels_and_quarantine(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        bad = copy.deepcopy(campaign_trajectories[0])
        bad.lat[3] = np.nan
        runner, _ = make_runner(trained_gendt, fitted_fdas, full_ladder_plan())

        result = runner.run(campaign_trajectories + [bad])

        # No exception escaped: one envelope per request, statuses legal.
        assert len(result) == 4
        assert all(e.status in STATUSES for e in result.envelopes)

        statuses = [e.status for e in result.envelopes]
        levels = [e.level for e in result.envelopes]
        assert statuses == [STATUS_OK, STATUS_OK, STATUS_OK, STATUS_QUARANTINED]
        # Trajectory 0 untouched, 1 demoted once, 2 demoted to the bottom.
        assert levels == ["full", "first_stage", "fdas", None]

        # Every served envelope carries a finite series with the KPI layout.
        for envelope in result.envelopes[:3]:
            assert envelope.series.shape[1] == 2
            assert np.all(np.isfinite(envelope.series))
            assert envelope.kpi_names == ["rsrp", "rsrq"]

        # The quarantined request has a machine-readable reason.
        quarantined = result.envelopes[3]
        assert quarantined.quarantine_reason["index"] == 3
        assert "latitude" in quarantined.quarantine_reason["error"]
        assert quarantined.series is None

    def test_fault_accounting_matches_plan(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = full_ladder_plan()
        runner, _ = make_runner(trained_gendt, fitted_fdas, plan)
        result = runner.run(campaign_trajectories)

        # Trajectory 1: 2 full-level NaN attempts (original + one resample).
        traj1 = result.envelopes[1]
        assert [f.kind for f in traj1.faults] == [
            "non_finite_output",
            "non_finite_output",
        ]
        assert traj1.resamples == 1

        # Trajectory 2: two full-level failures trip the third consecutive
        # failure at first_stage; the breaker then blocks the resample.
        traj2 = result.envelopes[2]
        kinds = [f.kind for f in traj2.faults]
        assert kinds == [
            "non_finite_output",
            "non_finite_output",
            "non_finite_output",
            "breaker_open",
        ]
        # Envelope faults also appear in the campaign-wide log.
        assert all(f in result.fault_log for f in traj2.faults)

        # Exactly the planned injections fired, at the planned coordinates.
        assert {
            (f.trajectory, f.level)
            for f in result.fault_log
            if f.kind == "non_finite_output"
        } == {
            (1, "full"),
            (2, "full"),
            (2, "first_stage"),
        }

    def test_breaker_transitions_match_injections(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        runner, _ = make_runner(trained_gendt, fitted_fdas, full_ladder_plan())
        result = runner.run(campaign_trajectories)
        # 5 injected model faults with threshold 3 → exactly one trip; the
        # cool-down never elapses on the frozen clock, so it stays open.
        assert [(t["from"], t["to"]) for t in result.breaker_transitions] == [
            ("closed", "open")
        ]
        assert runner.breaker.state == "open"

    def test_rerun_same_seed_same_plan_is_byte_identical(
        self, trained_gendt, fitted_fdas, campaign_trajectories, tmp_path
    ):
        bad = copy.deepcopy(campaign_trajectories[0])
        bad.lat[3] = np.nan
        requests = campaign_trajectories + [bad]

        paths = []
        for run_index in range(2):
            runner, _ = make_runner(trained_gendt, fitted_fdas, full_ladder_plan())
            result = runner.run(requests)
            path = tmp_path / f"campaign-{run_index}.jsonl"
            result.to_jsonl(path, include_series=True)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_envelope_jsonl_schema(
        self, trained_gendt, fitted_fdas, campaign_trajectories, tmp_path
    ):
        runner, _ = make_runner(trained_gendt, fitted_fdas, full_ladder_plan())
        result = runner.run(campaign_trajectories)
        path = result.to_jsonl(tmp_path / "campaign.jsonl")

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        envelopes, trailer = lines[:-1], lines[-1]
        assert len(envelopes) == 3
        for record in envelopes:
            assert record["record"] == "envelope"
            assert record["status"] in STATUSES
            assert record["level"] in (None,) + DEGRADATION_LEVELS
            assert isinstance(record["faults"], list)
            for fault in record["faults"]:
                assert {"trajectory", "window", "level", "kind", "detail"} <= set(fault)
        assert trailer["record"] == "summary"
        assert trailer["status_counts"][STATUS_OK] == 3
        assert trailer["level_counts"] == {"full": 1, "first_stage": 1, "fdas": 1}
        assert len(trailer["breaker"]) == 1


class TestDegradationLadder:
    def test_injected_exception_demotes_without_resampling(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = FaultPlan().inject(
            "exception", trajectory=0, window=0, level="full"
        )
        runner, _ = make_runner(trained_gendt, fitted_fdas, plan)
        result = runner.run(campaign_trajectories[:1])
        envelope = result.envelopes[0]
        assert envelope.status == STATUS_OK
        assert envelope.level == "first_stage"
        assert envelope.resamples == 0  # infrastructure faults never resample
        assert [f.kind for f in envelope.faults] == ["exception"]
        assert envelope.faults[0].window == 0

    def test_without_fdas_ladder_bottoms_out_as_failed(
        self, trained_gendt, campaign_trajectories
    ):
        plan = (
            FaultPlan()
            .inject("nan_output", trajectory=0, level="full", times=None)
            .inject("nan_output", trajectory=0, level="first_stage", times=None)
        )
        runner, _ = make_runner(trained_gendt, None, plan, breaker_threshold=10)
        result = runner.run(campaign_trajectories[:1])
        envelope = result.envelopes[0]
        assert envelope.status == STATUS_FAILED
        assert envelope.level is None
        assert envelope.series is None

    def test_first_stage_rung_deterministic_given_rng_state(
        self, trained_gendt, campaign_trajectories
    ):
        # SRNN sampling and the ResGen loop are disabled on this rung and
        # the denoising noise z0 sits at its mean, so fixing the model's
        # RNG state fixes the output.
        state = trained_gendt.rng.bit_generator.state
        first = trained_gendt.generate(campaign_trajectories[0], first_stage_only=True)
        trained_gendt.rng.bit_generator.state = state
        second = trained_gendt.generate(campaign_trajectories[0], first_stage_only=True)
        np.testing.assert_array_equal(first, second)

    def test_first_stage_rung_draws_nothing(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        state = trained_gendt.rng.bit_generator.state
        first = trained_gendt.generate(campaign_trajectories[0], first_stage_only=True)
        second = trained_gendt.generate(campaign_trajectories[0], first_stage_only=True)
        np.testing.assert_array_equal(first, second)
        assert trained_gendt.rng.bit_generator.state == state
        # The runner's first-stage rung serves exactly that series.
        plan = FaultPlan().inject("exception", trajectory=0, window=0, level="full")
        runner, _ = make_runner(trained_gendt, fitted_fdas, plan)
        served = runner.run(campaign_trajectories[:1]).envelopes[0]
        assert served.level == "first_stage"
        np.testing.assert_array_equal(served.series, first)

    def test_mismatched_fdas_layout_rejected(self, trained_gendt, tiny_split):
        wrong = FDaS(kpis=["rsrp"], seed=0)
        wrong.fit(tiny_split.train)
        with pytest.raises(ValueError, match="KPI layout"):
            CampaignRunner(trained_gendt, fdas=wrong)


class TestDeadlines:
    def test_trajectory_deadline_yields_clean_partial_result(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = FaultPlan().inject(
            "latency", trajectory=0, window=0, latency_s=5.0
        )
        runner, _ = make_runner(
            trained_gendt, fitted_fdas, plan, trajectory_deadline_s=1.0
        )
        result = runner.run(campaign_trajectories[:2])

        timed_out = result.envelopes[0]
        assert timed_out.status == STATUS_DEADLINE
        kinds = [f.kind for f in timed_out.faults]
        assert "latency" in kinds and "trajectory_deadline" in kinds
        # The stall at window 0 means no window result was committed.
        assert timed_out.windows_completed == 0
        # The next trajectory still runs to completion.
        assert result.envelopes[1].status == STATUS_OK
        assert not result.deadline_hit  # only campaign deadlines set this

    def test_deadline_does_not_trip_the_breaker(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = FaultPlan().inject(
            "latency", trajectory=0, window=0, latency_s=5.0
        )
        runner, _ = make_runner(
            trained_gendt, fitted_fdas, plan, trajectory_deadline_s=1.0
        )
        runner.run(campaign_trajectories[:1])
        assert runner.breaker.state == "closed"
        assert runner.breaker.transitions == []

    def test_campaign_deadline_cancels_remaining_trajectories(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = FaultPlan().inject(
            "latency", trajectory=0, window=0, latency_s=5.0
        )
        runner, _ = make_runner(
            trained_gendt, fitted_fdas, plan, campaign_deadline_s=2.0
        )
        result = runner.run(campaign_trajectories)

        assert result.deadline_hit
        assert result.envelopes[0].status == STATUS_DEADLINE
        assert [f.kind for f in result.envelopes[0].faults] == [
            "latency",
            "campaign_deadline",
        ]
        assert [e.status for e in result.envelopes[1:]] == [
            STATUS_CANCELLED,
            STATUS_CANCELLED,
        ]
        summary = result.summary()
        assert summary["campaign_deadline_hit"] is True
        assert summary["status_counts"][STATUS_CANCELLED] == 2

    def test_latency_without_deadline_is_absorbed(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        plan = FaultPlan().inject(
            "latency", trajectory=0, window=0, latency_s=30.0
        )
        runner, clock = make_runner(trained_gendt, fitted_fdas, plan)
        result = runner.run(campaign_trajectories[:1])
        assert result.envelopes[0].status == STATUS_OK
        assert clock() >= 30.0
        assert result.elapsed_s >= 30.0


class TestCampaignConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CampaignConfig(max_resamples=-1).validate()
        with pytest.raises(ValueError):
            CampaignConfig(trajectory_deadline_s=0.0).validate()
        with pytest.raises(ValueError):
            CampaignConfig(campaign_deadline_s=-3.0).validate()


class TestPerRequestSeeds:
    """With ``CampaignConfig.seed``, request ``i`` draws from its own stream."""

    def variant(self, change, trajectories):
        routes, plan = list(trajectories), None
        if change == "shortened":
            routes[0] = routes[0].slice(0, 50)
        elif change == "quarantined":
            routes[0] = copy.deepcopy(routes[0])
            routes[0].lat[3] = np.nan
        else:  # faulted once at the full rung, then re-sampled
            plan = FaultPlan().inject("nan_output", trajectory=0, level="full")
        return routes, plan

    @pytest.mark.parametrize("change", ["shortened", "quarantined", "resampled"])
    def test_request_unchanged_by_the_others(
        self, trained_gendt, fitted_fdas, campaign_trajectories, change
    ):
        runner, _ = make_runner(trained_gendt, fitted_fdas)
        reference = runner.run(campaign_trajectories)
        routes, plan = self.variant(change, campaign_trajectories)
        runner, _ = make_runner(trained_gendt, fitted_fdas, plan)
        result = runner.run(routes)
        first = result.envelopes[0]
        assert (first.status, first.resamples) == {
            "shortened": (STATUS_OK, 0),
            "quarantined": (STATUS_QUARANTINED, 0),
            "resampled": (STATUS_OK, 1),
        }[change]
        for index in (1, 2):
            assert result.envelopes[index].status == STATUS_OK
            np.testing.assert_array_equal(
                result.envelopes[index].series, reference.envelopes[index].series
            )

    def test_model_rng_is_read_only(self, trained_gendt):
        with pytest.raises(AttributeError):
            trained_gendt.rng = np.random.default_rng(0)

    def test_seeded_campaign_ignores_the_model_streams(
        self, trained_gendt, fitted_fdas, campaign_trajectories
    ):
        # A seeded request draws from its own generator on every rung (the
        # plan demotes request 2 to FDaS): the model's and the fallback's own
        # streams neither shape its series nor move.
        def run():
            runner, _ = make_runner(trained_gendt, fitted_fdas, full_ladder_plan(), seed=5)
            return runner.run(campaign_trajectories).envelopes

        def states():
            return trained_gendt.rng.bit_generator.state, fitted_fdas.rng.bit_generator.state

        first = run()
        trained_gendt.generate(campaign_trajectories[0])
        fitted_fdas.generate(campaign_trajectories[0])
        before = states()
        second = run()
        assert states() == before
        assert [e.level for e in second] == ["full", "first_stage", "fdas"]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.series, b.series)
