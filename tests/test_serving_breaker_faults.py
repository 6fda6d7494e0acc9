"""Unit tests for the serving circuit breaker and the chaos fault plan.

Everything here is model-free and clock-injected: the breaker state machine
is driven with a hand-advanced fake clock, so no test ever sleeps.
"""

import numpy as np
import pytest

from repro.geo import Trajectory
from repro.serving import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CampaignConfig,
    CampaignRunner,
    CircuitBreaker,
    FaultPlan,
    ManualClock,
)
from repro.serving.breaker import MAX_TRIPS


def make_breaker(clock, threshold=3):
    return CircuitBreaker(failure_threshold=threshold, clock=clock)


def trips(breaker):
    return sum(t["to"] == STATE_OPEN for t in breaker.transitions)


def cooldowns(clock, breaker, n):
    """The cool-downs of ``n`` trips, each a failed half-open probe after the first."""
    out = []
    for _ in range(n):
        breaker.record_failure()
        out.append(breaker.cooldown_remaining_s())  # read at the moment of opening
        clock.sleep(out[-1])
        assert breaker.allow()
    return out


class TestBreakerStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker(ManualClock())
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = make_breaker(ManualClock(), threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert trips(breaker) == 1
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(ManualClock(), threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # never two in a row

    def test_half_open_probe_success_closes(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock.sleep(breaker.cooldown_remaining_s() + 0.01)
        assert breaker.allow()  # admits the probe
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_failure_reopens_with_longer_cooldown(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        first_cooldown = breaker.cooldown_remaining_s()
        clock.sleep(first_cooldown + 0.01)
        assert breaker.allow()
        breaker.record_failure()  # probe fails
        assert breaker.state == STATE_OPEN
        assert trips(breaker) == 2
        assert breaker.cooldown_remaining_s() > first_cooldown

    def test_cooldown_remaining_decreases_with_clock(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        before = breaker.cooldown_remaining_s()
        clock.sleep(before / 2)
        after = breaker.cooldown_remaining_s()
        assert 0.0 < after < before

    def test_transitions_are_recorded_in_order(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure()
        clock.sleep(breaker.cooldown_remaining_s() + 0.01)
        breaker.allow()
        breaker.record_success()
        states = [(t["from"], t["to"]) for t in breaker.transitions]
        assert states == [
            (STATE_CLOSED, STATE_OPEN),
            (STATE_OPEN, STATE_HALF_OPEN),
            (STATE_HALF_OPEN, STATE_CLOSED),
        ]

    def test_cooldowns_double_from_one_second(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        assert cooldowns(clock, breaker, MAX_TRIPS) == [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
        ]

    def test_cooldown_schedule_clamps_after_many_trips(self):
        clock = ManualClock()
        breaker = make_breaker(clock, threshold=1)
        # Far beyond MAX_TRIPS: every later trip reuses the last cool-down.
        assert cooldowns(clock, breaker, 20)[MAX_TRIPS - 1:] == [128.0] * (21 - MAX_TRIPS)
        assert trips(breaker) == 20

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestFaultPlan:
    def test_exact_coordinate_match(self):
        plan = FaultPlan().inject("exception", trajectory=2, window=3, level="full")
        assert plan.pop("exception", 2, 3, "full") is not None
        assert plan.pop("exception", 2, 3, "full") is None  # spent

    def test_wildcards_match_any_window_and_level(self):
        plan = FaultPlan().inject("nan_output", trajectory=1, times=2)
        assert plan.pop("nan_output", 1, 0, "full") is not None
        assert plan.pop("nan_output", 1, 7, "first_stage") is not None
        assert plan.pop("nan_output", 1, 0, "full") is None

    def test_level_filter_blocks_other_levels(self):
        plan = FaultPlan().inject("nan_output", trajectory=0, level="full", times=None)
        assert plan.pop("nan_output", 0, 0, "first_stage") is None
        assert plan.pop("nan_output", 0, 0, "full") is not None

    def test_unlimited_injection_never_spends(self):
        plan = FaultPlan().inject("nan_output", trajectory=0, times=None)
        for window in range(10):
            assert plan.pop("nan_output", 0, window, "full") is not None
        assert plan.pop("nan_output", 0, 10, "first_stage") is not None

    def test_wrong_trajectory_or_kind_does_not_fire(self):
        plan = FaultPlan().inject("exception", trajectory=4)
        assert plan.pop("exception", 5, 0, "full") is None
        assert plan.pop("nan_output", 4, 0, "full") is None
        assert plan.pop("exception", 4, 0, "full") is not None  # still armed

    def test_pop_returns_the_matched_injection(self):
        plan = FaultPlan().inject("latency", trajectory=1, latency_s=2.5)
        fired = plan.pop("latency", 1, 6, "first_stage")
        assert (fired.kind, fired.trajectory, fired.latency_s) == ("latency", 1, 2.5)
        assert plan.pop("latency", 1, 7, "first_stage") is None  # spent

    def test_invalid_injections_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().inject("meteor_strike", trajectory=0)
        with pytest.raises(ValueError):
            FaultPlan().inject("exception", trajectory=0, times=0)
        with pytest.raises(ValueError):
            FaultPlan().inject("latency", trajectory=0)  # latency_s missing

    def test_chaining_returns_self(self):
        plan = FaultPlan()
        assert plan.inject("exception", trajectory=0) is plan


class TestManualClock:
    def test_reads_and_advances(self):
        clock = ManualClock(start_s=10.0)
        assert clock() == 10.0
        clock.sleep(2.5)
        assert clock() == 12.5


class _ZerosModel:
    """Stands in for a fitted GenDT: one window of zeros, passed through the hook."""

    kpi_names = ["rsrp"]

    def generate(self, trajectory, rng=None, first_stage_only=False, window_hook=None):
        out = np.zeros((1, len(trajectory), 1))
        window_hook(0, out)
        return out[0]


class TestRunnerBreakerHistory:
    def test_second_run_reports_only_its_own_transitions(self):
        clock = ManualClock()
        plan = FaultPlan().inject("exception", trajectory=0, window=0, level="full")
        runner = CampaignRunner(
            _ZerosModel(), config=CampaignConfig(breaker_threshold=1),
            fault_plan=plan, clock=clock, sleep=clock.sleep,
        )
        route = Trajectory(np.arange(5.0), np.full(5, 51.5), np.full(5, -0.1))
        first = runner.run([route])
        assert [t["to"] for t in first.breaker_transitions] == [STATE_OPEN]
        snapshot = list(first.breaker_transitions)

        second = runner.run([route])  # the breaker stays open: no state change
        assert second.breaker_transitions == []
        assert second.summary()["breaker_transitions"] == 0
        assert first.breaker_transitions == snapshot
