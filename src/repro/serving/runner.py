"""The resilient campaign runner: fault isolation for batch generation.

``CampaignRunner.run`` takes a campaign (a sequence of trajectories) and
returns one structured :class:`~repro.serving.envelope.GenerationEnvelope`
per trajectory — it never lets a single bad request abort the batch.  The
isolation layers, in the order a request meets them:

1. **Admission / quarantine** — :func:`validate_trajectory` runs per
   request at admission; the model validates the context windows where it
   builds them, once per request.  Either failure quarantines that
   trajectory with a machine-readable reason instead of raising, and a
   window failure does not count against the circuit breaker.
2. **Deadlines** — a wall-clock budget per trajectory and per campaign,
   checked at every generation window; expiry yields a clean partial result
   (``deadline_exceeded`` for the trajectory that tripped it,
   ``cancelled`` envelopes for work never started).
3. **Circuit breaker** — consecutive model faults open the breaker
   (:class:`~repro.serving.breaker.CircuitBreaker`); while open, requests
   demote straight to the model-free FDaS rung instead of hammering a
   failing model.
4. **Degradation ladder** — the rungs, best first:

   * ``full`` — the complete stochastic GenDT pipeline (G_n + G_a +
     ResGen), the paper's headline generator;
   * ``first_stage`` — ``first_stage_only=True``: ResGen residual sampling
     skipped, so the shadowing texture is lost but all context
     conditioning kept, and the autoregressive residual loop cannot
     destabilize it.  It draws no noise (SRNN sampling off, the denoising
     noise ``z0`` at its mean 0), so it is a deterministic function of the
     trajectory;
   * ``fdas`` — only when a fallback is given: the context-free
     fit-distribution-and-sample baseline
     (:class:`repro.baselines.fdas.FDaS`), statistically plausible
     marginals with no model call at all, so it also serves while the
     breaker holds the model open.

   Each rung's output is checked for NaN/Inf and re-sampled a bounded
   number of times before the request demotes to the next rung; the
   achieved level is recorded in the envelope.

Clock and sleep are injectable (:class:`ManualClock`), and combined with a
:class:`~repro.serving.faults.FaultPlan` plus ``CampaignConfig.seed`` every
run is deterministic: the chaos tests re-run whole campaigns and compare
the JSONL output byte-for-byte.  With a seed, each request draws from its
own stream, so its output depends only on the seed, its index and its
trajectory, not on what the other requests did.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.generator import WindowHook
from ..geo.trajectory import Trajectory
from ..runtime.errors import (
    ContextValidationError,
    DeadlineExceeded,
    GenDTRuntimeError,
    GenerationFaultError,
)
from ..runtime.retry import REAL_SLEEP
from ..runtime.validate import validate_trajectory
from .breaker import CircuitBreaker
from .envelope import (
    DEGRADATION_LEVELS,
    STATUS_CANCELLED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    CampaignResult,
    FaultRecord,
    GenerationEnvelope,
)
from .faults import FaultPlan

LEVEL_FULL, LEVEL_FIRST_STAGE, LEVEL_FDAS = DEGRADATION_LEVELS


class ManualClock:
    """A hand-advanced clock for deterministic serving runs.

    Use as both ``clock`` and ``sleep``::

        clock = ManualClock()
        runner = CampaignRunner(model, clock=clock, sleep=clock.sleep)

    Injected latency faults then advance virtual time only, so deadline and
    breaker cool-down behavior is bit-reproducible and tests never wait.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        self.now_s = float(start_s)

    def __call__(self) -> float:
        return self.now_s

    def sleep(self, seconds: float) -> None:
        self.now_s += float(seconds)


@dataclass
class CampaignConfig:
    """Tunables for one campaign run.

    ``seed`` (when set) gives request ``index`` its own generator,
    ``np.random.default_rng([seed, index])``: every ladder rung of the
    request draws from it, its re-samples and demotions included.  Its
    output then depends only on the seed, its index and its trajectory.
    Without a seed, requests continue the model's and the FDaS fallback's
    own streams.
    """

    trajectory_deadline_s: Optional[float] = None
    campaign_deadline_s: Optional[float] = None
    max_resamples: int = 1
    breaker_threshold: int = 3
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.max_resamples < 0:
            raise ValueError("max_resamples must be >= 0")
        for name in ("trajectory_deadline_s", "campaign_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")


class CampaignRunner:
    """Serve a batch-generation campaign with per-request fault isolation.

    Args:
        model: a fitted :class:`repro.core.GenDT`.
        fdas: optional fitted :class:`repro.baselines.fdas.FDaS` fallback
            with the same KPI layout as ``model``; without it the ladder
            bottoms out at ``first_stage``.
        config: campaign tunables (:class:`CampaignConfig`).
        fault_plan: optional :class:`FaultPlan` for deterministic chaos.
        clock: monotonic-seconds source (default: ``time.monotonic``).
        sleep: delay function used by injected latency faults (default:
            :data:`repro.runtime.retry.REAL_SLEEP`; pass the
            :class:`ManualClock`'s ``sleep`` in tests).
    """

    def __init__(
        self,
        model,
        fdas=None,
        config: Optional[CampaignConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if fdas is not None and list(fdas.kpi_names) != list(model.kpi_names):
            raise ValueError(
                f"FDaS fallback KPI layout {fdas.kpi_names} does not match "
                f"model {model.kpi_names}"
            )
        self.config = config or CampaignConfig()
        self.config.validate()
        self.model = model
        self.fdas = fdas
        #: The ladder, best rung first.
        self.levels = (LEVEL_FULL, LEVEL_FIRST_STAGE)
        if fdas is not None:
            self.levels += (LEVEL_FDAS,)
        self.fault_plan = fault_plan
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else REAL_SLEEP
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold, clock=self._clock,
        )

    # ------------------------------------------------------------------
    # Campaign loop
    # ------------------------------------------------------------------
    def run(self, trajectories: Sequence[Trajectory]) -> CampaignResult:
        """Serve every trajectory; never raises for per-request faults."""
        result = CampaignResult()
        started_s = self._clock()
        # The breaker outlives a run: report only this run's transitions.
        first_transition = len(self.breaker.transitions)
        campaign_deadline = (
            started_s + self.config.campaign_deadline_s
            if self.config.campaign_deadline_s is not None
            else None
        )
        for index, trajectory in enumerate(trajectories):
            if campaign_deadline is not None and self._clock() >= campaign_deadline:
                result.deadline_hit = True
                fault = FaultRecord(
                    trajectory=index, window=-1, level="admission",
                    kind="campaign_deadline",
                    detail="campaign budget exhausted before this trajectory",
                )
                result.fault_log.append(fault)
                result.envelopes.append(
                    GenerationEnvelope(
                        trajectory=index, status=STATUS_CANCELLED,
                        faults=[fault],
                    )
                )
                continue
            envelope = self._serve_one(
                index, trajectory, campaign_deadline, result.fault_log
            )
            if envelope.status == STATUS_DEADLINE and any(
                f.kind == "campaign_deadline" for f in envelope.faults
            ):
                result.deadline_hit = True
            result.envelopes.append(envelope)
        result.breaker_transitions = self.breaker.transitions[first_transition:]
        result.elapsed_s = self._clock() - started_s
        return result

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------
    def _serve_one(
        self,
        index: int,
        trajectory: Trajectory,
        campaign_deadline: Optional[float],
        fault_log: List[FaultRecord],
    ) -> GenerationEnvelope:
        started_s = self._clock()
        trajectory_deadline = (
            started_s + self.config.trajectory_deadline_s
            if self.config.trajectory_deadline_s is not None
            else None
        )
        faults: List[FaultRecord] = []

        def record(kind: str, window: int, level: str, detail: str) -> FaultRecord:
            fault = FaultRecord(
                trajectory=index, window=window, level=level,
                kind=kind, detail=detail,
            )
            faults.append(fault)
            fault_log.append(fault)
            return fault

        def finish(envelope: GenerationEnvelope) -> GenerationEnvelope:
            envelope.faults = faults
            envelope.elapsed_s = self._clock() - started_s
            return envelope

        def quarantine(exc: ContextValidationError) -> GenerationEnvelope:
            record("quarantined", exc.index, "admission", str(exc))
            return finish(
                GenerationEnvelope(
                    trajectory=index,
                    status=STATUS_QUARANTINED,
                    quarantine_reason={"error": str(exc), "index": exc.index},
                )
            )

        # 1. Admission: quarantine instead of raising.
        try:
            validate_trajectory(trajectory)
        except ContextValidationError as exc:
            return quarantine(exc)

        seed = self.config.seed
        rng = None if seed is None else np.random.default_rng([seed, index])

        # 2-4. Ladder with breaker and deadlines.
        progress = {"windows": 0}
        resamples = 0
        for level in self.levels:
            uses_model = level != LEVEL_FDAS
            for attempt in range(self.config.max_resamples + 1):
                if uses_model and not self.breaker.allow():
                    record(
                        "breaker_open", -1, level,
                        f"circuit open; {self.breaker.cooldown_remaining_s():.3f}s "
                        "cooldown remaining",
                    )
                    break  # demote without touching the model
                hook = self._window_hook(
                    index, level, trajectory_deadline, campaign_deadline,
                    started_s, progress, record,
                )
                try:
                    series = self._attempt(trajectory, level, hook, rng)
                except DeadlineExceeded as exc:
                    record(
                        f"{exc.scope}_deadline", progress["windows"], level,
                        str(exc),
                    )
                    return finish(
                        GenerationEnvelope(
                            trajectory=index,
                            status=STATUS_DEADLINE,
                            windows_completed=progress["windows"],
                            resamples=resamples,
                        )
                    )
                except ContextValidationError as exc:
                    # Bad context windows, met where the model builds them:
                    # the request's fault, not the model's.
                    return quarantine(exc)
                except Exception as exc:
                    # Fault-isolation boundary: no error from the generator
                    # aborts the campaign.  A raw one is normalized into the
                    # taxonomy before it is recorded.
                    if not isinstance(exc, GenDTRuntimeError):
                        exc = GenerationFaultError(
                            f"unexpected {type(exc).__name__}: {exc}",
                            trajectory=index, kind="exception",
                        )
                    record("exception", getattr(exc, "window", -1), level, str(exc))
                    if uses_model:
                        self.breaker.record_failure()
                    break  # infrastructure fault: demote, don't re-sample
                if np.isfinite(series).all():
                    if uses_model:
                        self.breaker.record_success()
                    return finish(
                        GenerationEnvelope(
                            trajectory=index,
                            status=STATUS_OK,
                            level=level,
                            series=series,
                            kpi_names=list(self.model.kpi_names),
                            windows_completed=progress["windows"],
                            resamples=resamples,
                        )
                    )
                record(
                    "non_finite_output", -1, level,
                    "generated series contains NaN/Inf",
                )
                if uses_model:
                    self.breaker.record_failure()
                if attempt < self.config.max_resamples:
                    resamples += 1
        return finish(
            GenerationEnvelope(
                trajectory=index,
                status=STATUS_FAILED,
                windows_completed=progress["windows"],
                resamples=resamples,
            )
        )

    def _attempt(
        self,
        trajectory: Trajectory,
        level: str,
        hook: WindowHook,
        rng: Optional[np.random.Generator],
    ) -> np.ndarray:
        """One generation attempt at ``level``; may raise or return NaNs."""
        if level != LEVEL_FDAS:
            return self.model.generate(
                trajectory, rng, first_stage_only=level == LEVEL_FIRST_STAGE,
                window_hook=hook,
            )
        series = self.fdas.generate(trajectory, rng)
        # The fallback gets the same chaos surface as the model rungs: its
        # whole output counts as window 0 of a single draw.
        replaced = hook(0, series[None])
        return series if replaced is None else np.asarray(replaced)[0]

    # ------------------------------------------------------------------
    # Per-window hook: chaos injection + deadline enforcement
    # ------------------------------------------------------------------
    def _window_hook(
        self,
        index: int,
        level: str,
        trajectory_deadline: Optional[float],
        campaign_deadline: Optional[float],
        started_s: float,
        progress: dict,
        record: Callable[[str, int, str, str], FaultRecord],
    ):
        def hook(window_index: int, out: np.ndarray) -> Optional[np.ndarray]:
            replacement: Optional[np.ndarray] = None
            if self.fault_plan is not None:
                fired = self.fault_plan.pop(
                    "latency", index, window_index, level
                )
                if fired is not None:
                    record(
                        "latency", window_index, level,
                        f"injected {fired.latency_s}s stall",
                    )
                    self._sleep(fired.latency_s)
                if self.fault_plan.pop(
                    "exception", index, window_index, level
                ) is not None:
                    raise GenerationFaultError(
                        "injected generation fault",
                        trajectory=index, window=window_index,
                        kind="exception",
                    )
                if self.fault_plan.pop(
                    "nan_output", index, window_index, level
                ) is not None:
                    replacement = np.full_like(np.asarray(out, dtype=float), np.nan)
            now = self._clock()
            if campaign_deadline is not None and now >= campaign_deadline:
                raise DeadlineExceeded(
                    "campaign wall-clock budget exhausted mid-trajectory",
                    scope="campaign",
                    budget_s=self.config.campaign_deadline_s or float("nan"),
                    elapsed_s=now - started_s,
                )
            if trajectory_deadline is not None and now >= trajectory_deadline:
                raise DeadlineExceeded(
                    "trajectory wall-clock budget exhausted",
                    scope="trajectory",
                    budget_s=self.config.trajectory_deadline_s or float("nan"),
                    elapsed_s=now - started_s,
                )
            progress["windows"] = window_index + 1
            return replacement

        return hook
