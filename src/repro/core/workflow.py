"""The operator workflow of paper Figure 14: pretrain, transfer, retrain.

GenDT's design is region-agnostic — the model consumes context features,
not region identity — so a model pretrained on historical drive-test data
can be carried to a previously unseen region:

1. **Transfer** (Fig. 14 ①): rebind the pretrained model to the new
   region's cell database and environment data (weights unchanged).
2. **Bootstrap** (Fig. 14 ②): collect a coarse-grained measurement pass
   (e.g. one route per district) and fine-tune on it.
3. **Uncertainty loop** (Fig. 14 ③): repeatedly probe candidate areas with
   the MC-dropout model-uncertainty measure, measure (simulate) the most
   uncertain one, fine-tune, until U(G) stops improving or the budget is
   spent.  The outcome is the generation-phase model.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..context.extract import ContextConfig
from ..context.normalize import CellFeatureTransform
from ..context.windows import ContextBuilder
from ..geo.trajectory import Trajectory
from ..radio.simulator import DriveTestRecord
from ..runtime.errors import ContextValidationError, MeasurementError
from ..runtime.retry import retry
from ..world.region import Region
from .model import GenDT
from .uncertainty import mc_dropout_uncertainty

logger = logging.getLogger(__name__)


def _region_env_feature_count(region: Region) -> int:
    """Environment-feature width the context pipeline will emit for a region.

    Probes the region's land-use raster and PoI index directly (one cheap
    query at the region origin) rather than trusting the global constant, so
    a region built against a different attribute taxonomy is caught.
    """
    from .features import N_KINEMATIC_FEATURES

    n_land_use = int(region.land_use.fractions.shape[-1])
    n_poi = int(
        len(region.pois.counts_within(region.frame.lat0, region.frame.lon0, 1.0))
    )
    return n_land_use + n_poi + N_KINEMATIC_FEATURES


def transfer_model(model: GenDT, region: Region, copy_weights: bool = False) -> GenDT:
    """Rebind a fitted GenDT to a new region (Fig. 14 ①).

    Network weights and normalizers are kept (the model is region-agnostic);
    only the context pipeline — cell database, environment layers — is
    swapped.

    **Shared-weights footgun:** with the default ``copy_weights=False`` the
    returned model *shares* its generator (and trainer/optimizer state) with
    the source — fine-tuning the transfer mutates the pretrained original.
    That is the cheap choice when the original is disposable; pass
    ``copy_weights=True`` to deep-copy the weights so the pretrained model
    stays frozen while the transfer is fine-tuned.

    Raises:
        ContextValidationError: the new region's environment-attribute
            count does not match the fitted generator's ``n_env`` — caught
            here, at transfer time, instead of surfacing as a shape error
            halfway through the first fine-tune.
    """
    model._require_fitted()
    if model._n_env is not None:
        region_n_env = _region_env_feature_count(region)
        if region_n_env != model._n_env:
            raise ContextValidationError(
                f"region {region.cities[0].name!r} provides {region_n_env} "
                f"environment features but the fitted generator expects "
                f"n_env={model._n_env}; rebuild the region against the "
                "attribute taxonomy the model was trained with"
            )
    transferred = copy.deepcopy(model) if copy_weights else copy.copy(model)
    transferred.region = region
    transferred.context = ContextBuilder(
        region, ContextConfig(max_cells=model.config.max_cells)
    )
    transferred.cell_transform = CellFeatureTransform(region.frame)
    return transferred


@dataclass
class RetrainingStep:
    """One round of the Fig. 14 ③ loop.

    ``failures`` counts transient measurement failures absorbed by the retry
    layer during this round; ``skipped`` marks a round whose measurement
    failed even after retries (the area is blacklisted and the loop moves
    on instead of aborting the whole run).
    """

    step: int
    measured_area: int
    model_uncertainty: float
    records_used: int
    failures: int = 0
    skipped: bool = False
    skip_reason: str = ""


@dataclass
class RetrainingResult:
    """Outcome of the transfer-and-retrain workflow."""

    model: GenDT
    steps: List[RetrainingStep] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        """Transient measurement failures absorbed across the whole run."""
        return sum(s.failures for s in self.steps)

    @property
    def converged(self) -> bool:
        """Did the loop stop because uncertainty plateaued (vs budget)?

        Skipped rounds (measurement failed after retries) carry a repeated
        uncertainty value and are excluded so they cannot fake a plateau.
        """
        series = [s.model_uncertainty for s in self.steps if not s.skipped]
        if len(series) < 2:
            return False
        return series[-1] >= series[-2] * 0.98


def retrain_in_new_region(
    pretrained: GenDT,
    region: Region,
    measure: Callable[[int], Sequence[DriveTestRecord]],
    probe_trajectories: Sequence[Trajectory],
    bootstrap_area: int = 0,
    max_steps: int = 5,
    epochs_per_step: int = 3,
    mc_passes: int = 4,
    plateau_tolerance: float = 0.02,
    copy_weights: bool = False,
    measure_retries: int = 2,
    measure_backoff_s: float = 0.5,
    retry_seed: int = 0,
    sleep: Optional[Callable[[float], None]] = None,
) -> RetrainingResult:
    """Run the Fig. 14 workflow in a new region.

    Args:
        pretrained: a fitted GenDT (historical data, any region).
        region: the unseen target region.
        measure: campaign callback — given an area index, returns the
            measurement records for that area (in production a drive test;
            in this reproduction the simulator).
        probe_trajectories: one representative trajectory per candidate
            area, used for the uncertainty probe; area indices refer to
            positions in this sequence.
        bootstrap_area: area measured unconditionally first (Fig. 14 ②).
        max_steps: measurement budget beyond the bootstrap.
        epochs_per_step: fine-tuning epochs per round.
        mc_passes: MC-dropout passes for U(G).
        plateau_tolerance: stop when U(G) improves by less than this
            relative amount.
        copy_weights: deep-copy the pretrained weights before fine-tuning
            (see :func:`transfer_model`); default keeps the historical
            behavior of sharing them.
        measure_retries: retry budget per measurement call; a ``measure``
            that raises is retried with exponential backoff before the
            round is skipped (loop rounds) or the run aborts (bootstrap).
        measure_backoff_s: base backoff delay between retries.
        retry_seed: seed for the deterministic backoff jitter.
        sleep: delay function for the backoff; ``None`` (the default) skips
            real sleeping — pass ``time.sleep`` for wall-clock backoff in a
            live campaign.

    Returns:
        the fine-tuned model plus the per-step uncertainty trace, including
        per-step transient-failure counts.

    Raises:
        MeasurementError: the bootstrap measurement failed even after
            retries (there is no model to continue with).
    """
    if not probe_trajectories:
        raise ValueError("need at least one probe trajectory")
    model = transfer_model(pretrained, region, copy_weights=copy_weights)

    failures = {"count": 0}

    def _measure_with_retry(area: int) -> List[DriveTestRecord]:
        def _count(_attempt: int, _exc: BaseException, _delay: float) -> None:
            failures["count"] += 1

        try:
            return retry(
                lambda: list(measure(area)),
                retries=measure_retries,
                backoff=measure_backoff_s,
                seed=retry_seed + area,
                sleep=sleep,
                on_retry=_count,
            )
        except Exception as exc:
            # Terminal failure after the whole retry budget: surface it as
            # the structured taxonomy type so callers can catch precisely.
            raise MeasurementError(
                f"measurement of area {area} failed after "
                f"{measure_retries} retries: {exc}",
                area=area,
                attempts=measure_retries + 1,
            ) from exc

    # A bootstrap failure propagates as MeasurementError (see Raises above):
    # there is no model to continue with.
    pool: List[DriveTestRecord] = _measure_with_retry(bootstrap_area)
    if not pool:
        raise ValueError("bootstrap measurement returned no records")
    bootstrap_failures = failures["count"]
    model.continue_fit(pool, epochs=epochs_per_step)

    def area_uncertainty(idx: int) -> float:
        return mc_dropout_uncertainty(
            model, probe_trajectories[idx], n_passes=mc_passes
        ).model_uncertainty

    measured = {bootstrap_area}
    result = RetrainingResult(model=model)
    last_u = float(np.mean([area_uncertainty(i) for i in range(len(probe_trajectories))]))
    result.steps.append(
        RetrainingStep(
            step=0, measured_area=bootstrap_area,
            model_uncertainty=last_u, records_used=len(pool),
            failures=bootstrap_failures,
        )
    )
    for step in range(1, max_steps + 1):
        remaining = [i for i in range(len(probe_trajectories)) if i not in measured]
        if not remaining:
            break
        scores = {i: area_uncertainty(i) for i in remaining}
        target = max(scores, key=scores.get)
        failures_before = failures["count"]
        try:
            new_records = _measure_with_retry(target)
        except MeasurementError as exc:
            # Degrade gracefully: blacklist the area, annotate the round,
            # keep the active-learning run alive (Fig. 14 ③ continues with
            # the next-most-uncertain area on the following iteration).
            logger.warning(
                "skipping area %d after %d attempts: %s", target, exc.attempts, exc
            )
            measured.add(target)
            result.steps.append(
                RetrainingStep(
                    step=step, measured_area=target,
                    model_uncertainty=last_u, records_used=len(pool),
                    failures=failures["count"] - failures_before + 1,
                    skipped=True,
                    skip_reason=str(exc),
                )
            )
            continue
        if not new_records:
            measured.add(target)
            continue
        pool.extend(new_records)
        measured.add(target)
        model.continue_fit(pool, epochs=epochs_per_step)
        current_u = float(
            np.mean([area_uncertainty(i) for i in range(len(probe_trajectories))])
        )
        result.steps.append(
            RetrainingStep(
                step=step, measured_area=target,
                model_uncertainty=current_u, records_used=len(pool),
                failures=failures["count"] - failures_before,
            )
        )
        if last_u - current_u < plateau_tolerance * max(last_u, 1e-9):
            break
        last_u = current_u
    return result
