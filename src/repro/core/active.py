"""Uncertainty-driven measurement data selection (paper §6.2.2).

Mimics the real-world active drive-testing loop: start from one small
measurement subset, then repeatedly (a) score every remaining candidate
subset by the model-uncertainty probe, (b) add the most uncertain one to the
training pool, (c) retrain, (d) evaluate on the held-out long trajectory.
Random selection with the same starting subset is the comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..metrics.efficiency import fraction_used
from ..radio.simulator import DriveTestRecord
from .model import GenDT
from .uncertainty import subset_uncertainties

#: Index of the subset both strategies start from, so they start identically.
INITIAL_SUBSET = 0


@dataclass
class ActiveLearningStep:
    """One round of the selection loop."""

    step: int
    chosen_subset: int
    fraction_used: float
    metrics: Dict[str, float]


@dataclass
class ActiveLearningResult:
    """Full trace of a selection run."""

    strategy: str
    steps: List[ActiveLearningStep] = field(default_factory=list)

    def fractions(self) -> List[float]:
        return [s.fraction_used for s in self.steps]

    def metric_series(self, name: str) -> List[float]:
        return [s.metrics[name] for s in self.steps]


def run_active_learning(
    model_factory: Callable[[], GenDT],
    subsets: Sequence[Sequence[DriveTestRecord]],
    evaluate: Callable[[GenDT], Dict[str, float]],
    n_steps: int,
    strategy: str = "uncertainty",
    rng: Optional[np.random.Generator] = None,
    epochs_per_step: int = 4,
    mc_passes: int = 4,
) -> ActiveLearningResult:
    """Run the §6.2.2 loop with uncertainty-guided or random selection.

    Args:
        model_factory: builds a fresh (unfitted) GenDT; called once.
        subsets: the candidate measurement subsets (23 in the paper).
        evaluate: computes test metrics (e.g. DTW/HWD on the long trajectory).
        n_steps: how many subsets to add beyond the initial one.
        strategy: "uncertainty" or "random".
        rng: required for the random strategy.
        epochs_per_step: retraining epochs after each addition.
        mc_passes: MC-dropout passes for the uncertainty probe.

    Returns:
        the metric trace; ``fraction_used`` is the measurement-efficiency
        axis of paper Fig. 11: the selected subsets' measurement time over
        all subsets' (:func:`repro.metrics.fraction_used`).
    """
    if strategy not in ("uncertainty", "random"):
        raise ValueError(f"unknown strategy: {strategy}")
    if strategy == "random" and rng is None:
        raise ValueError("random strategy requires rng")
    subsets = list(subsets)
    available = [r for subset in subsets for r in subset]
    selected = [INITIAL_SUBSET]
    remaining = [i for i in range(len(subsets)) if i != INITIAL_SUBSET]

    model = model_factory()
    pool = list(subsets[INITIAL_SUBSET])
    model.fit(pool, epochs=epochs_per_step)

    result = ActiveLearningResult(strategy=strategy)
    result.steps.append(
        ActiveLearningStep(
            step=0,
            chosen_subset=INITIAL_SUBSET,
            fraction_used=fraction_used(pool, available),
            metrics=evaluate(model),
        )
    )
    for step in range(1, n_steps + 1):
        if not remaining:
            break
        if strategy == "uncertainty":
            scores = subset_uncertainties(
                model, [subsets[i] for i in remaining], n_passes=mc_passes
            )
            pick_pos = int(np.argmax(scores))
        else:
            pick_pos = int(rng.integers(len(remaining)))
        chosen = remaining.pop(pick_pos)
        selected.append(chosen)
        pool = [r for i in selected for r in subsets[i]]
        model.continue_fit(pool, epochs=epochs_per_step)
        result.steps.append(
            ActiveLearningStep(
                step=step,
                chosen_subset=chosen,
                fraction_used=fraction_used(pool, available),
                metrics=evaluate(model),
            )
        )
    return result
