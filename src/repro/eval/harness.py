"""Experiment harness: run methods over test sets, collect fidelity tables.

One loop serves every fidelity table in the paper (Tables 3-8): for each
method, generate the KPI series for every test record, compute MAE/DTW/HWD
per KPI channel, and aggregate per scenario and overall.  Draw ``d`` of
record ``i`` comes from ``np.random.default_rng([i, d])`` for every method
alike, so a table does not depend on what the methods generated before.

Evaluation sweeps share the serving layer's survival requirement: one
record whose generation faults must not abort a multi-hour comparison.
``on_error="skip"`` quarantines the failing (record, method) pair into
``FidelityResult.failures`` and keeps sweeping.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from ..geo.trajectory import Trajectory
from ..metrics.fidelity import evaluate_series
from ..radio.simulator import DriveTestRecord

logger = logging.getLogger(__name__)

#: A generation method, ``(trajectory, rng) -> [T, n_kpis]``: every draw
#: comes from ``rng`` (e.g. a bound ``GenDT.generate`` or baseline ``generate``).
GenerateFn = Callable[[Trajectory, np.random.Generator], np.ndarray]

METRIC_NAMES = ("mae", "dtw", "hwd")


@dataclass
class FidelityResult:
    """Nested metric store: scenario -> kpi -> metric -> value.

    ``failures`` lists generation attempts skipped under
    ``on_error="skip"``: one dict per failed attempt with the record index,
    scenario, and the error string.
    """

    method: str
    per_scenario: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def scenarios(self) -> List[str]:
        return list(self.per_scenario.keys())

    def get(self, scenario: str, kpi: str, metric: str) -> float:
        return self.per_scenario[scenario][kpi][metric]

    def average(self, kpi: str, metric: str) -> float:
        """Mean of a metric for one KPI across all scenarios."""
        values = [
            self.per_scenario[s][kpi][metric]
            for s in self.per_scenario
            if kpi in self.per_scenario[s]
        ]
        if not values:
            raise KeyError(f"no data for kpi={kpi}")
        return float(np.mean(values))


def evaluate_method(
    method_name: str,
    generate: GenerateFn,
    test_records: Sequence[DriveTestRecord],
    kpi_names: Sequence[str],
    n_generations: int = 1,
    on_error: str = "raise",
) -> FidelityResult:
    """Fidelity of one method over a test set.

    With ``n_generations > 1`` the metrics are averaged over several
    independent generations (reduces evaluation variance for stochastic
    generators).  Generation ``draw`` of record ``record_index`` is given
    ``np.random.default_rng([record_index, draw])``.

    ``on_error`` controls survival of individual generation failures:
    ``"raise"`` (default, historical behavior) propagates them;
    ``"skip"`` records the failure in ``FidelityResult.failures`` and
    continues with the remaining records — a shape mismatch, a runtime-
    taxonomy error, or a raw generator crash each cost one sample, not the
    sweep.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    result = FidelityResult(method=method_name)
    acc: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for record_index, record in enumerate(test_records):
        real = record.kpi_matrix(list(kpi_names))
        for draw in range(n_generations):
            rng = np.random.default_rng([record_index, draw])  # repro: noqa[SEED001] (see docstring)
            try:
                generated = generate(record.trajectory, rng)
                if generated.shape != real.shape:
                    raise ValueError(
                        f"{method_name} produced shape {generated.shape}, "
                        f"expected {real.shape}"
                    )
            except Exception as exc:
                if on_error == "raise":
                    raise
                failure = {
                    "record": record_index,
                    "scenario": record.scenario or "all",
                    "error": f"{type(exc).__name__}: {exc}",
                }
                result.failures.append(failure)
                logger.warning(
                    "%s: skipping record %d (%s): %s",
                    method_name, record_index, failure["scenario"], exc,
                )
                continue
            scenario = record.scenario or "all"
            for idx, kpi in enumerate(kpi_names):
                metrics = evaluate_series(real[:, idx], generated[:, idx])
                bucket = acc.setdefault(scenario, {}).setdefault(
                    kpi, {m: [] for m in METRIC_NAMES}
                )
                for m in METRIC_NAMES:
                    bucket[m].append(metrics[m])
    for scenario, kpis in acc.items():
        result.per_scenario[scenario] = {
            kpi: {m: float(np.mean(vals)) for m, vals in metrics.items()}
            for kpi, metrics in kpis.items()
        }
    return result


def compare_methods(
    methods: Mapping[str, GenerateFn],
    test_records: Sequence[DriveTestRecord],
    kpi_names: Sequence[str],
    n_generations: int = 1,
    on_error: str = "raise",
) -> Dict[str, FidelityResult]:
    """Run every method over the same test set.

    ``on_error="skip"`` makes the sweep survive individual generation
    failures (see :func:`evaluate_method`).
    """
    return {
        name: evaluate_method(
            name, gen, test_records, kpi_names, n_generations, on_error=on_error
        )
        for name, gen in methods.items()
    }


def ranking(
    results: Mapping[str, FidelityResult], kpi: str, metric: str
) -> List[str]:
    """Methods ordered best-first by the scenario-averaged metric (lower wins)."""
    return sorted(results, key=lambda name: results[name].average(kpi, metric))
