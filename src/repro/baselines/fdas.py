"""Fit-Distribution-and-Sample baseline (paper §5.2).

Per KPI, fits a parametric distribution to the training data by maximum
likelihood (trying a small family and keeping the best log-likelihood), then
generates by i.i.d. sampling — ignoring both context and temporal structure.
As the paper notes, it can do well on HWD but is poor on MAE/DTW, and fails
even on HWD when the test distribution differs from training (§6.1.3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.trajectory import Trajectory
from ..radio.kpis import KPI, KpiSpec
from ..radio.simulator import DriveTestRecord
from .base import BaselineModel

logger = logging.getLogger(__name__)

#: Candidate scipy distributions tried during the MLE fit.
_CANDIDATES = ("norm", "logistic", "gumbel_l", "gumbel_r")


@dataclass
class FittedDistribution:
    """Best-by-likelihood distribution for one KPI."""

    dist_name: str
    params: Tuple[float, ...]
    log_likelihood: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy import stats  # on first use, so ``import repro`` does not load it

        dist = getattr(stats, self.dist_name)
        return dist.rvs(*self.params, size=n, random_state=rng)


def fit_best_distribution(values: np.ndarray) -> FittedDistribution:
    """MLE over the candidate family; returns the highest-likelihood fit."""
    from scipy import stats  # on first use, as in ``FittedDistribution.sample``

    values = np.asarray(values, dtype=float).ravel()
    if len(values) < 10:
        raise ValueError("too few samples to fit a distribution")
    best: Optional[FittedDistribution] = None
    for name in _CANDIDATES:
        dist = getattr(stats, name)
        try:
            params = dist.fit(values)
            ll = float(np.sum(dist.logpdf(values, *params)))
        except (ValueError, RuntimeError, FloatingPointError, OverflowError) as exc:
            # A candidate may legitimately fail to converge (scipy raises
            # FitError, a RuntimeError, or ValueError on bad MLE starts);
            # record why and move to the next family.
            logger.debug("candidate %s failed to fit: %s", name, exc)
            continue
        if np.isfinite(ll) and (best is None or ll > best.log_likelihood):
            best = FittedDistribution(name, tuple(params), ll)
    if best is None:
        raise RuntimeError("no candidate distribution could be fit")
    return best


class FDaS(BaselineModel):
    """Fit-distribution-and-sample for each KPI channel independently."""

    name = "fdas"

    def __init__(self, kpis: Sequence = ("rsrp", "rsrq"), seed: int = 0) -> None:
        self.kpi_spec = KpiSpec([KPI(k) for k in kpis])
        self.rng = np.random.default_rng(seed)
        self.fits: Dict[str, FittedDistribution] = {}

    @property
    def kpi_names(self) -> List[str]:
        return self.kpi_spec.names()

    def fit(self, records: Sequence[DriveTestRecord], **kwargs) -> None:
        stacked = np.concatenate([r.kpi_matrix(self.kpi_names) for r in records])
        for idx, name in enumerate(self.kpi_names):
            self.fits[name] = fit_best_distribution(stacked[:, idx])

    def generate(
        self, trajectory: Trajectory, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        if not self.fits:
            raise RuntimeError("fit before generate")
        n, rng = len(trajectory), self.rng if rng is None else rng
        series = np.column_stack([self.fits[name].sample(n, rng) for name in self.kpi_names])
        return self.kpi_spec.clip(series)
