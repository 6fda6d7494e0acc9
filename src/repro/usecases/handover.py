"""Handover analysis use case (paper §6.3.2).

GenDT is retrained with the serving-cell id as an additional generated KPI
channel; tracking serving-cell changes in the generated series yields the
inter-handover time distribution, compared to the real one with HWD and as
a CDF (paper Table 10 / Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.fidelity import hwd
from ..radio.association import inter_handover_times
from ..radio.simulator import DriveTestRecord

#: Shortest serving-cell dwell, in samples, that counts as a real handover.
MIN_DWELL_SAMPLES = 3


def snap_serving_series(
    serving_series: np.ndarray, candidate_ids: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Post-process a generated serving-cell channel into a clean id series.

    The generative model emits the serving-cell channel as a continuous
    value; decoding it requires (a) snapping each sample to the nearest
    *valid* cell id (when the candidate set is known) and (b) removing
    dwells shorter than :data:`MIN_DWELL_SAMPLES` — generation noise of a
    fraction of the channel's scale would otherwise read as a storm of
    spurious handovers.  Short runs are merged into the preceding dwell.
    """
    values = np.asarray(serving_series, dtype=float)
    if candidate_ids is not None and len(candidate_ids):
        candidates = np.sort(np.asarray(list(candidate_ids), dtype=float))
        pos = np.clip(np.searchsorted(candidates, values), 0, len(candidates) - 1)
        pos_lo = np.maximum(pos - 1, 0)
        take_lo = np.abs(candidates[pos_lo] - values) <= np.abs(candidates[pos] - values)
        ids = np.where(take_lo, candidates[pos_lo], candidates[pos])
    else:
        ids = np.round(values)
    ids = ids.astype(int).copy()
    # Merge short dwells into the preceding run.
    run_start = 0
    for t in range(1, len(ids) + 1):
        if t == len(ids) or ids[t] != ids[run_start]:
            run_len = t - run_start
            if run_start > 0 and run_len < MIN_DWELL_SAMPLES:
                ids[run_start:t] = ids[run_start - 1]
            else:
                run_start = t
            if t < len(ids) and ids[t] != ids[run_start]:
                run_start = t
    return ids


def handover_intervals_from_series(
    serving_series: np.ndarray,
    timestamps_s: np.ndarray,
    candidate_ids: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Inter-handover intervals from a (generated) serving-cell channel."""
    ids = snap_serving_series(serving_series, candidate_ids=candidate_ids)
    return inter_handover_times(ids, timestamps_s)


def real_handover_intervals(records: Sequence[DriveTestRecord]) -> np.ndarray:
    """Pooled real inter-handover intervals over records."""
    pooled = [
        inter_handover_times(r.serving_cell_id, r.trajectory.t) for r in records
    ]
    pooled = [p for p in pooled if len(p)]
    if not pooled:
        return np.zeros(0)
    return np.concatenate(pooled)


@dataclass
class HandoverComparison:
    """Real-vs-generated inter-handover time distributions."""

    real_intervals: np.ndarray
    generated_intervals: np.ndarray

    @property
    def hwd(self) -> float:
        """HWD between the two interval distributions (paper Table 10)."""
        if len(self.real_intervals) == 0 or len(self.generated_intervals) == 0:
            return float("inf")
        return hwd(self.real_intervals, self.generated_intervals)

    def cdf(self, which: str = "real", grid: np.ndarray = None) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF points (paper Figure 13)."""
        data = self.real_intervals if which == "real" else self.generated_intervals
        if grid is None:
            sorted_data = np.sort(data)
            return sorted_data, np.arange(1, len(sorted_data) + 1) / len(sorted_data)
        sorted_data = np.sort(data)
        return grid, np.searchsorted(sorted_data, grid, side="right") / max(len(sorted_data), 1)


def compare_handover_distributions(
    records: Sequence[DriveTestRecord],
    generated_serving: Sequence[np.ndarray],
) -> HandoverComparison:
    """Build the §6.3.2 comparison from real records + generated channels.

    Each generated channel is snapped to its record's candidate cell ids
    before counting handovers.
    """
    if len(records) != len(generated_serving):
        raise ValueError("records and generated series must align")
    gen_pooled: List[np.ndarray] = []
    for record, series in zip(records, generated_serving):
        intervals = handover_intervals_from_series(
            series,
            record.trajectory.t,
            candidate_ids=record.candidate_cell_ids,
        )
        if len(intervals):
            gen_pooled.append(intervals)
    generated = np.concatenate(gen_pooled) if gen_pooled else np.zeros(0)
    return HandoverComparison(
        real_intervals=real_handover_intervals(records),
        generated_intervals=generated,
    )
