"""Serving-cell selection and handover dynamics.

Implements A3-style mobility management: the UE hands over when a neighbour
cell's RSRP exceeds the serving cell's by a hysteresis margin for a
time-to-trigger number of consecutive samples.  This produces the
serving-cell churn the paper observes (Fig. 2) — the dominant source of
location-conditional KPI stochasticity — and the inter-handover time
distribution analysed in the handover use case (§6.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HandoverConfig:
    """A3-event parameters."""

    hysteresis_db: float = 4.0
    time_to_trigger_samples: int = 3


def select_serving_cells(
    rsrp_matrix_dbm: np.ndarray, config: HandoverConfig = HandoverConfig()
) -> np.ndarray:
    """Trace the serving-cell column index over time, from the strongest at t=0.

    Args:
        rsrp_matrix_dbm: per-cell RSRP over time, shape [T, N] (columns are
            candidate cells; -inf marks a cell out of range at that instant).
        config: hysteresis / time-to-trigger parameters.

    Returns:
        integer array of column indices, shape [T].
    """
    rsrp = np.asarray(rsrp_matrix_dbm, dtype=float)
    if rsrp.ndim != 2:
        raise ValueError("rsrp matrix must be [T, N]")
    steps, n_cells = rsrp.shape
    if n_cells == 0:
        raise ValueError("no candidate cells")
    serving = np.empty(steps, dtype=int)
    current = int(np.argmax(rsrp[0]))
    trigger_count = 0
    trigger_target = -1
    strongest = np.argmax(rsrp, axis=1)
    for t in range(steps):
        best = int(strongest[t])
        if not np.isfinite(rsrp[t, current]):
            # Radio-link failure: serving cell left the visible set.
            current = best
            trigger_count = 0
        elif best != current and rsrp[t, best] >= rsrp[t, current] + config.hysteresis_db:
            if best == trigger_target:
                trigger_count += 1
            else:
                trigger_target = best
                trigger_count = 1
            if trigger_count >= config.time_to_trigger_samples:
                current = best
                trigger_count = 0
                trigger_target = -1
        else:
            trigger_count = 0
            trigger_target = -1
        serving[t] = current
    return serving


def handover_times(serving_cell_ids: np.ndarray, timestamps_s: np.ndarray) -> np.ndarray:
    """Timestamps at which the serving cell changes."""
    ids = np.asarray(serving_cell_ids)
    t = np.asarray(timestamps_s, dtype=float)
    if len(ids) != len(t):
        raise ValueError("ids and timestamps must align")
    changes = np.nonzero(np.diff(ids) != 0)[0] + 1  # repro: noqa[FLT001] (integral cell IDs)
    return t[changes]


def inter_handover_times(serving_cell_ids: np.ndarray, timestamps_s: np.ndarray) -> np.ndarray:
    """Durations between consecutive handovers (the §6.3.2 target metric)."""
    times = handover_times(serving_cell_ids, timestamps_s)
    if len(times) < 2:
        return np.zeros(0)
    return np.diff(times)


def cell_dwell_times(serving_cell_ids: np.ndarray, timestamps_s: np.ndarray) -> np.ndarray:
    """Time spent in each serving-cell visit (first/last visits included).

    This is the paper Table 1/2 statistic "Avg. Duration at each Serving
    Cell": the mean length of the maximal constant runs of the serving-cell
    series.
    """
    ids = np.asarray(serving_cell_ids)
    t = np.asarray(timestamps_s, dtype=float)
    if len(ids) == 0:
        return np.zeros(0)
    boundaries = np.concatenate([[0], np.nonzero(np.diff(ids) != 0)[0] + 1, [len(ids)]])  # repro: noqa[FLT001] (integral cell IDs)
    dwell = []
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        end_t = t[stop] if stop < len(t) else t[-1] + (t[-1] - t[-2] if len(t) >= 2 else 0.0)
        dwell.append(end_t - t[start])
    return np.asarray(dwell)
