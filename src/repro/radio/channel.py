"""Link budget: from geometry + propagation to per-cell RSRP and link KPIs.

:func:`per_cell_rsrp` computes, for a trajectory and a set of candidate
cells, the full [T, N] matrix of per-cell RSRP (pathloss + antenna gain +
correlated shadowing + fast fading); :func:`link_kpis` derives the
serving-cell KPI series from it: RSSI (sum of all received wideband powers
plus noise, weighted by cell load), RSRQ, SINR and CQI.  Every simulated
drive uses the propagation models and load process below.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geo.coords import LocalFrame
from ..geo.trajectory import Trajectory
from .antenna import SectorAntenna
from .cells import Cell
from .kpis import (
    BANDWIDTH_HZ,
    DEFAULT_N_RB,
    NOISE_FIGURE_DB,
    cqi_from_sinr,
    db_to_linear,
    linear_to_db,
    rsrq_db,
    rssi_from_rsrp,
    thermal_noise_dbm,
)
from .propagation import FastFadingModel, PathlossModel, ShadowingModel

#: The propagation models of every simulated drive, each at its defaults.
PATHLOSS = PathlossModel()
SHADOWING = ShadowingModel()
FADING = FastFadingModel()
#: Gain of the UE's antenna, dBi.
UE_ANTENNA_GAIN_DBI = 0.0
#: AR(1) coefficient, mean and standard deviation of the slowly-varying
#: per-cell load process.
LOAD_AR_COEFF = 0.97
LOAD_MEAN = 0.45
LOAD_SIGMA = 0.18


def _geometry(
    frame: LocalFrame, cells: Sequence[Cell], lat: np.ndarray, lon: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distance (m) and bearing (deg from north) from every cell to every UE position, each [T, N]."""
    ux, uy = frame.to_xy(lat, lon)
    cx, cy = frame.to_xy([c.lat for c in cells], [c.lon for c in cells])
    dx = ux[:, None] - cx[None, :]
    dy = uy[:, None] - cy[None, :]
    bearings = np.degrees(np.arctan2(dx, dy))
    # ``bearings % 360.0`` bit for bit on [-180, 180] (-0.0 included) at a
    # tenth of the cost: numpy's float remainder is a slow floor division.
    bearings += 360.0 * (bearings < 0.0)
    return np.hypot(dx, dy), bearings


def per_cell_rsrp(
    frame: LocalFrame,
    trajectory: Trajectory,
    cells: Sequence[Cell],
    clutter: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-cell RSRP over the trajectory, shape [T, N] in dBm.

    ``frame`` is the cell deployment's local frame.  ``clutter`` is the
    per-timestep clutter factor in [0, 1] from the environment raster at the
    UE location.  Whole-array over steps and cells: the antenna gain runs
    once per distinct antenna on its cells' columns, and shadowing, then
    fading, draw from ``rng`` once for all cells (see their models for the
    draw order).
    """
    steps = len(trajectory)
    n = len(cells)
    distances, bearings = _geometry(frame, cells, trajectory.lat, trajectory.lon)
    clutter = np.asarray(clutter, dtype=float)
    if clutter.shape != (steps,):
        raise ValueError(f"clutter must be [T]={steps}, got {clutter.shape}")

    pathloss = PATHLOSS.pathloss_db(distances, clutter[:, None])
    step_dist = trajectory.step_distances_m()
    speeds = trajectory.speeds_mps()
    per_re_offset = 10.0 * np.log10(12.0 * DEFAULT_N_RB)

    shadow = SHADOWING.sample_along_multi(step_dist, n, rng, clutter=clutter)
    p_max = np.array([c.p_max_dbm for c in cells])
    directions = np.array([c.direction_deg for c in cells])
    offsets = bearings - directions[None, :]  # ``gain_dbi`` wraps them
    columns_of: Dict[SectorAntenna, List[int]] = {}
    for j, cell in enumerate(cells):
        columns_of.setdefault(cell.antenna, []).append(j)
    gain = np.empty((steps, n))
    for antenna, columns in columns_of.items():
        gain[:, columns] = antenna.gain_dbi(offsets[:, columns])
    fading = FADING.sample(steps, n, rng, speed_mps=speeds)
    return (
        p_max[None, :]
        - per_re_offset
        + gain
        + UE_ANTENNA_GAIN_DBI
        - pathloss
        + shadow
        + fading
    )


def sample_cell_loads(n_cells: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Slowly-varying per-cell load in [0.05, 0.95], shape [T, N].

    Cell load is the paper's canonical example of context the model does
    NOT see — it is the "noise" the generator must absorb.  Each cell's
    load follows an AR(1) process: an [N] initial draw, then one [T, N]
    draw of innovations (the stream of T draws of [N], one per step).
    Only the recurrence loops over time.
    """
    state = rng.normal(0.0, 1.0, size=n_cells)
    innovations = rng.normal(0.0, 1.0, size=(steps, n_cells))
    innovations *= np.sqrt(1 - LOAD_AR_COEFF**2)
    states = np.empty((steps, n_cells))
    for t in range(steps):
        np.multiply(state, LOAD_AR_COEFF, out=states[t])
        states[t] += innovations[t]
        state = states[t]
    return np.clip(LOAD_MEAN + LOAD_SIGMA * states, 0.05, 0.95)


def link_kpis(
    rsrp_matrix_dbm: np.ndarray,
    serving_idx: np.ndarray,
    loads: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Derive serving RSRP/RSSI/RSRQ/SINR/CQI series from the RSRP matrix.

    Interference is the load-weighted sum of non-serving wideband powers;
    RSSI additionally includes the serving cell's own wideband power and
    thermal noise.
    """
    rsrp = np.asarray(rsrp_matrix_dbm, dtype=float)
    steps, n = rsrp.shape
    serving_idx = np.asarray(serving_idx, dtype=int)
    t_idx = np.arange(steps)

    wideband_mw = db_to_linear(rssi_from_rsrp(rsrp, DEFAULT_N_RB))
    noise_mw = db_to_linear(thermal_noise_dbm(BANDWIDTH_HZ, NOISE_FIGURE_DB))

    serving_rsrp = rsrp[t_idx, serving_idx]
    serving_wb_mw = wideband_mw[t_idx, serving_idx]

    mask = np.ones((steps, n), dtype=bool)
    mask[t_idx, serving_idx] = False
    interference_mw = np.sum(wideband_mw * loads * mask, axis=1)

    rssi_mw = serving_wb_mw + interference_mw + noise_mw
    rssi_dbm = linear_to_db(rssi_mw)
    rsrq = rsrq_db(serving_rsrp, rssi_dbm, DEFAULT_N_RB)
    sinr_db = linear_to_db(serving_wb_mw / (interference_mw + noise_mw))
    cqi = cqi_from_sinr(np.clip(sinr_db, -20.0, 40.0))

    return {
        "rsrp": serving_rsrp,
        "rssi": rssi_dbm,
        "rsrq": np.clip(rsrq, -19.5, -3.0),
        "sinr": np.clip(sinr_db, -10.0, 30.0),
        "cqi": np.asarray(cqi, dtype=float),
    }
