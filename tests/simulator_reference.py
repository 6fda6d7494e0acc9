"""Loop reference for the drive-test simulator.

``DriveTestSimulator.simulate`` as it was written with Python loops over
route points and cells: candidate cells from one nearest-first
``visible_cells`` query per strided route point, cell positions projected one
scalar at a time, one antenna-gain call and one fading draw per cell, one
load innovation draw per step and one ``argmax`` per row in the handover
loop.  The array code in ``repro.radio`` must match it bit for bit: every
record field and the generator's state after the call.  The pieces the
array code shares unchanged (pathloss, shadowing, ``link_kpis``, clutter
and the QoE truth model) are called, not copied.
"""

from typing import List, Tuple

import numpy as np

from repro.radio import channel, simulator as sim
from repro.radio.antenna import wrap_angle_deg
from repro.radio.association import HandoverConfig
from repro.radio.cells import Cell, CellDeployment
from repro.radio.kpis import DEFAULT_N_RB
from repro.radio.simulator import DriveTestRecord


def visible_cells(
    deployment: CellDeployment, lat: float, lon: float, max_distance_m: float
) -> List[Tuple[Cell, float]]:
    """Cells within ``max_distance_m`` of a point, nearest first."""
    dists = deployment.distances_m(lat, lon)
    order = np.argsort(dists)
    return [
        (deployment.cells[i], float(dists[i]))
        for i in order
        if dists[i] <= max_distance_m
    ]


def reference_candidate_cells(simulator, trajectory) -> List[Cell]:
    stride = max(1, len(trajectory) // 200)
    ids: set = set()
    for k in range(0, len(trajectory), stride):
        for cell, _ in visible_cells(
            simulator.region.deployment, trajectory.lat[k], trajectory.lon[k],
            simulator.candidate_range_m,
        ):
            ids.add(cell.cell_id)
    return [simulator.region.deployment[cid] for cid in sorted(ids)]


def _cell_xy(frame, cells):
    cx = np.array([frame.to_xy(c.lat, c.lon)[0] for c in cells], dtype=float)
    cy = np.array([frame.to_xy(c.lat, c.lon)[1] for c in cells], dtype=float)
    return cx, cy


def _bearings_from_cells(frame, cells, lat, lon) -> np.ndarray:
    ux, uy = frame.to_xy(lat, lon)
    cx, cy = _cell_xy(frame, cells)
    dx = ux[:, None] - cx[None, :]
    dy = uy[:, None] - cy[None, :]
    return np.degrees(np.arctan2(dx, dy)) % 360.0


def _distances(frame, cells, lat, lon) -> np.ndarray:
    ux, uy = frame.to_xy(lat, lon)
    cx, cy = _cell_xy(frame, cells)
    return np.hypot(ux[:, None] - cx[None, :], uy[:, None] - cy[None, :])


def _fading_sample(fading, n, rng, speed_mps=None) -> np.ndarray:
    sigma = np.full(n, fading.sigma_db)
    if speed_mps is not None:
        speeds = np.asarray(speed_mps, dtype=float)
        sigma = sigma + fading.speed_scale * np.clip(speeds, 0.0, 50.0)
    return rng.normal(0.0, 1.0, size=n) * sigma


def reference_per_cell_rsrp(frame, trajectory, cells, clutter, rng) -> np.ndarray:
    steps = len(trajectory)
    n = len(cells)
    distances = _distances(frame, cells, trajectory.lat, trajectory.lon)
    bearings = _bearings_from_cells(frame, cells, trajectory.lat, trajectory.lon)
    clutter = np.asarray(clutter, dtype=float)

    pathloss = channel.PATHLOSS.pathloss_db(distances, clutter[:, None])
    step_dist = trajectory.step_distances_m()
    speeds = trajectory.speeds_mps()
    per_re_offset = 10.0 * np.log10(12.0 * DEFAULT_N_RB)

    shadow = channel.SHADOWING.sample_along_multi(step_dist, n, rng, clutter=clutter)
    p_max = np.array([c.p_max_dbm for c in cells])
    directions = np.array([c.direction_deg for c in cells])
    gain = np.empty((steps, n))
    for j, cell in enumerate(cells):
        gain[:, j] = cell.antenna.gain_dbi(
            wrap_angle_deg(bearings[:, j] - directions[j])
        )
    fading = np.column_stack(
        [_fading_sample(channel.FADING, steps, rng, speed_mps=speeds) for _ in range(n)]
    )
    return (
        p_max[None, :]
        - per_re_offset
        + gain
        + channel.UE_ANTENNA_GAIN_DBI
        - pathloss
        + shadow
        + fading
    )


def reference_cell_loads(n_cells, steps, rng) -> np.ndarray:
    loads = np.empty((steps, n_cells))
    state = rng.normal(0.0, 1.0, size=n_cells)
    for t in range(steps):
        state = channel.LOAD_AR_COEFF * state + np.sqrt(1 - channel.LOAD_AR_COEFF**2) * rng.normal(
            0.0, 1.0, size=n_cells
        )
        loads[t] = np.clip(channel.LOAD_MEAN + channel.LOAD_SIGMA * state, 0.05, 0.95)
    return loads


def reference_select_serving_cells(
    rsrp_matrix_dbm: np.ndarray, config: HandoverConfig = HandoverConfig()
) -> np.ndarray:
    rsrp = np.asarray(rsrp_matrix_dbm, dtype=float)
    steps, _ = rsrp.shape
    serving = np.empty(steps, dtype=int)
    current = int(np.argmax(rsrp[0]))
    trigger_count = 0
    trigger_target = -1
    for t in range(steps):
        best = int(np.argmax(rsrp[t]))
        if not np.isfinite(rsrp[t, current]):
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


def reference_simulate(simulator, trajectory, rng, with_qoe: bool = False) -> DriveTestRecord:
    """Same arguments and result as ``DriveTestSimulator.simulate``."""
    cells = reference_candidate_cells(simulator, trajectory)
    clutter = simulator.region.clutter_along(trajectory.lat, trajectory.lon)
    rsrp_matrix = reference_per_cell_rsrp(
        simulator.region.deployment.frame, trajectory, cells, clutter, rng
    )

    serving_idx = reference_select_serving_cells(rsrp_matrix, sim.HANDOVER)
    loads = reference_cell_loads(len(cells), len(trajectory), rng)
    kpis = channel.link_kpis(rsrp_matrix, serving_idx, loads)

    cell_ids = np.array([c.cell_id for c in cells])
    t_idx = np.arange(len(trajectory))
    record = DriveTestRecord(
        trajectory=trajectory,
        kpi=kpis,
        serving_cell_id=cell_ids[serving_idx],
        candidate_cell_ids=[c.cell_id for c in cells],
        serving_load=loads[t_idx, serving_idx],
    )
    if with_qoe:
        record.qoe = sim.QOE_TRUTH.generate(
            kpis["sinr"], kpis["cqi"], record.serving_load, rng
        )
    return record
