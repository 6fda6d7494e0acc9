"""Drive-test simulator: trajectory -> measured KPI time series.

This is the reproduction's substitute for the paper's field measurements
(Nemo Handy for Dataset A, the CNI Android tracker for Dataset B).  Given a
trajectory through a :class:`~repro.world.region.Region`, the simulator:

1. finds candidate cells along the route,
2. computes the per-cell RSRP matrix (pathloss + antenna + correlated
   shadowing + fading, all clutter-modulated),
3. runs A3 handover logic to obtain the serving-cell series,
4. derives RSSI/RSRQ/SINR/CQI for the serving cell under stochastic
   per-cell load,
5. optionally attaches throughput/PER ground truth (the iPerf3 substitute).

Each call with a fresh ``rng`` re-rolls shadowing/fading/load, so repeated
runs over the same trajectory differ the way paper Fig. 1 shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from ..geo.trajectory import Trajectory
from .association import HandoverConfig, select_serving_cells

if TYPE_CHECKING:  # avoid a circular import: world.region uses radio.cells
    from ..world.region import Region
from .cells import Cell
from .channel import link_kpis, per_cell_rsrp, sample_cell_loads
from .qoe_truth import QoETruthModel

#: The A3 handover parameters and the QoE ground truth of every simulated
#: drive, each at its defaults.
HANDOVER = HandoverConfig()
QOE_TRUTH = QoETruthModel()


@dataclass(eq=False)
class DriveTestRecord:
    """One simulated drive test: trajectory + measured KPI series.

    ``kpi`` maps KPI name to a [T] array; ``serving_cell_id`` holds global
    cell ids; ``candidate_cell_ids`` records which cells were in range (the
    ground-truth visible set — context extraction recomputes its own from
    the cell database, as an operator would).
    """

    trajectory: Trajectory
    kpi: Dict[str, np.ndarray]
    serving_cell_id: np.ndarray
    candidate_cell_ids: List[int]
    qoe: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Ground-truth load of the serving cell at each step, which the QoE
    #: truth model reads inside ``simulate``.  Hidden from the generative
    #: models: it is exactly the "noise" context GenDT does not see.
    serving_load: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.trajectory)

    @property
    def scenario(self) -> str:
        return self.trajectory.scenario

    def kpi_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack selected KPI series into [T, len(names)]."""
        columns = []
        for name in names:
            if name == "serving_cell":
                columns.append(self.serving_cell_id.astype(float))
            else:
                columns.append(self.kpi[name])
        return np.column_stack(columns)


class DriveTestSimulator:
    """Simulates drive-test measurement campaigns over a region."""

    def __init__(self, region: Region, candidate_range_m: float = 4000.0) -> None:
        self.region = region
        self.candidate_range_m = candidate_range_m

    # ------------------------------------------------------------------
    def candidate_cells(self, trajectory: Trajectory) -> List[Cell]:
        """Cells ever within range of any trajectory point, in id order.

        Sampled at a stride of ``max(1, len // 200)`` points for long
        trajectories — a cell missed between strides would be
        > range - stride*v_max away, far below relevance.  One [K, N]
        distance matrix from the K strided points to all N cells decides.
        """
        deployment = self.region.deployment
        stride = max(1, len(trajectory) // 200)
        x, y = deployment.frame.to_xy(trajectory.lat[::stride], trajectory.lon[::stride])
        cells_xy = deployment.positions_xy()
        distances = np.hypot(cells_xy[:, 0] - x[:, None], cells_xy[:, 1] - y[:, None])
        in_range = np.any(distances <= self.candidate_range_m, axis=0)
        hits = [cell for cell, hit in zip(deployment.cells, in_range) if hit]
        return sorted(hits, key=lambda cell: cell.cell_id)

    # ------------------------------------------------------------------
    def simulate(
        self,
        trajectory: Trajectory,
        rng: np.random.Generator,
        with_qoe: bool = False,
    ) -> DriveTestRecord:
        """Run one measurement drive over ``trajectory``."""
        if len(trajectory) < 3:
            raise ValueError("trajectory too short to simulate")
        cells = self.candidate_cells(trajectory)
        if not cells:
            raise RuntimeError("no cells in range of the trajectory")
        clutter = self.region.clutter_along(trajectory.lat, trajectory.lon)
        rsrp_matrix = per_cell_rsrp(
            self.region.deployment.frame, trajectory, cells, clutter, rng
        )

        serving_idx = select_serving_cells(rsrp_matrix, HANDOVER)
        loads = sample_cell_loads(len(cells), len(trajectory), rng)
        kpis = link_kpis(rsrp_matrix, serving_idx, loads)

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
            record.qoe = QOE_TRUTH.generate(
                kpis["sinr"], kpis["cqi"], record.serving_load, rng
            )
        return record

    def simulate_repeats(
        self, trajectory: Trajectory, rng: np.random.Generator, repeats: int
    ) -> List[DriveTestRecord]:
        """Repeat the same drive; used for the Fig. 1/2 stochasticity analysis."""
        return [self.simulate(trajectory, rng) for _ in range(repeats)]
