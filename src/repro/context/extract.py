"""Context extraction: network (cells) and environment (land use + PoIs).

Implements paper §2.3.3/§2.3.4 and §4.2: for every timestamp of a trajectory
we extract

* the **network context** — every cell within ``d_s`` (:data:`D_S_M`) of
  the device is a potential serving cell; each contributes the 5 attributes
  ``[lat, lon, p_max, direction, distance_t]`` (distance is the only one
  that varies with time, implicitly encoding device movement);
* the **environment context** — the 26 attributes of Table 11 (12 land-use
  area fractions + 14 PoI counts) within ``ENV_RADIUS_M`` (500 m) of the
  device.

Environment context is a pure function of the device's 50 m location cell:
it is evaluated at the cell's centre, so every sample in a cell gets the
same 26 values whatever route, direction or earlier call brought it there.
A trajectory's new cells are computed together in one vectorised pass and
cached by cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.trajectory import Trajectory
from ..radio.cells import CellDeployment
from ..world.attributes import N_ENV_ATTRIBUTES
from ..world.region import Region

#: Number of raw per-cell context attributes (paper: N_c = 5).
N_CELL_ATTRIBUTES = 5
#: d_s, the distance within which a cell counts as visible (m).  The paper's
#: empirical guidance (§4.2) is ~2 km within cities and ~4 km on highways; a
#: conservative single value works at the cost of compute.
D_S_M = 2500.0


class NetworkContextExtractor:
    """Extracts per-timestep visible-cell context for a trajectory.

    Precomputes the [T, N] distance matrix once per trajectory, then serves
    window queries: which cells are relevant in a window, and their [L, 5]
    raw attribute series.  The cells are the region's current deployment,
    read through the region on every query, so swapping
    ``region.deployment`` (a what-if study) is seen here and by everything
    else that reads the region.
    """

    def __init__(self, region: Region) -> None:
        self.region = region

    @property
    def deployment(self) -> CellDeployment:
        return self.region.deployment

    def distances(self, trajectory: Trajectory) -> np.ndarray:
        """Distance from each trajectory point to each cell, [T, N]."""
        frame = self.deployment.frame
        ux, uy = frame.to_xy(trajectory.lat, trajectory.lon)
        cells_xy = self.deployment.positions_xy()
        return np.hypot(
            ux[:, None] - cells_xy[None, :, 0], uy[:, None] - cells_xy[None, :, 1]
        )

    def window_cells(
        self,
        distances: np.ndarray,
        start: int,
        stop: int,
        max_cells: Optional[int] = None,
    ) -> List[int]:
        """Cells visible anywhere in [start, stop), nearest-first.

        Returns deployment column indices.  ``max_cells`` caps the set at the
        nearest ones by mean over the window (keeps the GNN fan-in bounded).
        """
        block = distances[start:stop]
        # The mean over all cells, then the visible ones': each column's sum
        # runs over the rows in order either way, so the order among two or
        # more visible cells is the per-column mean's (one cell has no order).
        mean_d = np.add.reduce(block, axis=0) / len(block)
        visible = np.flatnonzero(np.logical_or.reduce(block <= D_S_M, axis=0))
        if len(visible) == 0:
            # Degenerate coverage hole: fall back to the single nearest cell.
            visible = np.array([np.argmin(mean_d)])
        chosen = visible[np.argsort(mean_d[visible])]
        if max_cells is not None:
            chosen = chosen[:max_cells]
        return chosen.tolist()

    def window_features(
        self,
        distances: np.ndarray,
        cell_indices: Sequence[int],
        start: int,
        stop: int,
    ) -> np.ndarray:
        """Raw per-cell attribute series for a window: [L, n_cells, 5].

        Attribute order matches the paper: lat, lon, p_max, direction,
        distance(t).
        """
        cells = np.asarray(cell_indices, dtype=int)
        out = np.empty((stop - start, len(cells), N_CELL_ATTRIBUTES))
        out[:, :, :-1] = self.deployment.attributes[cells]
        out[:, :, -1] = distances[start:stop, cells]
        return out


#: Side of the square location cells environment context is evaluated on (m).
ENV_CELL_M = 50.0
#: Radius around a location cell's centre that environment context covers (m).
ENV_RADIUS_M = 500.0


class EnvironmentContextExtractor:
    """Extracts the 26-attribute environment context along a trajectory.

    Context is evaluated at the centre of each :data:`ENV_CELL_M` location
    cell and cached by cell, so it depends on the location only.
    """

    def __init__(self, region: Region) -> None:
        self.region = region
        self._cache: Dict[Tuple[int, int], np.ndarray] = {}

    def features_at(self, lat: float, lon: float) -> np.ndarray:
        """26-vector at a single location (land-use fractions then PoI counts)."""
        return self._features(np.array([lat]), np.array([lon]))[0]

    def features(self, trajectory: Trajectory) -> np.ndarray:
        """Environment context for every timestep, [T, 26]."""
        return self._features(trajectory.lat, trajectory.lon)

    def _features(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        frame = self.region.frame
        x, y = frame.to_xy(lat, lon)
        ix, iy = ((v // ENV_CELL_M).astype(int).tolist() for v in (x, y))
        keys = list(zip(ix, iy))
        missed = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if missed:
            centres = (np.array(missed, dtype=float) + 0.5) * ENV_CELL_M
            c_lat, c_lon = frame.to_latlon(centres[:, 0], centres[:, 1])
            land = self.region.land_use.fractions_within(c_lat, c_lon, ENV_RADIUS_M)
            pois = self.region.pois.counts_within(c_lat, c_lon, ENV_RADIUS_M)
            self._cache.update(zip(missed, np.concatenate([land, pois], axis=1)))
        if not keys:
            return np.empty((0, N_ENV_ATTRIBUTES))
        return np.stack([self._cache[key] for key in keys])

