"""Cells and cell deployments (the operator-side network context).

A :class:`Cell` is one sector of a site with the exact attribute schema the
paper's network context uses: location, max transmit power, and direction
(plus distance-to-UE computed at context-extraction time).  Deployments are
generated per region with scenario-calibrated densities (paper Fig. 4:
city-centre cases ~15-30 cells/km², highway cases ~3-8 cells/km²).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geo.coords import LocalFrame
from ..geo.routes import CitySpec
from .antenna import SectorAntenna

#: The city macro-cell pattern, shared by every cell that uses it: the link
#: budget groups cells by antenna, and a shared object groups by identity.
DEFAULT_ANTENNA = SectorAntenna()
#: The narrower, higher-gain pattern of highway sites.
HIGHWAY_ANTENNA = SectorAntenna(max_gain_dbi=17.0, beamwidth_deg=45.0)
#: Sectors per site and mean max transmit power (dBm) of city sites...
CITY_SECTORS_PER_SITE = 3
CITY_P_MAX_DBM = 43.0
#: ...and of highway sites, which stand this far (m) to one side of the road.
HIGHWAY_SECTORS_PER_SITE = 2
HIGHWAY_P_MAX_DBM = 46.0
HIGHWAY_LATERAL_OFFSET_M = 120.0


@dataclass(frozen=True)
class Cell:
    """One sector (cell) of a base-station site."""

    cell_id: int
    lat: float
    lon: float
    p_max_dbm: float
    direction_deg: float
    antenna: SectorAntenna = DEFAULT_ANTENNA
    site_id: int = -1


class CellDeployment:
    """An immutable collection of cells with fast spatial queries."""

    def __init__(self, cells: Sequence[Cell], frame: LocalFrame) -> None:
        if not cells:
            raise ValueError("deployment must contain at least one cell")
        ids = [c.cell_id for c in cells]
        if len(set(ids)) != len(ids):
            raise ValueError("cell ids must be unique")
        self.cells: Tuple[Cell, ...] = tuple(cells)
        self.frame = frame
        self._by_id: Dict[int, Cell] = {c.cell_id: c for c in cells}
        self._xy = np.column_stack(frame.to_xy(
            np.array([c.lat for c in cells]), np.array([c.lon for c in cells])
        ))
        #: Static context attributes per cell, [N, 4]: lat, lon, p_max, direction.
        self.attributes = np.array(
            [[c.lat, c.lon, c.p_max_dbm, c.direction_deg] for c in cells], dtype=float
        )

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, cell_id: int) -> Cell:
        return self._by_id[cell_id]

    def cell_ids(self) -> List[int]:
        return [c.cell_id for c in self.cells]

    def positions_xy(self) -> np.ndarray:
        """Cell positions in the deployment's local frame, shape [N, 2]."""
        return self._xy.copy()

    def distances_m(self, lat: float, lon: float) -> np.ndarray:
        """Planar distance from a point to every cell, shape [N]."""
        x, y = self.frame.to_xy(lat, lon)
        return np.hypot(self._xy[:, 0] - float(x), self._xy[:, 1] - float(y))


def deploy_city(
    city: CitySpec,
    frame: LocalFrame,
    rng: np.random.Generator,
    site_density_per_km2: float = 6.0,
    start_cell_id: int = 0,
    start_site_id: int = 0,
) -> List[Cell]:
    """Place sites on a jittered grid across the city square, 3 sectors each.

    With 3 sectors/site, ``site_density_per_km2 = 6`` gives ~18 cells/km²,
    in the city-centre band of paper Fig. 4.
    """
    extent = 2.0 * city.half_extent_m
    area_km2 = (extent / 1000.0) ** 2
    n_sites = max(1, int(round(site_density_per_km2 * area_km2)))
    spacing = extent / np.sqrt(n_sites)
    cx, cy = frame.to_xy(city.center_lat, city.center_lon)
    cells: List[Cell] = []
    cell_id = start_cell_id
    site_id = start_site_id
    grid_side = int(np.ceil(np.sqrt(n_sites)))
    placed = 0
    for i in range(grid_side):
        for j in range(grid_side):
            if placed >= n_sites:
                break
            x = cx - city.half_extent_m + (i + 0.5) * spacing + rng.normal(0, spacing * 0.2)
            y = cy - city.half_extent_m + (j + 0.5) * spacing + rng.normal(0, spacing * 0.2)
            lat, lon = frame.to_latlon(x, y)
            base_dir = rng.uniform(0, 360)
            for s in range(CITY_SECTORS_PER_SITE):
                cells.append(
                    Cell(
                        cell_id=cell_id,
                        lat=float(lat),
                        lon=float(lon),
                        p_max_dbm=CITY_P_MAX_DBM + rng.normal(0, 2.0),
                        direction_deg=(base_dir + s * 360.0 / CITY_SECTORS_PER_SITE) % 360.0,
                        site_id=site_id,
                    )
                )
                cell_id += 1
            site_id += 1
            placed += 1
    return cells


def deploy_highway(
    waypoints_latlon: Sequence[Tuple[float, float]],
    frame: LocalFrame,
    rng: np.random.Generator,
    site_spacing_m: float = 1500.0,
    start_cell_id: int = 0,
    start_site_id: int = 0,
) -> List[Cell]:
    """Place sites along a highway polyline, sectors pointing up/down the road."""
    lats = np.array([w[0] for w in waypoints_latlon])
    lons = np.array([w[1] for w in waypoints_latlon])
    xs, ys = frame.to_xy(lats, lons)
    seg_len = np.hypot(np.diff(xs), np.diff(ys))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    cells: List[Cell] = []
    cell_id = start_cell_id
    site_id = start_site_id
    for along in np.arange(site_spacing_m / 2.0, total, site_spacing_m):
        seg = int(np.searchsorted(cum, along, side="right")) - 1
        seg = min(seg, len(seg_len) - 1)
        frac = (along - cum[seg]) / max(seg_len[seg], 1e-9)
        x = xs[seg] + frac * (xs[seg + 1] - xs[seg])
        y = ys[seg] + frac * (ys[seg + 1] - ys[seg])
        # Unit normal to the road for the lateral offset.
        dx, dy = xs[seg + 1] - xs[seg], ys[seg + 1] - ys[seg]
        norm = max(np.hypot(dx, dy), 1e-9)
        nx_, ny_ = -dy / norm, dx / norm
        side = 1.0 if rng.random() < 0.5 else -1.0
        offset = side * HIGHWAY_LATERAL_OFFSET_M
        lat, lon = frame.to_latlon(x + offset * nx_, y + offset * ny_)
        road_bearing = float(np.degrees(np.arctan2(dx, dy)) % 360.0)
        for s in range(HIGHWAY_SECTORS_PER_SITE):
            direction = (road_bearing + (180.0 * s)) % 360.0
            cells.append(
                Cell(
                    cell_id=cell_id,
                    lat=float(lat),
                    lon=float(lon),
                    p_max_dbm=HIGHWAY_P_MAX_DBM + rng.normal(0, 2.0),
                    direction_deg=direction,
                    antenna=HIGHWAY_ANTENNA,
                    site_id=site_id,
                )
            )
            cell_id += 1
        site_id += 1
    return cells
