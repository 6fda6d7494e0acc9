"""Coordinate handling: WGS-84 lat/lon and local planar (ENU) frames.

Drive-test measurements and cell databases speak latitude/longitude; the
radio simulator and context pipeline work in a local east/north metric frame
around a region's reference origin.  An equirectangular projection is exact
enough (< 0.1 % error) for the tens-of-kilometres regions the paper covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(
    lat1: Union[float, np.ndarray],
    lon1: Union[float, np.ndarray],
    lat2: Union[float, np.ndarray],
    lon2: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """Great-circle distance in metres between WGS-84 points (vectorized)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    out = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LocalFrame:
    """Equirectangular local tangent frame anchored at (lat0, lon0).

    ``to_xy`` maps lat/lon to metres east (x) and north (y) of the origin;
    ``to_latlon`` inverts it.
    """

    lat0: float
    lon0: float

    def to_xy(self, lat, lon) -> Tuple[np.ndarray, np.ndarray]:
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        x = np.radians(lon - self.lon0) * EARTH_RADIUS_M * math.cos(math.radians(self.lat0))
        y = np.radians(lat - self.lat0) * EARTH_RADIUS_M
        return x, y

    def to_latlon(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        lat = self.lat0 + np.degrees(y / EARTH_RADIUS_M)
        lon = self.lon0 + np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(self.lat0))))
        return lat, lon

    def distance_m(self, lat1, lon1, lat2, lon2) -> np.ndarray:
        """Planar distance in the local frame (fast; used in inner loops)."""
        x1, y1 = self.to_xy(lat1, lon1)
        x2, y2 = self.to_xy(lat2, lon2)
        return np.hypot(x2 - x1, y2 - y1)
