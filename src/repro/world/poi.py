"""Procedural points-of-interest layer.

Substitutes the OpenStreetMap Overpass queries: PoIs of each class are drawn
from inhomogeneous Poisson processes whose intensity tracks urban-ness (cafes
and shops cluster in city cores, motorway nodes follow highway corridors).
The query the context pipeline needs is "count of each PoI class within a
radius of a point", served by one k-d tree over all classes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..geo.coords import LocalFrame
from .attributes import POI_CLASSES
from .landuse import LandUseRaster

#: Baseline PoI intensity per km² at full urban-ness, per class.
_POI_URBAN_INTENSITY: Dict[str, float] = {
    "tourism": 4.0,
    "cafe": 14.0,
    "parking": 10.0,
    "restaurant": 16.0,
    "post_police": 2.5,
    "traffic_signal": 20.0,
    "office": 12.0,
    "public_transport": 10.0,
    "shop": 22.0,
    "primary_roads": 8.0,
    "secondary_roads": 12.0,
    "motorways": 0.5,
    "railway_stations": 1.0,
    "tram_stops": 5.0,
}

#: Classes whose intensity follows highway corridors rather than urban cores.
_HIGHWAY_CLASSES = ("motorways", "parking")


class PoiIndex:
    """PoI points of every class in one k-d tree, for radius-count queries."""

    def __init__(self, frame: LocalFrame, points_xy: Dict[str, np.ndarray]) -> None:
        self.frame = frame
        points = [
            np.asarray(points_xy.get(cls, np.zeros((0, 2))), dtype=float).reshape(-1, 2)
            for cls in POI_CLASSES
        ]
        #: The PoI class of each point of ``_tree``, as its index in ``POI_CLASSES``.
        self._class_of = np.repeat(np.arange(len(POI_CLASSES)), [len(p) for p in points])
        self._tree = cKDTree(np.concatenate(points))

    def counts_within(self, lat, lon, radius_m: float) -> np.ndarray:
        """PoIs of each class within ``radius_m`` of point(s), [..., N_POI].

        Classes are in canonical order; a point at exactly ``radius_m`` counts.
        One query finds every (point, PoI) pair within the radius, and one
        ``bincount`` over (point, class) counts them.
        """
        x, y = self.frame.to_xy(lat, lon)
        centres = np.stack([np.ravel(x), np.ravel(y)], axis=1)
        pairs = cKDTree(centres).sparse_distance_matrix(self._tree, radius_m, output_type="ndarray")
        n_cls = len(POI_CLASSES)
        cells = pairs["i"] * n_cls + self._class_of[pairs["j"]]
        counts = np.bincount(cells, minlength=len(centres) * n_cls).astype(float)
        return counts.reshape(np.shape(x) + (n_cls,))


def generate_pois(
    land_use: LandUseRaster,
    extent_m: float,
    rng: np.random.Generator,
    highway_waypoints: Optional[Sequence[Sequence[Tuple[float, float]]]] = None,
    intensity_scale: float = 1.0,
) -> PoiIndex:
    """Sample PoI point sets over the region via thinned Poisson processes."""
    frame = land_use.frame
    area_km2 = (2 * extent_m / 1000.0) ** 2
    points: Dict[str, np.ndarray] = {}
    for cls in POI_CLASSES:
        intensity = _POI_URBAN_INTENSITY[cls] * intensity_scale
        n_candidates = rng.poisson(intensity * area_km2)
        if n_candidates == 0:
            points[cls] = np.zeros((0, 2))
            continue
        xy = rng.uniform(-extent_m, extent_m, size=(n_candidates, 2))
        lat, lon = frame.to_latlon(xy[:, 0], xy[:, 1])
        if cls in _HIGHWAY_CLASSES and highway_waypoints:
            keep_p = _highway_proximity(xy, frame, highway_waypoints)
        else:
            # Thin by urban-ness: accept with probability ~ 1 - clutter gap.
            clutter = np.asarray(land_use.clutter_at(lat, lon))
            keep_p = np.clip(clutter * 1.6, 0.03, 1.0)
        keep = rng.random(n_candidates) < keep_p
        points[cls] = xy[keep]
    return PoiIndex(frame, points)


def _highway_proximity(
    xy: np.ndarray,
    frame: LocalFrame,
    highway_waypoints: Sequence[Sequence[Tuple[float, float]]],
    scale_m: float = 800.0,
) -> np.ndarray:
    """Acceptance probability decaying with distance to the nearest highway."""
    min_d = np.full(len(xy), np.inf)
    for polyline in highway_waypoints:
        lats = np.array([p[0] for p in polyline])
        lons = np.array([p[1] for p in polyline])
        hx, hy = frame.to_xy(lats, lons)
        for px, py in zip(hx, hy):
            min_d = np.minimum(min_d, np.hypot(xy[:, 0] - px, xy[:, 1] - py))
    return np.exp(-min_d / scale_m)
