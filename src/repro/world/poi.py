"""Procedural points-of-interest layer.

Substitutes the OpenStreetMap Overpass queries: PoIs of each class are drawn
from inhomogeneous Poisson processes whose intensity tracks urban-ness (cafes
and shops cluster in city cores, motorway nodes follow highway corridors).
The query the context pipeline needs is "count of each PoI class within a
radius of a point", served by one index over all classes that sorts the
PoIs into strips of :data:`STRIP_M` and, within a strip, by x.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

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


#: Height (m) of the strips of y :class:`PoiIndex` sorts PoIs into.  At the
#: context radius of 500 m a query reaches at most three strips.
STRIP_M = 500.0


class PoiIndex:
    """PoI points of every class sorted by (strip of y, x), for radius-count queries.

    Each point's sort key is ``strip * span + (x - x_min)`` with ``span``
    wider than the x extent, so the keys of one strip form one run of the
    sorted array and never interleave with another strip's.
    """

    def __init__(self, frame: LocalFrame, points_xy: Dict[str, np.ndarray]) -> None:
        self.frame = frame
        points = [
            np.asarray(points_xy.get(cls, np.zeros((0, 2))), dtype=float).reshape(-1, 2)
            for cls in POI_CLASSES
        ]
        xy = np.concatenate(points)
        class_of = np.repeat(np.arange(len(POI_CLASSES)), [len(p) for p in points])
        #: Lower-left corner of the PoIs' bounding box, and its width.
        self._origin = xy.min(axis=0) if len(xy) else np.zeros(2)
        self._width = float((xy[:, 0] - self._origin[0]).max(initial=0.0))
        self._span = self._width + 2 * STRIP_M
        strips = np.floor((xy[:, 1] - self._origin[1]) / STRIP_M)
        self._n_strips = int(strips.max(initial=-1.0)) + 1
        keys = strips * self._span + (xy[:, 0] - self._origin[0])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        #: The points' coordinates in key order, and the class of each as its
        #: index in ``POI_CLASSES``.
        self._x, self._y = xy[order].T.copy()
        self._class_of = class_of[order]

    def counts_within(self, lat, lon, radius_m: float) -> np.ndarray:
        """PoIs of each class within ``radius_m`` of point(s), [..., N_POI].

        Classes are in canonical order; a point at exactly ``radius_m``
        counts.  For each strip within ``radius_m + 1`` m of a query point,
        one ``searchsorted`` finds the run of PoIs with x within
        ``radius_m + 1`` m of it; the margin only widens these candidates,
        and ``dx*dx + dy*dy <= r*r`` decides which count.  One ``bincount``
        over (point, class) counts them.
        """
        x, y = self.frame.to_xy(lat, lon)
        qx, qy = np.ravel(x), np.ravel(y)
        n_cls = len(POI_CLASSES)
        r = float(radius_m)
        reach = r + 1.0
        first = np.floor((qy - reach - self._origin[1]) / STRIP_M).astype(np.int64)
        last = np.floor((qy + reach - self._origin[1]) / STRIP_M).astype(np.int64)
        # Clipped to the PoIs' x extent, so a band stays inside its strip's keys.
        x_lo = np.clip(qx - reach - self._origin[0], 0.0, self._width)
        x_hi = np.clip(qx + reach - self._origin[0], 0.0, self._width)
        # Every (strip offset, query point) pair at once, offset-major.
        strip = first + np.arange(int((last - first).max(initial=-1)) + 1)[:, None]
        live = ((strip <= last) & (strip >= 0) & (strip < self._n_strips)).ravel()
        base = strip * self._span
        start = np.searchsorted(self._keys, base + x_lo, side="left").ravel()
        stop = np.searchsorted(self._keys, base + x_hi, side="right").ravel()
        sizes = np.where(live, stop - start, 0)
        # A pair's candidates are its run start, start + 1, ...: shift a running index.
        poi = np.arange(sizes.sum()) + np.repeat(start - (np.cumsum(sizes) - sizes), sizes)

        def per_candidate(values):
            return np.repeat(np.tile(values, len(strip)), sizes)

        dx = self._x[poi] - per_candidate(qx)
        dy = self._y[poi] - per_candidate(qy)
        cells = per_candidate(np.arange(0, len(qx) * n_cls, n_cls)) + self._class_of[poi]
        counts = np.bincount(cells[dx * dx + dy * dy <= r * r], minlength=len(qx) * n_cls)
        return counts.astype(float).reshape(np.shape(x) + (n_cls,))


def generate_pois(
    land_use: LandUseRaster,
    extent_m: float,
    rng: np.random.Generator,
    highway_waypoints: Optional[Sequence[Sequence[Tuple[float, float]]]] = None,
) -> PoiIndex:
    """Sample PoI point sets over the region via thinned Poisson processes."""
    frame = land_use.frame
    area_km2 = (2 * extent_m / 1000.0) ** 2
    points: Dict[str, np.ndarray] = {}
    for cls in POI_CLASSES:
        n_candidates = rng.poisson(_POI_URBAN_INTENSITY[cls] * area_km2)
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
