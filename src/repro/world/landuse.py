"""Procedural land-use raster over a region.

Substitutes the Copernicus Urban Atlas: a coarse grid over the region where
each pixel holds a distribution over the 12 land-use classes.  City cores are
continuous/high-dense urban, density decays with distance from each city
centre, highway corridors are low-density/barren, and smooth spatial noise
breaks up the radial symmetry so the raster has realistic texture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..geo.coords import LocalFrame
from ..geo.routes import CitySpec
from .attributes import LAND_USE_CLASSES, LAND_USE_CLUTTER, N_LAND_USE

#: Points per gather in :meth:`LandUseRaster.fractions_within`.  A chunk's
#: block holds (2*ceil(r / pixel) + 1)^2 pixels of 12 fractions per point:
#: at r = 500 m and 100 m pixels that is 121 pixels, 0.7 MB for a full
#: chunk, which stays in cache; larger chunks ran slower per point.
CHUNK_POINTS = 64


def _smooth_noise(shape: Tuple[int, int], rng: np.random.Generator, passes: int = 4) -> np.ndarray:
    """Cheap smooth random field in [0,1] via repeated box blurs of white noise."""
    field = rng.random(shape)
    for _ in range(passes):
        padded = np.pad(field, 1, mode="edge")
        field = (
            padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
            + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
            + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
        ) / 9.0
    lo, hi = field.min(), field.max()
    return (field - lo) / max(hi - lo, 1e-12)


@dataclass
class LandUseRaster:
    """Grid of land-use class fractions covering a rectangular region.

    ``fractions`` has shape [rows, cols, N_LAND_USE] with each pixel summing
    to 1.  The raster answers two queries used by the rest of the system:
    class fractions within a radius of a point (environment context), and
    the scalar clutter factor at a point (propagation).
    """

    frame: LocalFrame
    x_min: float
    y_min: float
    pixel_m: float
    fractions: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        return self.fractions.shape[:2]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _pixel_of_xy(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rows, cols = self.shape
        col = np.clip(((x - self.x_min) / self.pixel_m).astype(int), 0, cols - 1)
        row = np.clip(((y - self.y_min) / self.pixel_m).astype(int), 0, rows - 1)
        return row, col

    def fractions_at(self, lat, lon) -> np.ndarray:
        """Land-use fractions at point(s); shape [..., N_LAND_USE]."""
        x, y = self.frame.to_xy(lat, lon)
        row, col = self._pixel_of_xy(np.atleast_1d(x), np.atleast_1d(y))
        out = self.fractions[row, col]
        if np.asarray(lat).ndim == 0:
            return out[0]
        return out

    def fractions_within(self, lat, lon, radius_m: float) -> np.ndarray:
        """Mean class fractions over pixels within ``radius_m`` of point(s).

        This is the paper's land-use environment context: percentage area of
        each class around the device location.  A pixel counts when its
        centre lies in the disk; pixels outside the raster are dropped.  A
        point whose disk holds no pixel centre (far outside the raster) gets
        the mean of the pixel block around its clipped pixel instead.
        Returns [..., N_LAND_USE].
        """
        x, y = self.frame.to_xy(lat, lon)
        shape = np.shape(x)
        x, y = np.ravel(x), np.ravel(y)
        rows, cols = self.shape
        r_pix = max(1, int(np.ceil(radius_m / self.pixel_m)))
        row0, col0 = self._pixel_of_xy(x, y)
        offsets = np.arange(-r_pix, r_pix + 1)[:, None]
        total = np.empty((len(x), N_LAND_USE))
        n_pixels = np.empty(len(x))
        # One gather per chunk of points, offset-major: [row offset, column
        # offset, point, class].  Reducing over the flattened offset axis,
        # the outermost one, adds each point's offsets one after another in
        # row-then-column order, and a masked pixel adds +0.0 (fractions are
        # >= 0), so the sums are those of a running total over the offsets.
        for lo in range(0, len(x), CHUNK_POINTS):
            part = slice(lo, lo + CHUNK_POINTS)
            row, col = row0[part] + offsets, col0[part] + offsets  # [K, P]
            dy2 = ((row + 0.5) * self.pixel_m + self.y_min - y[part]) ** 2
            dx2 = ((col + 0.5) * self.pixel_m + self.x_min - x[part]) ** 2
            hit = (
                ((row >= 0) & (row < rows))[:, None]
                & (col >= 0) & (col < cols)
                & (dy2[:, None] + dx2 <= radius_m**2)
            )  # [K, K, P]
            pixels = self.fractions[row.clip(0, rows - 1)[:, None], col.clip(0, cols - 1)]
            pixels *= hit[..., None]
            n_points = hit.shape[-1]
            np.add.reduce(pixels.reshape(-1, n_points, N_LAND_USE), axis=0, out=total[part])
            n_pixels[part] = np.count_nonzero(hit.reshape(-1, n_points), axis=0)
        out = total / np.maximum(n_pixels, 1.0)[:, None]
        for i in np.flatnonzero(n_pixels == 0):
            block = self.fractions[
                max(0, row0[i] - r_pix) : row0[i] + r_pix + 1,
                max(0, col0[i] - r_pix) : col0[i] + r_pix + 1,
            ]
            out[i] = block.reshape(-1, N_LAND_USE).mean(axis=0)
        return out.reshape(shape + (N_LAND_USE,))

    def clutter_at(self, lat, lon) -> np.ndarray:
        """Scalar clutter factor in [0, 1] (propagation input) at point(s)."""
        fractions = self.fractions_at(lat, lon)
        weights = np.array([LAND_USE_CLUTTER[c] for c in LAND_USE_CLASSES])
        return fractions @ weights


def generate_land_use(
    frame: LocalFrame,
    cities: Sequence[CitySpec],
    extent_m: float,
    rng: np.random.Generator,
    pixel_m: float = 100.0,
    highway_waypoints: Optional[Sequence[Sequence[Tuple[float, float]]]] = None,
) -> LandUseRaster:
    """Build a procedural raster covering ``[-extent, extent]²`` in the frame."""
    n = int(np.ceil(2 * extent_m / pixel_m))
    x_min = y_min = -extent_m
    centers_xy = [frame.to_xy(c.center_lat, c.center_lon) for c in cities]
    xs = (np.arange(n) + 0.5) * pixel_m + x_min
    ys = (np.arange(n) + 0.5) * pixel_m + y_min
    gx, gy = np.meshgrid(xs, ys)  # [row=y, col=x]

    # Urban-ness: max over cities of a radial decay, perturbed by smooth noise.
    urban = np.zeros((n, n))
    for (cx, cy), city in zip(centers_xy, cities):
        dist = np.hypot(gx - float(cx), gy - float(cy))
        urban = np.maximum(urban, np.exp(-(dist / (0.8 * city.half_extent_m)) ** 2))
    urban = np.clip(urban + 0.25 * (_smooth_noise((n, n), rng) - 0.5), 0.0, 1.0)

    texture = _smooth_noise((n, n), rng)
    industry = _smooth_noise((n, n), rng)

    fractions = np.zeros((n, n, N_LAND_USE))
    idx = {name: i for i, name in enumerate(LAND_USE_CLASSES)}
    # Allocate density classes by urban-ness bands, softened by texture.
    fractions[..., idx["continuous_urban"]] = np.clip(urban - 0.75, 0, 1) * 4.0
    fractions[..., idx["high_dense_urban"]] = np.clip(0.9 - np.abs(urban - 0.7) * 3.0, 0, 1)
    fractions[..., idx["medium_dense_urban"]] = np.clip(0.9 - np.abs(urban - 0.5) * 3.0, 0, 1)
    fractions[..., idx["low_dense_urban"]] = np.clip(0.9 - np.abs(urban - 0.3) * 3.0, 0, 1)
    fractions[..., idx["very_low_dense_urban"]] = np.clip(0.8 - np.abs(urban - 0.15) * 3.5, 0, 1)
    fractions[..., idx["isolated_structures"]] = np.clip(0.4 - urban, 0, 1) * texture
    fractions[..., idx["green_urban"]] = 0.35 * texture * np.clip(urban, 0.05, 1.0)
    fractions[..., idx["industrial_commercial"]] = 0.5 * industry * np.clip(urban - 0.2, 0, 1)
    fractions[..., idx["leisure_facilities"]] = 0.12 * (1.0 - np.abs(texture - 0.5) * 2.0)
    fractions[..., idx["barren_lands"]] = np.clip(0.5 - urban, 0, 1) * (1.0 - texture)
    fractions[..., idx["air_sea_ports"]] = 0.04 * np.clip(industry - 0.7, 0, 1)
    fractions[..., idx["sea"]] = 0.0

    # Highways carve a low-density corridor.
    if highway_waypoints:
        for polyline in highway_waypoints:
            lats = np.array([p[0] for p in polyline])
            lons = np.array([p[1] for p in polyline])
            hx, hy = frame.to_xy(lats, lons)
            for k in range(len(hx) - 1):
                seg_len = np.hypot(hx[k + 1] - hx[k], hy[k + 1] - hy[k])
                for frac in np.linspace(0, 1, max(2, int(seg_len // pixel_m))):
                    px = hx[k] + frac * (hx[k + 1] - hx[k])
                    py = hy[k] + frac * (hy[k + 1] - hy[k])
                    dist = np.hypot(gx - px, gy - py)
                    corridor = dist < 2 * pixel_m
                    fractions[corridor, idx["barren_lands"]] += 0.6
                    fractions[corridor, idx["very_low_dense_urban"]] += 0.2

    totals = fractions.sum(axis=-1, keepdims=True)
    empty = totals[..., 0] < 1e-9
    fractions[empty, idx["barren_lands"]] = 1.0
    totals = fractions.sum(axis=-1, keepdims=True)
    fractions /= totals
    return LandUseRaster(frame=frame, x_min=x_min, y_min=y_min, pixel_m=pixel_m, fractions=fractions)
