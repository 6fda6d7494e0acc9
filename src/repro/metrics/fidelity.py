"""Fidelity metrics: MAE, DTW, HWD (paper §5.1).

* **MAE** — mean absolute pointwise error between real and generated series.
* **DTW** — dynamic time warping distance, robust to the small temporal
  shifts different drives over the same route exhibit.  Classic O(T²)
  dynamic program with an optional Sakoe-Chiba band; reported as the
  alignment cost normalized by the warping-path length, so values are
  comparable across series lengths (and to MAE).
* **HWD** — Histogram Wasserstein Distance: the 1-Wasserstein distance
  between the empirical distributions of real and generated values,
  computed on binned histograms as the paper does.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


def mae(real: np.ndarray, generated: np.ndarray) -> float:
    """Mean absolute error between two aligned series."""
    real = np.asarray(real, dtype=float)
    generated = np.asarray(generated, dtype=float)
    if real.shape != generated.shape:
        raise ValueError(f"shape mismatch: {real.shape} vs {generated.shape}")
    return float(np.mean(np.abs(real - generated)))


def dtw(real: np.ndarray, generated: np.ndarray, band: Optional[int] = None) -> float:
    """Dynamic time warping distance between two 1-D series, per path step:
    the alignment cost divided by the warping-path length.

    Args:
        real, generated: the two series (lengths may differ).
        band: Sakoe-Chiba band half-width; None = unconstrained.  A band of
            ~10 % of the series length is a good speed/accuracy tradeoff for
            long drive-test series.
    """
    x = np.asarray(real, dtype=float).ravel()
    y = np.asarray(generated, dtype=float).ravel()
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("empty series")
    if band is None:
        band = max(n, m)
    band = max(band, abs(n - m))  # the band must admit the corner-to-corner path

    big = np.inf
    prev = np.full(m + 1, big)
    prev[0] = 0.0
    path_prev = np.zeros(m + 1)
    cur = np.full(m + 1, big)
    path_cur = np.zeros(m + 1)
    for i in range(1, n + 1):
        cur.fill(big)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        xi = x[i - 1]
        costs = np.abs(xi - y[j_lo - 1 : j_hi])
        for j, cost in zip(range(j_lo, j_hi + 1), costs):
            # Tie-break on path length symmetrically: among predecessors of
            # equal cost, keep the shortest path.  "Up" and "left" swap when
            # the arguments swap, so first-found tie-breaking would make the
            # *normalized* distance depend on argument order.
            best = prev[j]
            steps = path_prev[j]
            if prev[j - 1] < best or (
                prev[j - 1] == best and path_prev[j - 1] < steps
            ):
                best = prev[j - 1]
                steps = path_prev[j - 1]
            if cur[j - 1] < best or (
                cur[j - 1] == best and path_cur[j - 1] < steps
            ):
                best = cur[j - 1]
                steps = path_cur[j - 1]
            cur[j] = cost + best
            path_cur[j] = steps + 1
        prev, cur = cur, prev
        path_prev, path_cur = path_cur, path_prev
    total = prev[m]
    if not np.isfinite(total):
        raise RuntimeError("DTW band too narrow for the series lengths")
    return float(total / max(path_prev[m], 1.0))


def wasserstein_1d(real: np.ndarray, generated: np.ndarray) -> float:
    """Exact 1-D Wasserstein-1 distance between two empirical samples."""
    x = np.sort(np.asarray(real, dtype=float).ravel())
    y = np.sort(np.asarray(generated, dtype=float).ravel())
    all_values = np.concatenate([x, y])
    all_values.sort(kind="mergesort")
    deltas = np.diff(all_values)
    x_cdf = np.searchsorted(x, all_values[:-1], side="right") / len(x)
    y_cdf = np.searchsorted(y, all_values[:-1], side="right") / len(y)
    return float(np.sum(np.abs(x_cdf - y_cdf) * deltas))


#: Bins of HWD's shared histogram over the two samples' joint range.
HWD_BINS = 50


def hwd(real: np.ndarray, generated: np.ndarray) -> float:
    """Histogram Wasserstein Distance (paper §5.1), in the KPI's units.

    Histograms of the two samples over a shared binning of :data:`HWD_BINS`
    bins, compared with the 1-Wasserstein distance between the binned
    distributions: the L1 area between the two histogram CDFs.
    """
    x = np.asarray(real, dtype=float).ravel()
    y = np.asarray(generated, dtype=float).ravel()
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    if hi <= lo:
        return 0.0
    bins = np.linspace(lo, hi, HWD_BINS + 1)
    hx, _ = np.histogram(x, bins=bins)
    hy, _ = np.histogram(y, bins=bins)
    px = hx / hx.sum()
    py = hy / hy.sum()
    # W1 between discrete distributions on a shared support = L1 of the CDF
    # gap times the bin width.
    cdf_gap = np.cumsum(px - py)
    bin_width = bins[1] - bins[0]
    return float(np.sum(np.abs(cdf_gap)) * bin_width)


#: DTW's Sakoe-Chiba band in :func:`evaluate_series`, as a fraction of the
#: longer series' length.
DTW_BAND_FRACTION = 0.1


def evaluate_series(real: np.ndarray, generated: np.ndarray) -> Dict[str, float]:
    """All three fidelity metrics for one KPI channel."""
    band = max(2, int(DTW_BAND_FRACTION * max(len(real), len(generated))))
    return {
        "mae": mae(real, generated),
        "dtw": dtw(real, generated, band=band),
        "hwd": hwd(real, generated),
    }
