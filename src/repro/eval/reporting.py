"""Plain-text reporting: tables and terminal "figures".

The benchmark harness regenerates every paper table/figure as text: tables
as aligned ASCII grids, figures (time series, CDFs, bar charts) as compact
unicode line plots — enough to read off the *shape* of each result.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .harness import METRIC_NAMES


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned ASCII table."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(series: Sequence[float], width: int = 72) -> str:
    """One-line unicode sparkline of a series (downsampled to ``width``)."""
    values = np.asarray(series, dtype=float)
    if len(values) == 0:
        return ""
    if len(values) > width:
        edges = np.linspace(0, len(values), width + 1).astype(int)
        values = np.array([values[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return _BLOCKS[4] * len(values)
    levels = ((values - lo) / (hi - lo) * (len(_BLOCKS) - 2)).astype(int) + 1
    return "".join(_BLOCKS[i] for i in levels)


def ascii_plot(
    series_map: Mapping[str, Sequence[float]],
    width: int = 72,
    height: int = 12,
    title: Optional[str] = None,
) -> str:
    """Multi-series ASCII line plot on a shared y-axis."""
    all_values = np.concatenate([np.asarray(v, dtype=float) for v in series_map.values()])
    lo, hi = float(all_values.min()), float(all_values.max())
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@%&"
    for k, (name, series) in enumerate(series_map.items()):
        values = np.asarray(series, dtype=float)
        xs = np.linspace(0, width - 1, len(values)).astype(int)
        ys = ((values - lo) / (hi - lo) * (height - 1)).astype(int)
        for x, y in zip(xs, ys):
            grid[height - 1 - y][x] = markers[k % len(markers)]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{hi:10.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{lo:10.2f} ┤" + "".join(grid[-1]))
    legend = "   ".join(
        f"{markers[k % len(markers)]} {name}" for k, name in enumerate(series_map)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def cdf_points(values: np.ndarray, n_points: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF evaluated on a uniform grid over the data range."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if len(values) == 0:
        return np.zeros(0), np.zeros(0)
    grid = np.linspace(values[0], values[-1], n_points)
    cdf = np.searchsorted(values, grid, side="right") / len(values)
    return grid, cdf


def fidelity_rows(
    results: Mapping[str, "FidelityResult"],
    kpi: str,
    scenarios: Sequence[str],
) -> Tuple[List[str], List[List]]:
    """Headers+rows for a per-scenario fidelity table (paper Tables 3/5)."""
    headers = ["method"] + [f"{m}:{s}" for m in METRIC_NAMES for s in scenarios]
    rows: List[List] = []
    for name, result in results.items():
        row: List = [name]
        for metric in METRIC_NAMES:
            for scenario in scenarios:
                row.append(result.get(scenario, kpi, metric))
        rows.append(row)
    return headers, rows


def average_rows(
    results: Mapping[str, "FidelityResult"],
    kpis: Sequence[str],
) -> Tuple[List[str], List[List]]:
    """Headers+rows for a scenario-averaged table (paper Tables 4/6/7)."""
    headers = ["method"] + [f"{k}:{m}" for k in kpis for m in METRIC_NAMES]
    rows: List[List] = []
    for name, result in results.items():
        row: List = [name]
        for kpi in kpis:
            for metric in METRIC_NAMES:
                row.append(result.average(kpi, metric))
        rows.append(row)
    return headers, rows
