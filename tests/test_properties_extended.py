"""Properties of the sparse-measurement coverage map."""

import numpy as np

from repro.datasets import SparseMeasurements, build_coverage_map


def test_coverage_counts_conserved(small_region, rng):
    n = 300
    lat = 51.5 + rng.uniform(-0.008, 0.008, n)
    lon = -0.1 + rng.uniform(-0.012, 0.012, n)
    samples = SparseMeasurements(lat, lon, rng.normal(-85, 5, n))
    cmap = build_coverage_map(small_region, samples, pixel_m=200.0, extent_m=1500.0)
    assert cmap.counts.sum() == n  # every sample lands in exactly one pixel


def test_coverage_mean_within_sample_range(small_region, rng):
    n = 200
    lat = 51.5 + rng.uniform(-0.005, 0.005, n)
    lon = -0.1 + rng.uniform(-0.008, 0.008, n)
    values = rng.normal(-85, 5, n)
    samples = SparseMeasurements(lat, lon, values)
    cmap = build_coverage_map(small_region, samples, pixel_m=250.0, extent_m=1200.0)
    filled = cmap.counts > 0
    assert cmap.mean[filled].min() >= values.min() - 1e-9
    assert cmap.mean[filled].max() <= values.max() + 1e-9
