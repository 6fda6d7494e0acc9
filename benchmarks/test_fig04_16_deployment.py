"""Paper Figure 4 (cell density per scenario) and Figure 16 (serving-cell
distance CDFs).

Shape targets: city-centre scenarios see denser deployments and closer
serving cells than highway scenarios; slow-mobility (walk) serving cells are
the closest.
"""

import numpy as np

from repro.eval import cdf_points, format_table, serving_cell_distances_fast, sparkline

from conftest import record_result


def _case_records(bench_dataset_a, bench_dataset_b):
    """The paper's 7 cases: A walk/bus/tram, B city x2 / highway x2."""
    cases = {}
    for scenario in ("walk", "bus", "tram"):
        cases[f"A:{scenario}"] = (bench_dataset_a, bench_dataset_a.by_scenario(scenario))
    for scenario in ("city_driving_1", "city_driving_2", "highway_1", "highway_2"):
        cases[f"B:{scenario}"] = (bench_dataset_b, bench_dataset_b.by_scenario(scenario))
    return cases


def _local_cell_density(dataset, records, radius_m=2000.0):
    """Cells within a radius of the visited locations, per km^2."""
    deployment = dataset.region.deployment
    counts = []
    for record in records:
        traj = record.trajectory
        for k in range(0, len(traj), max(1, len(traj) // 10)):
            n = np.count_nonzero(deployment.distances_m(traj.lat[k], traj.lon[k]) <= radius_m)
            counts.append(n / (np.pi * (radius_m / 1000.0) ** 2))
    return float(np.mean(counts))


def test_fig04_cell_density(benchmark, bench_dataset_a, bench_dataset_b):
    cases = _case_records(bench_dataset_a, bench_dataset_b)
    rows = []
    densities = {}
    for name, (dataset, records) in cases.items():
        density = _local_cell_density(dataset, records)
        densities[name] = density
        rows.append([name, density])
    table = format_table(
        ["case", "cells_per_km2"], rows, title="Figure 4: cell density per case"
    )
    record_result("fig04_cell_density", table)

    # City-centre cases denser than highway cases (paper Fig. 4).
    city_mean = np.mean([densities["A:walk"], densities["B:city_driving_1"]])
    highway_mean = np.mean([densities["B:highway_1"], densities["B:highway_2"]])
    assert city_mean > highway_mean

    benchmark(
        lambda: _local_cell_density(
            bench_dataset_a, bench_dataset_a.by_scenario("walk")[:1]
        )
    )


def test_fig16_serving_distance_cdf(benchmark, bench_dataset_a, bench_dataset_b):
    cases = _case_records(bench_dataset_a, bench_dataset_b)
    lines = ["Figure 16: CDF of distance to serving cell per scenario"]
    medians = {}
    for name, (dataset, records) in cases.items():
        pooled = np.concatenate(
            [serving_cell_distances_fast(r, dataset.region.deployment) for r in records]
        )
        medians[name] = float(np.median(pooled))
        xs, cdf = cdf_points(pooled, n_points=60)
        lines.append(f"{name:20s} median={medians[name]:7.0f} m  " + sparkline(cdf, 50))
    record_result("fig16_serving_distance_cdf", "\n".join(lines))

    # Paper shape: walking/city serving cells closer than highway ones.
    assert medians["A:walk"] < medians["B:highway_1"]
    assert medians["B:city_driving_1"] < medians["B:highway_2"]

    records = bench_dataset_a.by_scenario("walk")[:1]
    benchmark(
        lambda: serving_cell_distances_fast(
            records[0], bench_dataset_a.region.deployment
        )
    )
