#!/usr/bin/env python3
"""Measurement efficiency: uncertainty-guided drive-test data collection.

Reproduces the paper's §6.2 workflow at example scale.  An operator has 8
candidate measurement subsets (distinct geographic areas of the Dataset-B
region) and wants to spend as few drive-test campaigns as possible:

1. train GenDT on one initial subset,
2. score the remaining subsets with the MC-dropout model-uncertainty probe
   U(G) = mean_t[std(sigma_t) + std(mu_t)],
3. measure (add) the most uncertain subset, retrain, repeat,
4. track fidelity on a held-out long multi-city trajectory,

and compare against adding subsets at random.

Run:  python examples/measurement_efficiency.py   (takes a few minutes)
"""

import numpy as np

from repro.core import GenDT, run_active_learning, small_config
from repro.datasets import build_region_b, make_active_learning_subsets, make_long_trajectory
from repro.eval import format_table
from repro.metrics import dtw, hwd
from repro.radio import DriveTestSimulator


def main() -> None:
    print("Building the Dataset-B region and candidate measurement subsets...")
    region = build_region_b(seed=11)
    subsets = [
        [r]
        for r in make_active_learning_subsets(
            region, seed=31, n_subsets=8, samples_per_subset=200
        )
    ]
    long_traj = make_long_trajectory(region, seed=23, target_duration_s=900.0)
    simulator = DriveTestSimulator(region, candidate_range_m=4500.0)
    eval_record = simulator.simulate(long_traj, np.random.default_rng(99))
    real = eval_record.kpi_matrix(["rsrp", "rsrq"])

    def factory() -> GenDT:
        config = small_config(epochs=3, hidden_size=20, batch_len=25, train_step=10)
        return GenDT(region, kpis=["rsrp", "rsrq"], config=config, seed=5)

    def evaluate(model: GenDT) -> dict:
        generated = model.generate(eval_record.trajectory)
        band = max(2, len(real) // 10)
        return {
            "dtw": dtw(real[:, 0], generated[:, 0], band=band),
            "hwd": hwd(real[:, 0], generated[:, 0]),
        }

    print("Running uncertainty-guided selection...")
    guided = run_active_learning(
        factory, subsets, evaluate, n_steps=4,
        strategy="uncertainty", epochs_per_step=3, mc_passes=3,
    )
    print("Running random selection (same starting subset)...")
    random_run = run_active_learning(
        factory, subsets, evaluate, n_steps=4,
        strategy="random", rng=np.random.default_rng(1), epochs_per_step=3,
    )

    rows = []
    for g_step, r_step in zip(guided.steps, random_run.steps):
        rows.append([
            f"{g_step.fraction_used:.0%}", f"{r_step.fraction_used:.0%}",
            g_step.metrics["dtw"], r_step.metrics["dtw"],
            g_step.metrics["hwd"], r_step.metrics["hwd"],
        ])
    # Each strategy's share of the measurement time (§5.1): after the same
    # number of steps the two may have picked subsets of different lengths.
    print(format_table(
        ["data (guided)", "data (random)", "dtw (guided)", "dtw (random)",
         "hwd (guided)", "hwd (random)"],
        rows,
        title="Held-out long-trajectory fidelity vs measurement data used",
    ))
    print(
        "\nReading the table: the guided column should reach its plateau with "
        "less data — the paper reports ~10% of data sufficing vs ~20% for "
        "random, i.e. up to 90% measurement efficiency."
    )


if __name__ == "__main__":
    main()
