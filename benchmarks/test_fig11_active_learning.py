"""Paper Figure 11: uncertainty-guided vs random training-data selection.

The measurement-efficiency experiment (§6.2.2): geographic subsets of
Dataset B are added to the training pool one at a time — either by highest
model uncertainty (MC-dropout probe on ResGen's Gaussian parameters) or at
random — while evaluating DTW and HWD on the held-out long trajectory.

Shape targets: fidelity improves (then saturates) as data is added, and the
uncertainty-guided curve dominates (is at least as good as) the random one
on average over the trace.
"""

import numpy as np
import pytest

from repro.core import GenDT, run_active_learning, small_config
from repro.datasets import make_active_learning_subsets
from repro.eval import format_table
from repro.metrics import dtw, hwd

from conftest import record_result

N_SUBSETS = 10
N_STEPS = 4


@pytest.fixture(scope="module")
def al_setup(bench_region_b, bench_long_record):
    subsets = [
        [r]
        for r in make_active_learning_subsets(
            bench_region_b, seed=31, n_subsets=N_SUBSETS, samples_per_subset=220,
        )
    ]
    eval_record = bench_long_record
    real = eval_record.kpi_matrix(["rsrp", "rsrq"])

    def factory():
        config = small_config(
            epochs=3, hidden_size=20, batch_len=25, train_step=10,
            minibatch_windows=12, max_cells=6,
        )
        return GenDT(bench_region_b, kpis=["rsrp", "rsrq"], config=config, seed=5)

    def evaluate(model):
        gen = model.generate(eval_record.trajectory)
        band = max(2, len(real) // 10)
        return {
            "dtw": dtw(real[:, 0], gen[:, 0], band=band),
            "hwd": hwd(real[:, 0], gen[:, 0]),
        }

    return factory, subsets, evaluate


def test_fig11_uncertainty_vs_random(benchmark, al_setup):
    factory, subsets, evaluate = al_setup
    uncertainty = run_active_learning(
        factory, subsets, evaluate, n_steps=N_STEPS,
        strategy="uncertainty", epochs_per_step=3, mc_passes=3,
    )
    random_runs = [
        run_active_learning(
            factory, subsets, evaluate, n_steps=N_STEPS,
            strategy="random", rng=np.random.default_rng(seed), epochs_per_step=3,
        )
        for seed in (1, 2)
    ]

    rows = []
    for i, step in enumerate(uncertainty.steps):
        rand_dtw = float(np.mean([r.steps[i].metrics["dtw"] for r in random_runs]))
        rand_hwd = float(np.mean([r.steps[i].metrics["hwd"] for r in random_runs]))
        rand_used = float(np.mean([r.steps[i].fraction_used for r in random_runs]))
        rows.append(
            [
                f"{step.fraction_used:.0%}",
                f"{rand_used:.0%}",
                step.metrics["dtw"],
                rand_dtw,
                step.metrics["hwd"],
                rand_hwd,
            ]
        )
    table = format_table(
        # Each strategy's time-weighted share of the data (§5.1); the random
        # one is the mean over its runs.
        ["data_used:uncertainty", "data_used:random", "dtw:uncertainty", "dtw:random",
         "hwd:uncertainty", "hwd:random"],
        rows,
        title="Figure 11: uncertainty-guided vs random training-data selection",
    )
    record_result("fig11_active_learning", table)

    unc_dtw = uncertainty.metric_series("dtw")
    rand_dtw_final = np.mean([r.steps[-1].metrics["dtw"] for r in random_runs])
    # Shape: adding data helps vs the first step...
    assert min(unc_dtw[1:]) <= unc_dtw[0] * 1.05
    # ...and on average the uncertainty-guided trace is no worse than random.
    unc_mean = float(np.mean(unc_dtw[1:]))
    rand_mean = float(
        np.mean([np.mean(r.metric_series("dtw")[1:]) for r in random_runs])
    )
    assert unc_mean <= rand_mean * 1.15

    factory_model = factory()
    factory_model.fit([r for s in subsets[:1] for r in s], epochs=1)
    from repro.core import mc_dropout_uncertainty

    benchmark(
        lambda: mc_dropout_uncertainty(
            factory_model, subsets[1][0].trajectory, n_passes=2
        )
    )
