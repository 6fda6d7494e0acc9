"""Anomaly-detection overhead: the off-mode hooks must be free.

The `repro.nn.anomaly` hooks sit on the hottest paths of the engine
(`Tensor._make`, the backward loop, `Module.__call__`).  This bench pins
down two claims made in the README:

(i)  with the mode off, training is bit-identical to an engine without the
     hooks (the hooks reduce to one attribute read, taken on every op), and
(ii) the on-mode cost — full per-op finiteness checks — stays within a
     small factor of the plain run, so `--detect-anomaly` is usable on
     real campaigns, not just unit tests.
"""

import time
from contextlib import nullcontext

import numpy as np

from repro import nn
from repro.core import GenDT, small_config
from repro.datasets import make_dataset_a, split_per_scenario

from conftest import record_result

REPEATS = 3


def _smoke_train(detect_anomaly: bool):
    dataset = make_dataset_a(seed=7, samples_per_scenario=120)
    split = split_per_scenario(dataset, 0.3, 200.0, np.random.default_rng(7))
    config = small_config(
        epochs=2, hidden_size=28, batch_len=25, train_step=5,
        minibatch_windows=16,
    )
    model = GenDT(dataset.region, kpis=["rsrp", "rsrq"], config=config, seed=7)
    start = time.perf_counter()
    with nn.detect_anomaly() if detect_anomaly else nullcontext():
        model.fit(split.train)
    elapsed = time.perf_counter() - start
    weights = np.concatenate([p.data.ravel() for p in model.generator.parameters()])
    return elapsed, weights


def test_anomaly_overhead(benchmark):
    off_times, on_times = [], []
    for _ in range(REPEATS):
        t_off, w_off = _smoke_train(detect_anomaly=False)
        t_on, w_on = _smoke_train(detect_anomaly=True)
        off_times.append(t_off)
        on_times.append(t_on)
    # (i) detect_anomaly must never perturb numerics, only observe them.
    assert np.array_equal(w_off, w_on)

    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off
    lines = [
        "Anomaly-detection overhead (2-epoch smoke train, dataset A, seed 7)",
        f"  off: {best_off:.3f} s  (best of {REPEATS})",
        f"  on:  {best_on:.3f} s  (best of {REPEATS})",
        f"  on/off ratio: {ratio:.2f}x",
        "  weights bit-identical across modes: yes",
    ]
    record_result("anomaly_overhead", "\n".join(lines))

    # (ii) generous CI bound: per-op np.isfinite checks roughly double the
    # numpy-op count, so anything past ~4x signals an accidental slow path
    # (e.g. a per-op stack walk escaping the enabled guard).
    assert ratio < 4.0

    benchmark(lambda: _smoke_train(detect_anomaly=False))
