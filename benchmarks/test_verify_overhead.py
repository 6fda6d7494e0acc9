"""Graph verification overhead: cheap, and one-shot at fit time.

``GenDT.fit``/``GenDT.load`` verify the generator graph before touching any
data (see ``GenDT._verify_generator``).  That is only acceptable if the
check is (i) fast in absolute terms — it runs the whole generator forward
on probe inputs and walks the autodiff graph, so "fast" needs pinning — and
(ii) paid exactly once per fit, never per epoch, so training cost is
independent of epoch count.
"""

import time

import numpy as np

from repro.analysis.graph import verify
from repro.core import GenDT, small_config
from repro.core.generator import GenDTGenerator
from repro.datasets import make_dataset_a, split_per_scenario

from conftest import record_result

REPEATS = 5


def test_verify_gendt_generator_under_one_second(benchmark):
    module = GenDTGenerator(2, 28, small_config(), np.random.default_rng(0))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = verify(module)
        times.append(time.perf_counter() - start)
        assert report.ok, report.format()
    best = min(times)
    record_result(
        "verify_overhead",
        "Graph verification of GenDTGenerator (full contract + grad audit)\n"
        f"  best of {REPEATS}: {best * 1e3:.1f} ms",
    )
    # ISSUE acceptance bound: a full generator verification stays under 1 s.
    assert best < 1.0

    benchmark(lambda: verify(module))


def test_fit_time_verification_is_one_shot(monkeypatch):
    dataset = make_dataset_a(seed=7, samples_per_scenario=120)
    split = split_per_scenario(dataset, 0.3, 200.0, np.random.default_rng(7))

    calls = {"n": 0}
    original = GenDT._verify_generator

    def counting_verify(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(GenDT, "_verify_generator", counting_verify)

    for epochs in (1, 3):
        calls["n"] = 0
        config = small_config(
            epochs=epochs, hidden_size=12, batch_len=20, train_step=10
        )
        model = GenDT(dataset.region, kpis=["rsrp", "rsrq"], config=config, seed=7)
        model.fit(split.train)
        # One verification per fit, regardless of epoch count.
        assert calls["n"] == 1, (
            f"expected one-shot verification, got {calls['n']} calls "
            f"for epochs={epochs}"
        )
