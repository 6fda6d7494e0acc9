"""The pinned-seed scenario behind the golden fixtures.

One CI-size world, one 2-epoch fit and the model's generation entry points,
each reduced to the arrays a behaviour change would move, plus the series
of two 1-epoch fits with the SRNN layers off and at noise intensity 0.  A second small
Dataset-A build (with QoE) pins the models other than GenDT: the §5.2
baselines' ``generate`` and the QoE predictor's ``predict``, each fit
for 1-3 epochs at hidden widths of at most 8.  A small Dataset-B build pins
the drive-test simulator on city and highway cells.  ``compute()`` returns them as
a flat ``{name: array}`` dict; ``tests/test_golden.py`` compares it with
``expected.json``.

The scenario runs GenDT with ``COMPUTE_DTYPE`` set to float64, so the pins
hold at rtol 1e-9 on any BLAS build and move only with a change of logic or
RNG order.  The float32 path is bounded against float64 in
``tests/test_float32.py``.

Regenerate the fixtures after a deliberate output change (and name the cause
in CHANGES.md)::

    PYTHONPATH=src python -m tests.golden.scenario
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict
from unittest import mock

import numpy as np

from repro.baselines import DoppelGANger, LSTMGNNBaseline, MLPBaseline
from repro.core import GenDT, small_config
from repro.core import generator as generator_module
from repro.core.uncertainty import mc_dropout_uncertainty
from repro.datasets import make_dataset_a, make_dataset_b
from repro.metrics import dtw, hwd
from repro.serving import CampaignConfig, CampaignRunner
from repro.usecases import QoEPredictor

FIXTURE = Path(__file__).with_name("expected.json")

KPIS = ["rsrp", "rsrq"]
#: Length of each generated route, in samples.
ROUTE_SAMPLES = 60


def compute() -> Dict[str, np.ndarray]:
    with mock.patch.object(generator_module, "COMPUTE_DTYPE", np.float64):
        return {**_compute(), **_compute_other_models(), **_compute_simulator()}


def _compute() -> Dict[str, np.ndarray]:
    dataset = make_dataset_a(
        seed=7, samples_per_scenario=120, trajectories_per_scenario=2, with_qoe=False
    )
    config = small_config(
        epochs=2, hidden_size=8, resgen_hidden=(8, 8, 4), batch_len=20, train_step=10,
        max_cells=4,
    )
    model = GenDT(dataset.region, kpis=KPIS, config=config, seed=3)
    history = model.fit(dataset.records)

    out: Dict[str, np.ndarray] = {
        "fit.loss": np.array(
            [history.total, history.mse, history.adversarial, history.discriminator, history.nll]
        ),
    }
    params = [p.data for _, p in model.generator.named_parameters()]
    out["fit.weights"] = np.array(
        [[p.sum(), np.abs(p).sum(), np.square(p).sum()] for p in params]
    )

    records = dataset.records[:4]
    routes = [r.trajectory.slice(0, ROUTE_SAMPLES) for r in records]
    model.rng.bit_generator.state = np.random.default_rng(11).bit_generator.state
    out["generate"] = model.generate(routes[0])
    out["generate_samples"] = model.generate_samples(routes[1], 3)

    result = CampaignRunner(model, config=CampaignConfig(seed=5)).run(routes)
    channel = KPIS.index("rsrp")
    fidelity = []
    for index, (envelope, record) in enumerate(zip(result.envelopes, records)):
        out[f"campaign.{index}"] = envelope.series
        truth = record.kpi["rsrp"][:ROUTE_SAMPLES]
        generated = envelope.series[:, channel]
        fidelity.append([dtw(truth, generated, band=ROUTE_SAMPLES // 10), hwd(truth, generated)])
    out["campaign.dtw_hwd"] = np.array(fidelity)

    model.rng.bit_generator.state = np.random.default_rng(13).bit_generator.state
    estimate = mc_dropout_uncertainty(model, routes[2], n_passes=4)
    out["mc_dropout"] = np.array([estimate.model_uncertainty, estimate.data_uncertainty])

    # The two other branches of the SRNN noise: layers off (Table 12's "No
    # SRNN"), and layers on at intensity 0 (§A.3's a = 0), which still draws
    # the noise but adds none of it.
    variants = {
        "no_srnn": dict(use_stochastic_layers=False),
        "srnn_zero_intensity": dict(noise_intensity_h=0.0, noise_intensity_c=0.0),
    }
    for name, overrides in variants.items():
        variant = GenDT(
            dataset.region, kpis=KPIS, config=replace(config, epochs=1, **overrides), seed=3
        )
        variant.fit(dataset.records)
        out[f"{name}.generate"] = variant.generate(routes[0], rng=np.random.default_rng(17))
    return out


def _compute_other_models() -> Dict[str, np.ndarray]:
    dataset = make_dataset_a(seed=7, samples_per_scenario=120, trajectories_per_scenario=2)
    train, test = dataset.records[:-1], dataset.records[-1]
    route = test.trajectory
    region = dataset.region
    baselines = {
        "mlp": MLPBaseline(region, kpis=KPIS, hidden=(8, 8), max_cells=4, epochs=3, seed=0),
        "lstm_gnn": LSTMGNNBaseline(
            region, kpis=KPIS, hidden=8, max_cells=4, epochs=2, max_train_len=40, seed=0
        ),
        "orig_dg": DoppelGANger(
            region, kpis=KPIS, real_context=False, window_len=20, hidden=8, max_cells=4,
            epochs=1, seed=0,
        ),
        "real_context_dg": DoppelGANger(
            region, kpis=KPIS, real_context=True, window_len=20, hidden=8, max_cells=4,
            epochs=1, seed=0,
        ),
    }
    out: Dict[str, np.ndarray] = {}
    for name, baseline in baselines.items():
        baseline.fit(train)
        out[f"baseline.{name}"] = baseline.generate(route)

    qoe = QoEPredictor(kpi_names=tuple(KPIS), hidden=(8, 8), epochs=3, seed=0)
    qoe.fit(train)
    predicted = qoe.predict(test)
    out["qoe.throughput_mbps"] = predicted["throughput_mbps"]
    out["qoe.per"] = predicted["per"]
    return out


def _compute_simulator() -> Dict[str, np.ndarray]:
    """Every Dataset-B record's KPIs, serving cell and serving load, stacked by row.

    Its highway routes put 17 dBi, 45° highway sectors among the candidate
    cells next to the city sectors.
    """
    dataset = make_dataset_b(seed=11, samples_per_scenario=60, trajectories_per_scenario=1)
    columns = ["rsrp", "rssi", "rsrq", "sinr", "cqi", "serving_cell"]
    rows = [
        np.column_stack([record.kpi_matrix(columns), record.serving_load])
        for record in dataset.records
    ]
    return {"simulate.dataset_b": np.concatenate(rows)}


def load() -> Dict[str, np.ndarray]:
    return {name: np.array(value) for name, value in json.loads(FIXTURE.read_text()).items()}


def main() -> None:
    values = {name: np.asarray(array).tolist() for name, array in compute().items()}
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(values)} arrays)")


if __name__ == "__main__":
    main()
