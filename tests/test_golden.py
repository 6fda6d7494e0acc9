"""Golden equivalence gate: pinned-seed outputs of fit, generation and serving.

The fixtures in ``tests/golden/expected.json`` hold a 2-epoch loss curve, a
per-parameter weight summary, the series of ``generate``,
``generate_samples(n=3)``, a 4-route ``CampaignRunner.run`` and
``mc_dropout_uncertainty``, and the campaign's DTW/HWD against simulated
truth, and the ``generate`` series of two 1-epoch fits, one with the SRNN
layers off and one with them on at noise intensity 0.  They also hold the outputs of the models other than GenDT: the MLP,
LSTM-GNN and both DoppelGANger baselines' ``generate``, the QoE
predictor's ``predict``, and the drive-test
simulator's records of a small Dataset B (city and highway cells).  A change that moves any of them must re-pin the fixtures (see
``tests/golden/scenario.py``) and name the cause in CHANGES.md.

The scenario runs GenDT in float64 (``COMPUTE_DTYPE`` patched), and values are
compared at rtol 1e-9 rather than by byte hash, so the gate holds across
Python and numpy versions whose BLAS rounds differently.  The float32 path
the library runs by default is bounded against float64 in
``tests/test_float32.py``.
"""

import numpy as np
import pytest

from tests.golden import scenario


@pytest.fixture(scope="module")
def outputs():
    return scenario.compute()


@pytest.fixture(scope="module")
def expected():
    return scenario.load()


def test_fixture_names_match(outputs, expected):
    assert sorted(outputs) == sorted(expected)


@pytest.mark.parametrize("name", sorted(scenario.load()))
def test_matches_golden(outputs, expected, name):
    np.testing.assert_allclose(outputs[name], expected[name], rtol=1e-9, atol=1e-12)
