"""GenDT computes in float32 (``repro.core.generator.COMPUTE_DTYPE``).

Ops follow their input's dtype, so the same code runs GenDT in float32 and
the baselines, gradient checks and references in float64.  The draws are
made in float64 and cast, so a float32 GenDT consumes the same RNG stream as
a float64 one and tracks it to the tolerances stated below (measured on a
2-core Xeon with OpenBLAS 0.3.31; each bound is several times the
measured deviation).
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis.graph import verify
from repro.baselines import MLPBaseline
from repro.core import GenDT, GenDTGenerator, mc_dropout_uncertainty, small_config
from repro.core import generator as generator_module
from repro.core.networks import ResGen
from repro.nn import lstm as lstm_module
from repro.nn.tensor import Tensor
from repro.serving import CampaignConfig, CampaignRunner
from tests.lstm_reference import reference_lstm_sequence

KPIS = ["rsrp", "rsrq"]
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _config():
    return small_config(
        epochs=1, hidden_size=8, resgen_hidden=(8, 8, 4), batch_len=20, train_step=10,
        max_cells=4,
    )


@pytest.fixture(scope="module")
def fitted(tiny_dataset_a, tiny_split):
    """{dtype: (model, history)}: one seed, one epoch, float32 and float64."""
    out = {}
    for dtype in (F32, F64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator_module, "COMPUTE_DTYPE", dtype)
            model = GenDT(tiny_dataset_a.region, kpis=KPIS, config=_config(), seed=3)
            out[dtype] = (model, model.fit(tiny_split.train))
    return out


# ----------------------------------------------------------------------
# The fused LSTM kernel
# ----------------------------------------------------------------------
def _lstm_arrays(seed=0, batch=3, steps=6, n_in=4, hidden=5):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(batch, steps, n_in)),
        rng.normal(size=(4 * hidden, n_in)) * 0.4,
        rng.normal(size=(4 * hidden, hidden)) * 0.4,
        rng.normal(size=(4 * hidden,)) * 0.2,
    ]


def _lstm_run(fn, arrays, dtype, noise_seed):
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    noise = nn.SRNNNoise(rng, 2.0, 1.5) if rng is not None else None
    hs = fn(*tensors, noise=noise)
    h = hs[:, -1, :]
    weights = np.random.default_rng(99)
    loss = (hs * Tensor(weights.normal(size=hs.shape).astype(dtype))).sum() + (h * h).sum()
    loss.backward()
    state = rng.bit_generator.state if rng is not None else None
    return hs.data, [t.grad for t in tensors], state


@pytest.mark.parametrize("noise_seed", [None, 7])
def test_lstm_sequence_float32_matches_float64_reference(noise_seed):
    # Forward: max |diff| measured 6.7e-8.  Gradients: max |diff| measured
    # 6.6e-7 of the input's largest gradient entry.
    arrays = _lstm_arrays()
    (out32, grads32, rng32) = _lstm_run(lstm_module.lstm_sequence, arrays, F32, noise_seed)
    (out64, grads64, rng64) = _lstm_run(reference_lstm_sequence, arrays, F64, noise_seed)
    assert rng32 == rng64
    assert out32.dtype == F32
    np.testing.assert_allclose(out32, out64, rtol=0, atol=1e-6)
    for name, got, want in zip(["x", "W_ih", "W_hh", "bias"], grads32, grads64):
        assert got.dtype == F32, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max(), err_msg=name)


def test_lstm_sequence_rejects_mixed_dtypes():
    tensors = [Tensor(a.astype(np.float32)) for a in _lstm_arrays()]
    tensors[3] = Tensor(tensors[3].data.astype(np.float64))
    with pytest.raises(ValueError, match="bias is float64, but x is float32"):
        lstm_module.lstm_sequence(*tensors)
    tensors = [Tensor(a) for a in _lstm_arrays()]
    tensors[1] = Tensor(tensors[1].data.astype(np.float32))
    with pytest.raises(ValueError, match="weight_ih is float32, but x is float64"):
        lstm_module.lstm_sequence(*tensors)


# ----------------------------------------------------------------------
# A CI-size GenDT, float32 against float64 from one seed
# ----------------------------------------------------------------------
def test_initial_weights_are_the_float64_ones_rounded():
    gens, states = {}, {}
    for dtype in (F32, F64):
        rng = np.random.default_rng(0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator_module, "COMPUTE_DTYPE", dtype)
            gens[dtype] = GenDTGenerator(2, 28, _config(), rng)
        states[dtype] = rng.bit_generator.state
    assert states[F32] == states[F64]
    for (name, p32), (_, p64) in zip(gens[F32].named_parameters(), gens[F64].named_parameters()):
        assert p32.data.dtype == F32 and p64.data.dtype == F64, name
        np.testing.assert_array_equal(p32.data, p64.data.astype(np.float32), err_msg=name)


def test_fit_loss_curve_matches_float64(fitted):
    # One epoch: max relative diff of the five loss terms measured 1.7e-6.
    (model32, hist32), (model64, hist64) = fitted[F32], fitted[F64]
    assert model32.rng.bit_generator.state == model64.rng.bit_generator.state
    for key in ("total", "mse", "adversarial", "discriminator", "nll"):
        np.testing.assert_allclose(getattr(hist32, key), getattr(hist64, key), rtol=2e-5, err_msg=key)
    assert model32.generator.dtype == F32 and model64.generator.dtype == F64
    assert {p.data.dtype for p in model32.trainer.discriminator.parameters()} == {F32}


@pytest.mark.parametrize("srnn,grad_tol", [(False, 1e-5), (True, 1e-2)])
def test_forward_teacher_forced_matches_float64(fitted, tiny_split, srnn, grad_tol):
    # Fresh generators, one batch.  Outputs: max |diff| measured 6.3e-7.
    # Gradients, as a fraction of each parameter's largest gradient entry:
    # 7.7e-7 without SRNN noise, 2.3e-3 with it, because the SRNN renormalization
    # divides by the noisy row sum of the state, which amplifies rounding
    # where that sum is near 0.
    model64 = fitted[F64][0]
    windows = model64.build_training_windows(tiny_split.train[:2])[:6]
    batch = model64._assembler().assemble(windows, with_target=True)
    config = _config()
    config.use_stochastic_layers = srnn
    results = {}
    for dtype in (F32, F64):
        rng = np.random.default_rng(21)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator_module, "COMPUTE_DTYPE", dtype)
            gen = GenDTGenerator(2, batch.env.shape[-1], config, rng)
        out = gen.forward_teacher_forced(batch, rng)
        target = Tensor(batch.target.astype(dtype))
        loss = nn.mse_loss(out["output"], target) + nn.mse_loss(out["base"], target)
        loss = loss + nn.gaussian_nll(out["mu"], out["log_sigma"], target - Tensor(out["base"].numpy()))
        loss.backward()
        results[dtype] = (out, dict(gen.named_parameters()), rng.bit_generator.state)
    (out32, params32, rng32), (out64, params64, rng64) = results[F32], results[F64]
    assert rng32 == rng64
    for key in ("h_avg", "base", "output", "mu", "log_sigma"):
        assert out32[key].data.dtype == F32, key
        np.testing.assert_allclose(out32[key].data, out64[key].data, rtol=0, atol=1e-5, err_msg=key)
    for name, param in params32.items():
        want = params64[name].grad
        assert param.grad.dtype == F32, name
        np.testing.assert_allclose(param.grad, want, rtol=0, atol=grad_tol * np.abs(want).max(), err_msg=name)


def test_generate_matches_float64(fitted, tiny_split):
    # The fitted weights differ by float32 rounding over one epoch; the
    # generated RSRP/RSRQ series max |diff| measured 1.1e-3 dB.
    (model32, _), (model64, _) = fitted[F32], fitted[F64]
    traj = tiny_split.test[0].trajectory.slice(0, 110)
    series = {}
    for model in (model32, model64):
        model.rng.bit_generator.state = np.random.default_rng(11).bit_generator.state
        series[model.generator.dtype] = model.generate(traj)
    assert model32.rng.bit_generator.state == model64.rng.bit_generator.state
    assert series[F32].dtype == F64  # physical units come back in float64
    np.testing.assert_allclose(series[F32], series[F64], rtol=0, atol=0.01)


# ----------------------------------------------------------------------
# Where float32 holds, and where float64 stays
# ----------------------------------------------------------------------
def test_every_array_on_the_gendt_path_is_float32(tiny_dataset_a, tiny_split, monkeypatch):
    seen = {}

    def note(where, array):
        seen.setdefault(np.asarray(array).dtype, set()).add(where)

    tensor_init, sequence, rollout = Tensor.__init__, lstm_module.lstm_sequence, ResGen.rollout

    def audited_init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        if not isinstance(self, nn.Parameter):  # initialised in float64, then cast
            note("Tensor", self.data)

    def audited_sequence(*args, **kwargs):
        hs = sequence(*args, **kwargs)
        for name, value in zip(["x", "weight_ih", "weight_hh", "bias"], args):
            note(f"lstm_sequence.{name}", getattr(value, "data", value))
        note("lstm_sequence.hs", hs.data)
        return hs

    def audited_rollout(self, env, base, state, *args, **kwargs):
        out = rollout(self, env, base, state, *args, **kwargs)
        for name, value in zip(["base", "state", "output", "new_state", "mu", "sigma"], (base, state, *out)):
            if value is not None:
                note(f"rollout.{name}", value)
        return out

    monkeypatch.setattr(Tensor, "__init__", audited_init)
    monkeypatch.setattr(lstm_module, "lstm_sequence", audited_sequence)
    monkeypatch.setattr(ResGen, "rollout", audited_rollout)

    model = GenDT(tiny_dataset_a.region, kpis=KPIS, config=_config(), seed=3)
    model.fit(tiny_split.train)
    routes = [r.trajectory.slice(0, 60) for r in tiny_split.test[:2]]
    outputs = [
        model.generate(routes[0]),
        model.generate_samples(routes[1], 2),
        *(e.series for e in CampaignRunner(model, config=CampaignConfig(seed=5)).run(routes).envelopes),
    ]
    estimate = mc_dropout_uncertainty(model, routes[0], n_passes=3)
    assert np.isfinite(estimate.model_uncertainty)
    assert set(seen) == {F32}, {dtype: sorted(where) for dtype, where in seen.items()}
    assert {"Tensor", "lstm_sequence.hs", "rollout.output"} <= seen[F32]
    assert all(series.dtype == F64 for series in outputs)
    modules = (model.generator, model.trainer.discriminator)
    assert {p.data.dtype for module in modules for p in module.parameters()} == {F32}


def test_baseline_parameters_stay_float64(tiny_dataset_a, tiny_split):
    baseline = MLPBaseline(tiny_dataset_a.region, kpis=KPIS, hidden=(8,), epochs=1, seed=0)
    baseline.fit(tiny_split.train[:2])
    assert {p.data.dtype for p in baseline.net.parameters()} == {F64}


def test_float64_checkpoint_loads_into_float32_model(fitted, tiny_dataset_a, tiny_split, tmp_path):
    model64 = fitted[F64][0]
    path = tmp_path / "f64.gendt"
    model64.save(path)
    model32 = GenDT.load(path, tiny_dataset_a.region, seed=3)
    assert {p.data.dtype for p in model32.generator.parameters()} == {F32}
    for (name, p32), (_, p64) in zip(
        model32.generator.named_parameters(), model64.generator.named_parameters()
    ):
        np.testing.assert_array_equal(p32.data, p64.data.astype(np.float32), err_msg=name)
    series = model32.generate(tiny_split.test[0].trajectory.slice(0, 60))
    assert np.all(np.isfinite(series))


def test_adam_state_loads_in_the_parameter_dtype():
    params64 = [nn.Parameter(np.ones(3))]
    adam64 = nn.Adam(params64, lr=0.1)
    params64[0].grad = np.full(3, 0.5)
    adam64.step()
    params32 = [nn.Parameter(np.ones(3, np.float32))]
    adam32 = nn.Adam(params32, lr=0.1)
    adam32.load_state_dict(adam64.state_dict())
    state = adam32.state_dict()
    assert state["m.0"].dtype == F32 and state["v.0"].dtype == F32


def test_graph_verification_runs_in_float32():
    gen = GenDTGenerator(2, 28, small_config(), np.random.default_rng(0))
    assert gen.dtype == F32
    assert verify(gen).ok  # float64 probes would be rejected by lstm_sequence
