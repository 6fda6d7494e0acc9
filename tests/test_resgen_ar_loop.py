"""The ResGen generation loop (``ResGen.rollout``) against its autodiff reference.

``GenDTGenerator.generate_batch`` runs the autoregressive ResGen loop on
ndarrays.  It must reproduce the Tensor loop of ``tests/resgen_reference.py``
bit for bit — outputs, ``(mu, sigma)`` and every draw from the call's
generator, with the AR state carried across windows — in every dropout
configuration, and still report NaNs under ``detect_anomaly``.
"""

import itertools

import numpy as np
import pytest

from repro.context.normalize import N_CELL_FEATURES
from repro.core import GenDTConfig, GenDTGenerator, networks, small_config
from repro.core.features import ModelBatch
from repro.nn import NumericalAnomalyError, detect_anomaly
from repro.nn.tensor import Tensor
from repro.world.attributes import N_ENV_ATTRIBUTES
from tests.resgen_reference import reference_generate_batch

N_ENV = 7
N_CH = 2
LENGTH = 9


def _generator(m: int, p: float, seed: int = 5) -> GenDTGenerator:
    """A small generator whose ResGen has AR window ``m`` and dropout ``p``."""
    config = small_config(hidden_size=6, resgen_hidden=(8, 8, 4), max_cells=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(networks, "RESGEN_AR_WINDOW", m)
        patch.setattr(networks, "RESGEN_DROPOUT", p)
        return GenDTGenerator(N_CH, N_ENV, config, np.random.default_rng(seed))


def _batch(
    b: int, seed: int = 11, length: int = LENGTH, n_env: int = N_ENV, n_cells: int = 3
) -> ModelBatch:
    rng = np.random.default_rng(seed)
    mask = np.ones((b, n_cells))
    mask[0, n_cells - 1] = 0.0
    return ModelBatch(
        cell_x=rng.normal(size=(b, n_cells, length, N_CELL_FEATURES)),
        cell_mask=mask,
        env=rng.normal(size=(b, length, n_env)),
        target=None,
    )


def _pair(m, p, training=True, force=False):
    """Two identically seeded generators in the same mode.

    ``force`` puts ResGen alone in training mode, as the MC-dropout probe
    does, so its dropout is on even when the generator is in eval mode.
    """
    pair = []
    for _ in range(2):
        gen = _generator(m, p)
        gen.train(training)
        if force:
            gen.resgen.train()
        pair.append(gen)
    return pair


def _streams(seed: int = 7):
    """Two identical generators, one per side of a comparison."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same(new, ref, rng_new, rng_ref):
    series_new, params_new = new
    series_ref, params_ref = ref
    assert np.array_equal(series_new, series_ref)
    if params_ref is None:
        assert params_new is None
    else:
        assert np.array_equal(params_new["mu"], params_ref["mu"])
        assert np.array_equal(params_new["sigma"], params_ref["sigma"])
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize(
    "b,m,p,training,force",
    list(itertools.product((1, 3), (1, 3), (0.0, 0.2), (True, False), (True, False))),
)
def test_rollout_bit_identical_to_reference(b, m, p, training, force):
    # b windows of one trajectory, two draws: the AR state chains the windows.
    gen_new, gen_ref = _pair(m, p, training, force)
    rng_new, rng_ref = _streams()
    batch = _batch(b)
    new = gen_new.generate_batch(batch, n_draws=2, collect_params=True, rng=rng_new)
    ref = reference_generate_batch(gen_ref, batch, n_draws=2, collect_params=True, rng=rng_ref)
    _assert_same(new, ref, rng_new, rng_ref)
    # A second call continues both RNG streams alike.
    new = gen_new.generate_batch(batch, n_draws=2, collect_params=True, rng=rng_new)
    ref = reference_generate_batch(gen_ref, batch, n_draws=2, collect_params=True, rng=rng_ref)
    _assert_same(new, ref, rng_new, rng_ref)


def test_dropout_layer_with_zero_p_draws_nothing():
    gen_new, gen_ref = _pair(3, 0.2)
    for gen in (gen_new, gen_ref):
        gen.resgen.mlp.dropout_layers[0].p = 0.0
    rng_new, rng_ref = _streams()
    batch = _batch(2)
    new = gen_new.generate_batch(batch, rng=rng_new)
    _assert_same(new, reference_generate_batch(gen_ref, batch, rng=rng_ref), rng_new, rng_ref)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"collect_params": False},
        # Tail window: the last window starts inside the one before it.
        {"starts": (0, LENGTH, 2 * LENGTH - 4), "collect_params": True},
        # No generator: the first stage alone, drawing nothing.
        {"rng": None},
        {"rng": None, "n_draws": 2},
        # Tail windows with fewer new samples (1, 2) than the AR window m=3.
        {"starts": (0, LENGTH, LENGTH + 1), "collect_params": True},
        {"starts": (0, LENGTH, LENGTH + 2), "collect_params": True},
    ],
)
def test_generate_batch_options_unchanged(kwargs):
    gen_new, gen_ref = _pair(3, 0.2)
    rng_new, rng_ref = _streams()
    batch = _batch(3)
    new = gen_new.generate_batch(batch, **{"rng": rng_new, **kwargs})
    ref = reference_generate_batch(gen_ref, batch, **{"rng": rng_ref, **kwargs})
    _assert_same(new, ref, rng_new, rng_ref)


@pytest.mark.parametrize("n_draws", (1, 2))
def test_short_windows_carry_the_state(n_draws):
    # Two tail windows in a row, rolling 2 and then 1 new samples (< m=3):
    # the state each returns still holds residuals of the windows before it.
    gen_new, gen_ref = _pair(3, 0.2)
    rng_new, rng_ref = _streams()
    batch = _batch(4)
    kwargs = {
        "starts": (0, LENGTH, LENGTH + 2, LENGTH + 3), "n_draws": n_draws, "collect_params": True
    }
    new = gen_new.generate_batch(batch, rng=rng_new, **kwargs)
    ref = reference_generate_batch(gen_ref, batch, rng=rng_ref, **kwargs)
    _assert_same(new, ref, rng_new, rng_ref)


def test_rollout_bit_identical_at_paper_size():
    # The ResGen every campaign request runs: GenDTConfig()'s (64, 64, 32)
    # MLP, m=3, dropout 0.2 active, 4 channels, all environment attributes,
    # float32; one window, one draw, two chained calls.
    config = GenDTConfig()
    gen_new, gen_ref = (
        GenDTGenerator(4, N_ENV_ATTRIBUTES, config, np.random.default_rng(5)) for _ in range(2)
    )
    assert config.resgen_hidden == (64, 64, 32) and gen_new.resgen.ar_window == 3
    (dropout,) = gen_new.resgen.mlp.dropout_layers
    assert dropout.training and dropout.p == 0.2
    assert gen_new.dtype == np.float32
    batch = _batch(1, length=config.batch_len, n_env=N_ENV_ATTRIBUTES, n_cells=config.max_cells)
    rng_new, rng_ref = _streams()
    for _ in range(2):
        new = gen_new.generate_batch(batch, collect_params=True, rng=rng_new)
        ref = reference_generate_batch(gen_ref, batch, collect_params=True, rng=rng_ref)
        _assert_same(new, ref, rng_new, rng_ref)


@pytest.mark.parametrize("b", (1, 3))
@pytest.mark.parametrize("p", (0.0, 0.2))
@pytest.mark.parametrize("training", (True, False))
def test_rollout_window_draws_what_teacher_forced_sample_draws(b, p, training):
    # One window of generation and one teacher-forced training batch over
    # the same [B, L] shape take the same draws from the generator.
    gen = _generator(3, p)
    gen.train(training)
    rng_roll, rng_sample = _streams()
    env = _batch(b).env.astype(gen.dtype)
    base = np.zeros((b, LENGTH, N_CH), gen.dtype)
    gen.resgen.rollout(env, base, np.zeros((b, 3, N_CH), gen.dtype), rng_roll)
    recent = np.zeros((b, LENGTH, 3 * N_CH), gen.dtype)
    gen.resgen.sample(Tensor(env), Tensor(recent), rng_sample)
    assert rng_roll.bit_generator.state == rng_sample.bit_generator.state


class _CountingGenerator:
    """Forwards ``normal`` and ``random`` to a generator, counting the calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.calls = 0

    def normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("length", (1, 2, LENGTH, 50))
@pytest.mark.parametrize("p, calls", [(0.2, 3), (0.0, 2)])
def test_rollout_makes_three_generator_calls_per_window(length, p, calls):
    gen = _generator(3, p)
    rng = _CountingGenerator(np.random.default_rng(0))
    env = _batch(2, length=length).env.astype(gen.dtype)
    base = np.zeros((2, length, N_CH), gen.dtype)
    gen.resgen.rollout(env, base, np.zeros((2, 3, N_CH), gen.dtype), rng)
    assert rng.calls == calls


def test_rollout_builds_no_tensors(monkeypatch):
    gen = _generator(3, 0.2)
    base = np.zeros((2, LENGTH, N_CH))
    created = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    rng = np.random.default_rng(0)
    gen.resgen.rollout(_batch(2).env, base, np.zeros((2, 3, N_CH)), rng, collect_params=True)
    assert created == []


class TestAnomalyDetection:
    def test_nan_weight_raises_naming_resgen(self):
        gen = _generator(3, 0.2)
        gen.resgen.mlp.net.layer0.weight.data[0, 0] = np.nan
        batch = _batch(1)
        out, _ = gen.generate_batch(batch, rng=np.random.default_rng(0))  # off: silent
        assert np.isnan(out).any()
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as excinfo:
                gen.generate_batch(batch, rng=np.random.default_rng(0))
        err = excinfo.value
        assert err.op.startswith("ResGen.rollout")
        assert err.phase == "forward"
        assert "ResGen" in err.module_chain
        assert "ResGen" in str(err)

    def test_check_does_not_perturb_output(self):
        gen_off, gen_on = _pair(3, 0.2)
        rng_off, rng_on = _streams()
        batch = _batch(3)
        off = gen_off.generate_batch(batch, collect_params=True, rng=rng_off)
        with detect_anomaly():
            on = gen_on.generate_batch(batch, collect_params=True, rng=rng_on)
        _assert_same(on, off, rng_on, rng_off)

    def test_generate_raises_on_planted_nan(self, trained_gendt, tiny_split):
        weight = trained_gendt.generator.resgen.mlp.net.layer0.weight
        saved = weight.data.copy()
        weight.data[0, 0] = np.nan
        try:
            with detect_anomaly():
                with pytest.raises(NumericalAnomalyError) as excinfo:
                    trained_gendt.generate(tiny_split.test[0].trajectory)
        finally:
            weight.data = saved
        assert "ResGen" in str(excinfo.value)


def test_fitted_model_dropout_stays_in_training_mode(trained_gendt):
    # Characterization, not a contract: nothing in src/ calls Module.eval(),
    # so ResGen's dropout is active at generation and the MC-dropout probe's
    # switch to training mode changes nothing.  See ROADMAP item 3(a); the
    # fix moves the generation RNG stream and is left to a later change.
    layers = trained_gendt.generator.resgen.mlp.dropout_layers
    assert layers
    assert all(layer.training for layer in layers)
