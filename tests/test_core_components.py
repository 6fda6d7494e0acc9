"""GenDT core components: config, stochastic LSTM, networks, features."""

import numpy as np
import pytest

from repro.context.normalize import N_CELL_FEATURES
from repro.core import (
    GenDTConfig,
    ModelBatch,
    recent_values_matrix,
    small_config,
)
from repro.core.networks import (
    RESGEN_AR_WINDOW,
    AggregationNetwork,
    Discriminator,
    GnnNodeNetwork,
    ResGen,
)
from repro import nn


class TestConfig:
    def test_paper_defaults(self):
        config = GenDTConfig()
        assert config.batch_len == 50
        assert config.train_step == 5
        assert config.hidden_size == 100
        assert config.noise_intensity_h == 2.0
        assert config.lambda_adv == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            GenDTConfig(batch_len=1).validate()
        with pytest.raises(ValueError):
            GenDTConfig(train_step=0).validate()
        with pytest.raises(ValueError):
            GenDTConfig(lambda_adv=-1.0).validate()

    def test_one_shot_allowed(self):
        GenDTConfig(batch_len=None).validate()

    def test_small_config_overrides(self):
        config = small_config(epochs=2, hidden_size=10)
        assert config.epochs == 2
        assert config.hidden_size == 10

    def test_small_config_rejects_unknown(self):
        with pytest.raises(AttributeError):
            small_config(bogus=1)


class TestStochasticLSTM:
    """``nn.LSTM`` with SRNN noise (``srnn=(a_h, a_c)``), GenDT's stochastic layer."""

    def test_shapes(self, rng):
        lstm = nn.LSTM(3, 8, rng, srnn=(2.0, 2.0))
        out = lstm(nn.Tensor(np.ones((2, 5, 3))), rng)
        assert out.shape == (2, 5, 8)

    def test_stochastic_runs_differ(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 6, rng, srnn=(2.0, 2.0))
        x = nn.Tensor(np.ones((1, 10, 2)))
        out1 = lstm(x, rng)
        out2 = lstm(x, rng)
        assert not np.allclose(out1.numpy(), out2.numpy())

    def test_deterministic_when_disabled(self):
        # use_stochastic_layers=False builds G_a's LSTM without SRNN noise:
        # given a generator, it draws nothing from it.
        rng = np.random.default_rng(0)
        config = small_config(hidden_size=6, use_stochastic_layers=False)
        net = AggregationNetwork(2, config, rng)
        x = nn.Tensor(np.ones((1, 10, 6)))
        state = rng.bit_generator.state
        out1 = net(x, rng)
        out2 = net(x, rng)
        np.testing.assert_allclose(out1.numpy(), out2.numpy())
        assert rng.bit_generator.state == state

    def test_override_flag(self):
        # A stochastic layer given no generator draws no noise.
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 6, rng, srnn=(2.0, 2.0))
        x = nn.Tensor(np.ones((1, 10, 2)))
        out1 = lstm(x)
        out2 = lstm(x)
        np.testing.assert_array_equal(out1.numpy(), out2.numpy())

    def test_gradients_flow_through_noise(self):
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 4, rng, srnn=(2.0, 2.0))
        out = lstm(nn.Tensor(np.ones((1, 5, 2))), rng)
        out.sum().backward()
        for name, param in lstm.named_parameters():
            assert param.grad is not None, name

    def test_intensity_zero_close_to_plain(self):
        # Intensity 0 still draws the noise (Appendix A.3's a = 0 row), but
        # adds none of it.
        rng = np.random.default_rng(0)
        lstm = nn.LSTM(2, 4, rng, srnn=(0.0, 0.0))
        x = nn.Tensor(np.ones((1, 8, 2)))
        state = rng.bit_generator.state
        noisy = lstm(x, rng)
        assert rng.bit_generator.state != state
        plain = lstm(x)
        np.testing.assert_allclose(noisy.numpy(), plain.numpy(), atol=1e-9)


def _config(**kw):
    return small_config(hidden_size=10, **kw)


class TestNetworks:
    def test_gnn_node_shapes(self, rng):
        net = GnnNodeNetwork(N_CELL_FEATURES, _config(), rng)
        out = net(nn.Tensor(np.ones((6, 12, N_CELL_FEATURES))))
        assert out.shape == (6, 12, 10)

    def test_aggregation_shapes(self, rng):
        net = AggregationNetwork(3, _config(), rng)
        out = net(nn.Tensor(np.ones((2, 12, 10))))
        assert out.shape == (2, 12, 3)

    def test_resgen_distribution_shapes(self, rng):
        config = _config()
        net = ResGen(26, 2, config, rng)
        env = nn.Tensor(np.ones((4, 26)))
        recent = nn.Tensor(np.ones((4, RESGEN_AR_WINDOW * 2)))
        _, mu, log_sigma = net.sample(env, recent)
        assert mu.shape == (4, 2)
        assert log_sigma.shape == (4, 2)
        assert np.all(log_sigma.numpy() <= 2.0)

    def test_resgen_sample_stochastic(self, rng):
        config = _config()
        net = ResGen(26, 2, config, rng)
        env = nn.Tensor(np.ones((4, 26)))
        recent = nn.Tensor(np.zeros((4, RESGEN_AR_WINDOW * 2)))
        r1, _, _ = net.sample(env, recent, rng)
        r2, _, _ = net.sample(env, recent, rng)
        assert not np.allclose(r1.numpy(), r2.numpy())

    def test_resgen_force_dropout(self, rng):
        # The MC-dropout probe forces dropout on by putting ResGen in training mode.
        net = ResGen(26, 1, _config(), rng)
        net.eval()
        assert not any(layer.training for layer in net.mlp.dropout_layers)
        net.train()
        assert all(layer.training for layer in net.mlp.dropout_layers)

    def test_discriminator_logit_shape(self, rng):
        config = _config()
        net = Discriminator(2, config, rng)
        logits = net(nn.Tensor(np.ones((3, 12, 2))), nn.Tensor(np.ones((3, 12, 10))))
        assert logits.shape == (3, 1)


class TestRecentValuesMatrix:
    def test_teacher_forcing_layout(self):
        series = np.arange(12, dtype=float).reshape(1, 6, 2)
        out = recent_values_matrix(series, ar_window=2)
        assert out.shape == (1, 6, 4)
        # t=0 sees only the zero initial state.
        np.testing.assert_allclose(out[0, 0], 0.0)
        # t=2 sees x[0], x[1].
        np.testing.assert_allclose(out[0, 2], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("with_initial", [False, True])
    @pytest.mark.parametrize("length, m", [(6, 2), (3, 3), (2, 4), (1, 1), (50, 3)])
    def test_equals_per_step_loop(self, length, m, with_initial):
        # with_initial: values preceding the window are prepended to the
        # series, and the rows of the prefix are dropped from the result.
        rng = np.random.default_rng(length * 10 + m)
        series = rng.normal(size=(3, length, 2))
        initial = rng.normal(size=(3, m, 2)) if with_initial else np.zeros((3, m, 2))
        padded = np.concatenate([initial, series], axis=1)
        expected = np.empty((3, length, m * 2))
        for t in range(length):
            expected[:, t] = padded[:, t : t + m].reshape(3, m * 2)
        if with_initial:
            out = recent_values_matrix(padded, m)[:, m:]
        else:
            out = recent_values_matrix(series, m)
        np.testing.assert_array_equal(out, expected)
        if not with_initial:
            assert out.flags.writeable and out.flags.c_contiguous
