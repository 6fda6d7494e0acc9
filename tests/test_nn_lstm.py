"""``nn.LSTM`` module tests."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def lstm_rng():
    return np.random.default_rng(3)


class TestLSTMCell:
    """Properties of one step of ``nn.LSTM``: its gates and its state."""

    def test_forget_bias_initialized_to_one(self, lstm_rng):
        lstm = nn.LSTM(4, 8, lstm_rng)
        np.testing.assert_allclose(lstm.bias.data[8:16], 1.0)

    def test_hidden_bounded_by_tanh(self, lstm_rng):
        lstm = nn.LSTM(2, 4, lstm_rng)
        out = lstm(nn.Tensor(np.full((1, 20, 2), 10.0)))
        assert np.all(np.abs(out.numpy()) <= 1.0)

    def test_zero_state_is_independent(self, lstm_rng):
        # Every call starts from the zero state: nothing carries over from
        # an earlier call, and the first step is the cell applied to zeros.
        lstm = nn.LSTM(2, 4, lstm_rng)
        x = lstm_rng.normal(size=(1, 3, 2))
        first = lstm(nn.Tensor(x)).numpy()
        lstm(nn.Tensor(np.full((1, 3, 2), 5.0)))
        np.testing.assert_array_equal(lstm(nn.Tensor(x)).numpy(), first)
        one_step = lstm(nn.Tensor(x[:, :1])).numpy()
        np.testing.assert_allclose(one_step, first[:, :1], rtol=0, atol=1e-12)


class TestLSTMSequence:
    def test_output_shape(self, lstm_rng):
        lstm = nn.LSTM(3, 6, lstm_rng)
        out = lstm(nn.Tensor(np.ones((2, 5, 3))))
        assert out.shape == (2, 5, 6)

    def test_gradients_reach_all_parameters(self, lstm_rng):
        lstm = nn.LSTM(2, 4, lstm_rng)
        out = lstm(nn.Tensor(np.ones((1, 6, 2))))
        out.sum().backward()
        for name, param in lstm.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0), name

    def test_rng_without_srnn_draws_nothing(self, lstm_rng):
        lstm = nn.LSTM(2, 4, lstm_rng)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        x = nn.Tensor(np.ones((2, 6, 2)))
        np.testing.assert_array_equal(lstm(x, rng).numpy(), lstm(x).numpy())
        assert rng.bit_generator.state == state


class _Regressor(nn.Module):
    """LSTM followed by a per-step linear head: ``[B,T,in] -> [B,T,out]``."""

    def __init__(self, rng):
        super().__init__()
        self.lstm = nn.LSTM(1, 16, rng)
        self.head = nn.Linear(16, 1, rng)

    def forward(self, x):
        return self.head(self.lstm(x))


class TestLSTMLearning:
    def test_learns_running_mean(self, lstm_rng):
        model = _Regressor(lstm_rng)
        opt = nn.Adam(model.parameters(), lr=1e-2)
        x = lstm_rng.normal(size=(8, 15, 1))
        y = np.cumsum(x, axis=1) / np.arange(1, 16)[None, :, None]
        for _ in range(120):
            loss = nn.mse_loss(model(nn.Tensor(x)), nn.Tensor(y))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.05

    def test_learns_lagged_copy(self, lstm_rng):
        # y_t = x_{t-1}: pure memory task.
        model = _Regressor(lstm_rng)
        opt = nn.Adam(model.parameters(), lr=1e-2)
        x = lstm_rng.normal(size=(16, 10, 1))
        y = np.concatenate([np.zeros((16, 1, 1)), x[:, :-1]], axis=1)
        for _ in range(150):
            loss = nn.mse_loss(model(nn.Tensor(x)), nn.Tensor(y))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.1
