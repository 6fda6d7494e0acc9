"""LSTM cell/sequence module tests."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def lstm_rng():
    return np.random.default_rng(3)


class TestLSTMCell:
    def test_step_shapes(self, lstm_rng):
        cell = nn.LSTMCell(4, 8, lstm_rng)
        h, c = cell.zero_state(3)
        h2, c2 = cell(nn.Tensor(np.ones((3, 4))), (h, c))
        assert h2.shape == (3, 8)
        assert c2.shape == (3, 8)

    def test_forget_bias_initialized_to_one(self, lstm_rng):
        cell = nn.LSTMCell(4, 8, lstm_rng)
        np.testing.assert_allclose(cell.bias.data[8:16], 1.0)

    def test_hidden_bounded_by_tanh(self, lstm_rng):
        cell = nn.LSTMCell(2, 4, lstm_rng)
        h, c = cell.zero_state(1)
        for _ in range(20):
            h, c = cell(nn.Tensor(np.full((1, 2), 10.0)), (h, c))
        assert np.all(np.abs(h.numpy()) <= 1.0)

    def test_zero_state_is_independent(self, lstm_rng):
        cell = nn.LSTMCell(2, 4, lstm_rng)
        h1, c1 = cell.zero_state(1)
        h1.data[:] = 5.0
        h2, _ = cell.zero_state(1)
        assert np.all(h2.numpy() == 0.0)


class TestLSTMSequence:
    def test_output_shape(self, lstm_rng):
        lstm = nn.LSTM(3, 6, lstm_rng)
        out, (h, c) = lstm(nn.Tensor(np.ones((2, 5, 3))))
        assert out.shape == (2, 5, 6)
        assert h.shape == c.shape == (2, 6)

    def test_gradients_reach_all_parameters(self, lstm_rng):
        lstm = nn.LSTM(2, 4, lstm_rng)
        out, _ = lstm(nn.Tensor(np.ones((1, 6, 2))))
        out.sum().backward()
        for name, param in lstm.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0), name


class _Regressor(nn.Module):
    """LSTM followed by a per-step linear head: ``[B,T,in] -> [B,T,out]``."""

    def __init__(self, rng):
        super().__init__()
        self.lstm = nn.LSTM(1, 16, rng)
        self.head = nn.Linear(16, 1, rng)

    def forward(self, x):
        hidden, _ = self.lstm(x)
        return self.head(hidden)


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
