"""Module container, parameter registration, state-dict round trips."""

import numpy as np
import pytest

from repro import nn


def make_rng():
    return np.random.default_rng(0)


class TwoLayer(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng)
        self.fc2 = nn.Linear(8, 2, rng)
        self.gain = nn.Parameter(np.ones(2))

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh()) * self.gain


class TestParameterRegistration:
    def test_parameters_collected_recursively(self):
        model = TwoLayer(make_rng())
        names = dict(model.named_parameters())
        assert set(names) == {
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "gain",
        }

    def test_parameter_always_requires_grad(self):
        param = nn.Parameter(np.zeros(3))
        assert param.requires_grad

    def test_modules_iteration(self):
        model = TwoLayer(make_rng())
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Linear") == 2


class TestModes:
    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2, make_rng()), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = TwoLayer(make_rng())
        out = model(nn.Tensor(np.ones((3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_round_trip(self):
        rng = make_rng()
        model_a = TwoLayer(rng)
        model_b = TwoLayer(np.random.default_rng(99))
        x = np.ones((2, 4))
        out_a = model_a(nn.Tensor(x)).numpy()
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(model_b(nn.Tensor(x)).numpy(), out_a)

    def test_state_dict_is_a_copy(self):
        model = TwoLayer(make_rng())
        state = model.state_dict()
        state["gain"][:] = 123.0
        assert not np.allclose(model.gain.data, 123.0)

    def test_missing_key_raises(self):
        model = TwoLayer(make_rng())
        state = model.state_dict()
        del state["gain"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = TwoLayer(make_rng())
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = TwoLayer(make_rng())
        state = model.state_dict()
        state["gain"] = np.zeros(5)
        with pytest.raises(ValueError):
            model.load_state_dict(state)
