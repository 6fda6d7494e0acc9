"""Layer behaviour: Linear, LeakyReLU, Dropout (incl. MC-dropout), MLP."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def layer_rng():
    return np.random.default_rng(2)


class TestLinear:
    def test_output_shape(self, layer_rng):
        layer = nn.Linear(5, 3, layer_rng)
        out = layer(nn.Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_matches_manual_affine(self, layer_rng):
        layer = nn.Linear(4, 2, layer_rng)
        x = layer_rng.normal(size=(3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).numpy(), expected)

    def test_3d_input(self, layer_rng):
        layer = nn.Linear(4, 2, layer_rng)
        out = layer(nn.Tensor(np.ones((5, 6, 4))))
        assert out.shape == (5, 6, 2)

    def test_gradients_flow(self, layer_rng):
        layer = nn.Linear(3, 1, layer_rng)
        loss = layer(nn.Tensor(np.ones((2, 3)))).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestDropout:
    def test_identity_in_eval(self, layer_rng):
        drop = nn.Dropout(0.5)
        drop.eval()
        x = np.ones((100,))
        np.testing.assert_allclose(drop(nn.Tensor(x), layer_rng).numpy(), x)

    def test_zeroes_in_train(self, layer_rng):
        drop = nn.Dropout(0.5)
        out = drop(nn.Tensor(np.ones(1000)), layer_rng).numpy()
        zero_fraction = (out == 0).mean()
        assert 0.35 < zero_fraction < 0.65

    def test_inverted_scaling_preserves_mean(self, layer_rng):
        drop = nn.Dropout(0.3)
        out = drop(nn.Tensor(np.ones(20000)), layer_rng).numpy()
        assert abs(out.mean() - 1.0) < 0.05

    def test_train_after_eval_turns_dropout_back_on(self, layer_rng):
        drop = nn.Dropout(0.5)
        drop.eval()
        drop.train()
        out = drop(nn.Tensor(np.ones(1000)), layer_rng).numpy()
        assert (out == 0).any()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)

    def test_no_generator_is_identity(self):
        drop = nn.Dropout(0.5)
        x = np.ones(10)
        np.testing.assert_array_equal(drop(nn.Tensor(x)).numpy(), x)

    def test_p_zero_is_identity(self, layer_rng):
        drop = nn.Dropout(0.0)
        x = np.ones(10)
        np.testing.assert_allclose(drop(nn.Tensor(x), layer_rng).numpy(), x)


class TestActivationModules:
    def test_leaky_relu_module(self):
        act = nn.LeakyReLU(0.1)
        out = act(nn.Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.numpy(), [-0.1, 2.0])


class TestSequentialAndMLP:
    def test_sequential_order(self, layer_rng):
        seq = nn.Sequential(nn.Linear(3, 3, layer_rng), nn.LeakyReLU(), nn.Linear(3, 1, layer_rng))
        assert len(seq) == 3
        out = seq(nn.Tensor(np.ones((2, 3))))
        assert out.shape == (2, 1)

    def test_mlp_shapes(self, layer_rng):
        mlp = nn.MLP(6, [8, 8], 2, layer_rng, dropout=0.1)
        out = mlp(nn.Tensor(np.ones((4, 6))))
        assert out.shape == (4, 2)

    def test_mlp_dropout_layers_property(self, layer_rng):
        mlp = nn.MLP(3, [4], 1, layer_rng, dropout=0.2)
        assert len(mlp.dropout_layers) == 1
        mlp_no = nn.MLP(3, [4], 1, layer_rng, dropout=0.0)
        assert len(mlp_no.dropout_layers) == 0

    def test_mlp_can_fit_xor_like_function(self, layer_rng):
        # Nonlinear target needs the hidden layer to work.
        mlp = nn.MLP(2, [16], 1, layer_rng)
        x = layer_rng.normal(size=(256, 2))
        y = (np.sign(x[:, 0] * x[:, 1]))[:, None]
        opt = nn.Adam(mlp.parameters(), lr=1e-2)
        for _ in range(200):
            loss = nn.mse_loss(mlp(nn.Tensor(x)), nn.Tensor(y))
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.35
