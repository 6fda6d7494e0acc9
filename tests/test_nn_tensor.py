"""Autodiff engine tests: op correctness by numerical gradient checking."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, concat, stack, where


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn of one array."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, tol: float = 1e-5) -> None:
    """Compare autodiff grad of ``build(tensor)`` against finite differences."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    analytic = t.grad
    numeric = numerical_grad(lambda arr: build(Tensor(arr, requires_grad=True)).item(), x)
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=tol)


@pytest.fixture
def x(rng):
    return rng.normal(size=(3, 4))


class TestArithmetic:
    def test_add_grad(self, x):
        check_grad(lambda t: (t + 2.0).sum(), x)

    def test_mul_grad(self, x):
        check_grad(lambda t: (t * t).sum(), x)

    def test_sub_grad(self, x):
        check_grad(lambda t: (t - 3.0 * t).sum(), x)

    def test_div_grad(self, x):
        check_grad(lambda t: (t / (t * t + 2.0)).sum(), x)

    def test_pow_grad(self, x):
        check_grad(lambda t: ((t * t + 1.0) ** 1.5).sum(), x)

    def test_neg_grad(self, x):
        check_grad(lambda t: (-t * 2.0).sum(), x)

    def test_radd_rmul(self, x):
        t = Tensor(x, requires_grad=True)
        out = (1.0 + t) * 2.0
        np.testing.assert_allclose(out.numpy(), (1.0 + x) * 2.0)

    def test_rsub_rdiv(self, x):
        t = Tensor(np.abs(x) + 1.0, requires_grad=True)
        out = 1.0 - t
        np.testing.assert_allclose(out.numpy(), 1.0 - (np.abs(x) + 1.0))
        out2 = 1.0 / t
        np.testing.assert_allclose(out2.numpy(), 1.0 / (np.abs(x) + 1.0))

    def test_broadcast_add_grad(self, rng):
        a = rng.normal(size=(3, 4))
        bias = rng.normal(size=(4,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(bias, requires_grad=True)
        ((ta + tb) * 2.0).sum().backward()
        np.testing.assert_allclose(ta.grad, np.full((3, 4), 2.0))
        np.testing.assert_allclose(tb.grad, np.full(4, 6.0))

    def test_broadcast_mul_grad(self, rng):
        a = rng.normal(size=(2, 3))
        scale = rng.normal(size=(1, 3))
        ta = Tensor(a, requires_grad=True)
        ts = Tensor(scale, requires_grad=True)
        (ta * ts).sum().backward()
        np.testing.assert_allclose(ta.grad, np.broadcast_to(scale, (2, 3)))
        np.testing.assert_allclose(ts.grad, a.sum(axis=0, keepdims=True))


class TestMatmul:
    def test_matmul_grad_left(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grad(lambda t: t.matmul(Tensor(b)).sum(), a)

    def test_matmul_grad_right(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grad(lambda t: Tensor(a).matmul(t).sum(), b)

    def test_batched_matmul(self, rng):
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        out = ta.matmul(Tensor(b, requires_grad=True))
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert ta.grad.shape == a.shape


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op",
        ["tanh", "sigmoid", "relu", "exp", "abs"],
    )
    def test_unary_grads(self, op, rng):
        x = rng.normal(size=(3, 3)) + 0.1  # avoid relu/abs kinks at 0
        check_grad(lambda t: getattr(t, op)().sum(), x)

    def test_log_grad(self, rng):
        x = np.abs(rng.normal(size=(3, 3))) + 0.5
        check_grad(lambda t: t.log().sum(), x)

    def test_leaky_relu_values(self):
        t = Tensor(np.array([-2.0, 0.5]))
        out = t.leaky_relu(0.1)
        np.testing.assert_allclose(out.numpy(), [-0.2, 0.5])

    def test_leaky_relu_grad(self, rng):
        x = rng.normal(size=(4,)) + 0.05
        check_grad(lambda t: t.leaky_relu(0.2).sum(), x)

    def test_clip_grad_zero_outside(self):
        t = Tensor(np.array([-5.0, 0.0, 5.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_saturation_is_finite(self):
        t = Tensor(np.array([1e4, -1e4]), requires_grad=True)
        out = t.sigmoid()
        assert np.all(np.isfinite(out.numpy()))
        np.testing.assert_allclose(out.numpy(), [1.0, 0.0], atol=1e-12)


class TestReductions:
    def test_sum_axis_grad(self, rng):
        x = rng.normal(size=(3, 4))
        check_grad(lambda t: (t.sum(axis=0) ** 2).sum(), x)

    def test_sum_keepdims(self, rng):
        x = rng.normal(size=(3, 4))
        t = Tensor(x)
        assert t.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_grad(self, rng):
        x = rng.normal(size=(5,))
        check_grad(lambda t: (t.mean() ** 2), x)

    def test_mean_axis_matches_numpy(self, rng):
        x = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(Tensor(x).mean(axis=2).numpy(), x.mean(axis=2))


class TestShapes:
    def test_reshape_grad(self, rng):
        x = rng.normal(size=(2, 6))
        check_grad(lambda t: (t.reshape(3, 4) ** 2).sum(), x)

    def test_transpose_grad(self, rng):
        x = rng.normal(size=(2, 3))
        check_grad(lambda t: (t.T.matmul(Tensor(np.ones((2, 2))))).sum(), x)

    def test_transpose_axes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x, requires_grad=True)
        out = t.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert t.grad.shape == x.shape

    def test_getitem_grad(self, rng):
        x = rng.normal(size=(4, 5))
        t = Tensor(x, requires_grad=True)
        (t[1:3, :] * 2.0).sum().backward()
        expected = np.zeros_like(x)
        expected[1:3, :] = 2.0
        np.testing.assert_allclose(t.grad, expected)

    def test_concat_grad(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        concat([ta, tb], axis=1).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.ones_like(b))

    def test_stack_grad(self, rng):
        parts = [Tensor(rng.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        out = stack(parts, axis=0)
        assert out.shape == (4, 3)
        (out * 2.0).sum().backward()
        for p in parts:
            np.testing.assert_allclose(p.grad, np.full(3, 2.0))

    def test_where_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestBackwardMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * t + t).backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 3.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.grad, [3.0, 6.0, 9.0])

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(1)).backward()

    def test_no_grad_context(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with nn.no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert (t * 2.0).requires_grad

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        np.testing.assert_allclose(d.numpy(), t.numpy())

    def test_deep_chain_no_recursion_error(self):
        # Backward is iterative, so very deep graphs must not blow the stack.
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert t.grad is not None and np.isfinite(t.grad[0])

    def test_composite_gradient_check(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))

        def build(t):
            h = t.matmul(Tensor(w)).tanh()
            return (h * h).mean() + t.sigmoid().sum() * 0.1

        check_grad(build, x)
