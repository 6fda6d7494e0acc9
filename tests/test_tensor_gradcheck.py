"""Finite-difference gradcheck for every differentiable op in repro.nn.tensor.

This suite does two things:

* checks each op's analytic backward against a central-difference numeric
  gradient, and
* derives the list of node-building ops from the engine's own source (every
  public ``Tensor`` method and module function that calls ``_make(``) and
  asserts each has a gradcheck case, so a new op without a gradient test
  fails loudly.

Inputs are chosen away from kinks (relu/abs at 0, clip at its bounds) so
the central difference is valid.  ``lstm_sequence`` runs with its SRNN noise
on; its gradient holds the noise amplitude and the renormalizing
denominator constant, so its central difference is taken of the composite
reference with those values frozen at the checked point.
"""

import inspect

import numpy as np
import pytest

from repro.nn import SRNNNoise, lstm_sequence
from repro.nn import lstm as lstm_module
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor, concat, no_grad, stack, where
from tests.lstm_reference import reference_lstm_sequence

EPS = 1e-6
ATOL = 1e-4
RTOL = 1e-4

# Fixed boolean mask for the `where` case (shape (2, 3)).
_WHERE_COND = np.array([[True, False, True], [False, True, False]])


def _weights(shape):
    """Deterministic non-uniform loss weights so gradcheck isn't just sum()."""
    n = int(np.prod(shape, dtype=int))
    return (np.arange(n, dtype=np.float64) * 0.173 + 0.31).reshape(shape)


def _smooth(shape, seed, lo=-1.5, hi=1.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def _away_from_zero(shape, seed, margin=0.25):
    """Values with |x| >= margin — safe for relu/abs/leaky_relu kinks."""
    data = _smooth(shape, seed)
    return np.where(data >= 0, data + margin, data - margin)


def _positive(shape, seed, lo=0.3, hi=2.0):
    return _smooth(shape, seed, lo, hi)


class Case:
    def __init__(self, make_inputs, fn, frozen_fn=None):
        self.make_inputs = make_inputs
        self.fn = fn
        # frozen_fn(arrays) -> the function whose central difference at
        # ``arrays`` is the op's gradient; ``fn`` itself unless the op holds
        # some data-dependent values constant.
        self.frozen_fn = frozen_fn or (lambda arrays: fn)


def _lstm_inputs():
    """(x [2,3,2], weight_ih [12,2], weight_hh [12,3], bias [12])."""
    shapes = [(2, 3, 2), (12, 2), (12, 3), (12,)]
    return [_smooth(shape, 35 + k) for k, shape in enumerate(shapes)]


def _lstm_noise():
    # A fresh generator per call: every evaluation draws the same noise.
    return SRNNNoise(np.random.default_rng(42), 2.0, 2.0)


def _frozen_lstm(arrays):
    frozen = []
    with no_grad():
        reference_lstm_sequence(*[Tensor(a) for a in arrays], noise=_lstm_noise(), frozen=frozen)
    return lambda *ts: reference_lstm_sequence(*ts, noise=_lstm_noise(), frozen=frozen)


CASES = {
    "add": Case(
        lambda: [_smooth((2, 3), 1), _smooth((3,), 2)],
        lambda a, b: a + b,
    ),
    "neg": Case(lambda: [_smooth((2, 3), 3)], lambda a: -a),
    "sub": Case(
        lambda: [_smooth((2, 3), 4), _smooth((1, 3), 5)],
        lambda a, b: a - b,
    ),
    "mul": Case(
        lambda: [_smooth((2, 3), 6), _smooth((2, 1), 7)],
        lambda a, b: a * b,
    ),
    "div": Case(
        lambda: [_smooth((2, 3), 8), _positive((3,), 9)],
        lambda a, b: a / b,
    ),
    "pow": Case(lambda: [_positive((2, 3), 10)], lambda a: a**1.7),
    "sqrt": Case(lambda: [_positive((2, 3), 11)], lambda a: a.sqrt()),
    "matmul": Case(
        lambda: [_smooth((2, 3), 12), _smooth((3, 4), 13)],
        lambda a, b: a @ b,
    ),
    "exp": Case(lambda: [_smooth((2, 3), 14)], lambda a: a.exp()),
    "log": Case(lambda: [_positive((2, 3), 15)], lambda a: a.log()),
    "tanh": Case(lambda: [_smooth((2, 3), 16)], lambda a: a.tanh()),
    "sigmoid": Case(lambda: [_smooth((2, 3), 17)], lambda a: a.sigmoid()),
    "relu": Case(lambda: [_away_from_zero((2, 3), 18)], lambda a: a.relu()),
    "leaky_relu": Case(
        lambda: [_away_from_zero((2, 3), 19)],
        lambda a: a.leaky_relu(negative_slope=0.1),
    ),
    "abs": Case(lambda: [_away_from_zero((2, 3), 21)], lambda a: a.abs()),
    "clip": Case(
        # Data in (-1.5, 1.5) minus (-0.1, 0.1); bounds at ±0.9 leave every
        # sample at least 0.15 from a clip kink for seed 22.
        lambda: [_away_from_zero((2, 3), 22)],
        lambda a: a.clip(-0.9, 0.9),
    ),
    "sum": Case(lambda: [_smooth((2, 3, 4), 23)], lambda a: a.sum(axis=1)),
    "mean": Case(
        lambda: [_smooth((2, 3, 4), 24)],
        lambda a: a.mean(axis=0),
    ),
    "reshape": Case(lambda: [_smooth((2, 6), 26)], lambda a: a.reshape(3, 4)),
    "transpose": Case(
        lambda: [_smooth((2, 3, 4), 27)], lambda a: a.transpose(2, 0, 1)
    ),
    "getitem": Case(lambda: [_smooth((4, 5), 28)], lambda a: a[1:3, ::2]),
    "concat": Case(
        lambda: [_smooth((2, 3), 29), _smooth((2, 2), 30)],
        lambda a, b: concat([a, b], axis=1),
    ),
    "stack": Case(
        lambda: [_smooth((2, 3), 31), _smooth((2, 3), 32)],
        lambda a, b: stack([a, b], axis=1),
    ),
    "where": Case(
        lambda: [_smooth((2, 3), 33), _smooth((2, 3), 34)],
        lambda a, b: where(_WHERE_COND, a, b),
    ),
    "lstm_sequence": Case(
        _lstm_inputs,
        lambda *ts: lstm_sequence(*ts, noise=_lstm_noise()),
        _frozen_lstm,
    ),
}


#: Case names for dunder methods whose name is not the op's name.
_DUNDER_OPS = {"truediv": "div"}


def _calls_make(fn):
    return "_make(" in inspect.getsource(fn)


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def node_building_ops():
    """Names of the ops that record an autodiff node, read from the engine source."""
    ops = set()
    for fn in vars(tensor_module.Tensor).values():
        # fn.__name__, not the attribute: aliases such as __radd__ = __add__
        # are the same op.
        if inspect.isfunction(fn) and _is_public(fn.__name__) and _calls_make(fn):
            name = fn.__name__.strip("_")
            ops.add(_DUNDER_OPS.get(name, name))
    for module in (tensor_module, lstm_module):
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and _is_public(name)
                and _calls_make(fn)
            ):
                ops.add(name)
    return ops


def test_every_node_building_op_has_a_gradcheck_case():
    # The anti-drift contract: an op that records an autodiff node and has
    # no gradcheck case fails here.  The composites (sub, sqrt, mean)
    # build on the ops found here and are checked as well.
    ops = node_building_ops()
    assert {"add", "matmul", "getitem", "concat", "where", "lstm_sequence"} <= ops
    missing = ops - set(CASES)
    assert not missing, f"ops without a gradcheck case: {sorted(missing)}"


def _numeric_grad(fn, arrays, arg_index, weights):
    """Central-difference gradient of sum(fn(*arrays) * weights) wrt one arg."""

    def loss(candidate_arrays):
        with no_grad():
            out = fn(*[Tensor(arr) for arr in candidate_arrays])
        return float((out.numpy() * weights).sum())

    target = arrays[arg_index]
    grad = np.zeros_like(target, dtype=np.float64)
    for idx in np.ndindex(target.shape):
        bumped = [arr.copy() for arr in arrays]
        bumped[arg_index][idx] = target[idx] + EPS
        hi = loss(bumped)
        bumped[arg_index][idx] = target[idx] - EPS
        lo = loss(bumped)
        grad[idx] = (hi - lo) / (2 * EPS)
    return grad


@pytest.mark.parametrize("op_name", sorted(CASES))
def test_backward_matches_finite_difference(op_name):
    case = CASES[op_name]
    arrays = case.make_inputs()
    tensors = [Tensor(arr.copy(), requires_grad=True) for arr in arrays]
    out = case.fn(*tensors)
    weights = _weights(out.shape)
    (out * Tensor(weights)).sum().backward()
    for i, (tensor, arr) in enumerate(zip(tensors, arrays)):
        assert tensor.grad is not None, f"{op_name}: arg {i} got no gradient"
        numeric = _numeric_grad(case.frozen_fn(arrays), arrays, i, weights)
        np.testing.assert_allclose(
            tensor.grad,
            numeric,
            rtol=RTOL,
            atol=ATOL,
            err_msg=f"{op_name}: analytic grad of arg {i} != finite difference",
        )


def test_detach_blocks_gradients():
    a = Tensor(_smooth((2, 3), 40), requires_grad=True)
    b = Tensor(_smooth((2, 3), 41), requires_grad=True)
    (a.detach() * b).sum().backward()
    # b sees the detached values as constants; a's path is severed.
    assert a.grad is None
    np.testing.assert_allclose(b.grad, a.numpy())
