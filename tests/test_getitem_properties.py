"""Property test for the backward of ``Tensor.__getitem__``.

Basic indices (ints, slices, ``Ellipsis``, ``None``) write their gradient
with a slice assignment; integer-array and boolean indices scatter it with
``np.add.at``, which sums repeated positions.  A basic index never repeats
a position, so for it the two must agree exactly.  Hypothesis draws random
shapes and basic indices and checks the engine's gradient against
``np.add.at``, with and without a gradient already accumulated.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.nn.tensor import Tensor, _is_basic_index  # noqa: E402


@st.composite
def basic_indexing(draw):
    """(shape, index) with index a valid basic index into ``shape``."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    items = []
    for size in shape:
        kind = draw(st.sampled_from(["int", "slice", "full", "none"]))
        if kind == "int":
            items.append(draw(st.integers(-size, size - 1)))
        elif kind == "slice":
            start = draw(st.one_of(st.none(), st.integers(-size, size)))
            stop = draw(st.one_of(st.none(), st.integers(-size, size)))
            step = draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
            items.append(slice(start, stop, step))
        elif kind == "full":
            items.append(slice(None))
        else:
            items.extend([None, slice(None)])
    # Drop trailing items and/or fold some axes into an Ellipsis.
    items = items[: draw(st.integers(0, len(items)))]
    if items and draw(st.booleans()):
        cut = draw(st.integers(0, len(items)))
        items = items[:cut] + [Ellipsis]
    if len(items) == 1 and draw(st.booleans()):
        return shape, items[0]
    return shape, tuple(items)


def _add_at_grad(shape, index, grad, prior):
    full = np.zeros(shape)
    np.add.at(full, index, grad)
    return full if prior is None else prior + full


@given(case=basic_indexing(), accumulate=st.booleans())
@settings(max_examples=300, deadline=None)
def test_basic_index_backward_equals_add_at(case, accumulate):
    shape, index = case
    assert _is_basic_index(index)
    data = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape) * 0.3 - 1.0
    x = Tensor(data, requires_grad=True)
    out = x[index]
    grad = np.arange(out.size, dtype=np.float64).reshape(out.shape) * 0.7 + 0.2
    prior = data * 1.3 + 0.1 if accumulate else None
    x.grad = None if prior is None else prior.copy()
    out.backward(grad)
    np.testing.assert_array_equal(x.grad, _add_at_grad(shape, index, grad, prior))


@pytest.mark.parametrize(
    "index",
    [
        np.array([0, 2, 0]),
        (slice(None), np.array([1, 1, 0])),
        np.array([True, False, True, True]),
        [3, 3],
        True,
    ],
)
def test_advanced_index_sums_repeats(index):
    assert not _is_basic_index(index)
    data = np.arange(12, dtype=np.float64).reshape(4, 3)
    x = Tensor(data, requires_grad=True)
    out = x[index]
    grad = np.ones(out.shape)
    out.backward(grad)
    np.testing.assert_array_equal(x.grad, _add_at_grad(data.shape, index, grad, None))
