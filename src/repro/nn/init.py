"""Parameter initialization schemes.

All initializers take an explicit ``rng`` (a ``numpy.random.Generator``) so
model construction is fully deterministic under a supplied seed — nothing in
the library touches global random state.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Leaky-ReLU slope that :func:`kaiming_uniform` tunes its gain for.
KAIMING_NEGATIVE_SLOPE = 0.2


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization for weight matrices."""
    fan_in, fan_out = _fans(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He initialization tuned for leaky-ReLU activations."""
    fan_in, _ = _fans(shape)
    gain = math.sqrt(2.0 / (1.0 + KAIMING_NEGATIVE_SLOPE**2))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initialization (used for recurrent weight matrices)."""
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols]


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
