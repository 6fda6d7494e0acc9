"""Runtime anomaly detection for the autodiff tape.

The numpy autodiff engine in :mod:`repro.nn.tensor` is fast but silent: a
NaN born in one op propagates through the whole graph and only surfaces —
if at all — as a non-finite loss many steps later, by which point the
originating op is long gone.  This module is the reproduction's analog of
``torch.autograd.set_detect_anomaly``: an **opt-in** mode that

* records, on every tensor an op creates, the op's name and the
  ``file:line`` of the code that invoked it;
* checks every forward output for NaN/Inf as it is created;
* checks every gradient a backward function writes, right after it runs;

and raises :class:`~repro.runtime.errors.NumericalAnomalyError` naming the
offending op and call site the moment the first non-finite value appears.

The mode is designed to be zero-cost when off: the tensor engine guards
every hook behind a single attribute read (``STATE.enabled``), records no
creation context, and performs no finiteness scans, so training output with
the mode disabled is bit-identical to an engine without the hooks.

Usage::

    with repro.nn.detect_anomaly():
        loss = model(batch)
        loss.backward()          # raises NumericalAnomalyError at the source

or from the CLI: ``python -m repro train --detect-anomaly ...``.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

from ..runtime.errors import NumericalAnomalyError

__all__ = ["detect_anomaly", "is_anomaly_enabled", "NumericalAnomalyError"]


class _AnomalyState:
    """Process-wide switch; a plain attribute read keeps the off-path cheap."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


STATE = _AnomalyState()


def is_anomaly_enabled() -> bool:
    """Return whether anomaly detection is currently active."""
    return STATE.enabled


class detect_anomaly:
    """Context manager enabling NaN/Inf anomaly detection on the tape.

    Re-entrant and restores the previous state on exit, so nesting (or
    enabling inside an already-enabled region) behaves sensibly.
    """

    def __enter__(self) -> "detect_anomaly":
        self._prev = STATE.enabled
        STATE.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        STATE.enabled = self._prev


def _creation_context() -> Tuple[str, str]:
    """(op name, caller file:line) for a tensor being created by an op.

    Stack when this runs: [0] here, [1] ``note_forward``, [2] ``Tensor._make``,
    [3] the op method (``__add__``, ``tanh``, ``concat``, ...), [4] its caller.
    """
    op_frame = sys._getframe(3)
    op = op_frame.f_code.co_name
    caller = op_frame.f_back
    if caller is not None:
        site = f"{caller.f_code.co_filename}:{caller.f_lineno}"
    else:  # pragma: no cover - an op invoked with no caller frame
        site = "<unknown>"
    return op, site


def note_forward(tensor, data: np.ndarray) -> None:
    """Record creation context on ``tensor`` and check the forward output.

    Called by ``Tensor._make`` only while the mode is enabled.
    """
    op, site = _creation_context()
    tensor._anomaly_ctx = (op, site)
    if not np.isfinite(data).all():
        raise NumericalAnomalyError(
            f"forward op {op!r} produced non-finite values (called at {site})",
            op=op,
            site=site,
            phase="forward",
        )


def check_backward(node) -> None:
    """Check the gradients ``node``'s backward function just wrote.

    Called by ``Tensor.backward`` right after ``node._backward`` ran, while
    ``node._parents`` is still intact; a non-finite gradient on any parent
    is attributed to ``node``'s creating op.
    """
    for parent in node._parents:
        grad = parent.grad
        if grad is not None and not np.isfinite(grad).all():
            op, site = getattr(node, "_anomaly_ctx", None) or (
                "<unrecorded>",
                "<tensor created outside detect_anomaly>",
            )
            raise NumericalAnomalyError(
                f"backward of op {op!r} (called at {site}) produced a "
                "non-finite gradient",
                op=op,
                site=site,
                phase="backward",
            )


def annotate_module(exc: NumericalAnomalyError, module_name: str) -> None:
    """Append ``module_name`` to the error's module chain (innermost first)."""
    exc.module_chain.append(module_name)
