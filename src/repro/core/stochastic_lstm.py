"""Stochastic LSTM layers (the paper's SRNN variant, §4.3.4 and §A.2).

Before every LSTM iteration, uniform noise is added to the hidden state
``h_t`` and memory ``c_t`` and the result is renormalized so the total value
across hidden dimensions is preserved:

``h'_t = (h_t + a_h * n_h) * sum(h_t) / sum(h_t + a_h * n_h)``

with ``n_h ~ U[0, mean(h_t)]`` (the noise amplitude adapts to the hidden
state's own scale) and intensity ``a_h`` (paper default 2; ``a_c`` likewise
for the memory).  Unlike the original SRNN's variational-inference training,
GenDT trains these layers adversarially — the discriminator provides the
extra signal that makes the stochastic hidden dynamics match the data's
variability.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..analysis.graph.spec import Spec, contract
from ..nn.lstm import SRNNNoise, lstm_sequence
from ..nn.tensor import Tensor


@contract(
    inputs={"x": Spec("B", "T", "I")},
    outputs=(Spec("B", "T", "H"), (Spec("B", "H"), Spec("B", "H"))),
    dims={"I": "cell.input_size", "H": "hidden_size"},
)
class StochasticLSTM(nn.Module):
    """LSTM whose recurrent state is perturbed per step (GenDT SRNN layers).

    The whole sequence is one :func:`repro.nn.lstm_sequence` call; the
    noise is drawn inside it from the ``rng`` given to :meth:`forward` (see
    :class:`repro.nn.lstm.SRNNNoise` for the draw order).  Without one, or
    when ``stochastic`` is False (or the intensity is zero), this reduces to
    a plain LSTM; ``stochastic=False`` is the "No SRNN" ablation of paper
    Table 12.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        intensity_h: float = 2.0,
        intensity_c: float = 2.0,
        stochastic: bool = True,
    ) -> None:
        super().__init__()
        self.cell = nn.LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self.intensity_h = intensity_h
        self.intensity_c = intensity_c
        self.stochastic = stochastic

    def forward(
        self, x: Tensor, rng: Optional[np.random.Generator] = None
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Run over a sequence ``[B, T, input_size]`` from the zero state -> ``[B, T, H]``."""
        h, c = self.cell.zero_state(x.shape[0])
        use_noise = self.stochastic and rng is not None
        noise = SRNNNoise(rng, self.intensity_h, self.intensity_c) if use_noise else None
        cell = self.cell
        return lstm_sequence(x, cell.weight_ih, cell.weight_hh, cell.bias, h, c, noise=noise)
