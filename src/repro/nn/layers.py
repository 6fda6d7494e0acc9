"""Basic neural-network layers built on the autodiff Tensor."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis.graph.spec import Spec, contract
from . import init
from .module import Module, Parameter
from .tensor import Tensor


@contract(
    inputs={"x": Spec("...", "Fin")},
    outputs=Spec("...", "Fout"),
    dims={"Fin": "in_features", "Fout": "out_features"},
)
class Linear(Module):
    """Affine layer ``y = x @ W.T + b``.

    Weights use Kaiming-uniform initialization (the GenDT networks use
    leaky-ReLU activations throughout, per paper Figure 7).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        bound = 1.0 / np.sqrt(in_features)
        self.bias = Parameter(rng.uniform(-bound, bound, size=out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight.T) + self.bias


class LeakyReLU(Module):
    """Leaky rectified linear unit."""

    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Dropout(Module):
    """Inverted dropout, drawing its mask from the ``rng`` given to :meth:`forward`.

    Active in training mode only; ``rng=None`` draws nothing (the identity).
    GenDT uses dropout both as a regularizer inside ResGen and as an
    MC-dropout uncertainty probe at generation time (paper §6.2.1), which
    puts ResGen in training mode for the probe.
    """

    def __init__(self, p: float) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        if rng is None or not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (rng.random(x.shape) < keep) / keep
        return x * Tensor(mask.astype(x.data.dtype, copy=False))


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


@contract(
    inputs={"x": Spec("...", "Fin")},
    outputs=Spec("...", "Fout"),
    dims={"Fin": "in_features", "Fout": "out_features"},
)
class MLP(Module):
    """Fully-connected stack with ``LeakyReLU(0.2)`` activations.

    ``hidden`` gives the sizes of the hidden layers; an optional dropout layer
    is inserted before the final linear layer, matching the ResGen topology
    (FC → LeakyReLU ×3 → Dropout → FC) when ``len(hidden) == 3``.  The
    dropout mask is drawn from the ``rng`` given to :meth:`forward`.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        layers: List[Module] = []
        prev = in_features
        for width in hidden:
            layers.append(Linear(prev, width, rng))
            layers.append(LeakyReLU(0.2))
            prev = width
        if dropout > 0.0:
            layers.append(Dropout(dropout))
        layers.append(Linear(prev, out_features, rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        for layer in self.net:
            x = layer(x, rng) if isinstance(layer, Dropout) else layer(x)
        return x

    @property
    def dropout_layers(self) -> List[Dropout]:
        return [m for m in self.net if isinstance(m, Dropout)]
