"""Registry of shipped model builders for ``repro verify-graph``.

Every contracted model class in :mod:`repro.core`, :mod:`repro.baselines`
and :mod:`repro.nn.lstm` gets a small representative instance here so the
CLI (and the CI gate) can verify the whole model zoo in one sweep.

:func:`seeded_defects` additionally builds modules with *known* graph bugs —
a mis-sized ResGen AR window, a parameter unreachable from the outputs, and
a head whose gradient path is cut by ``detach()`` — used by
``verify-graph --self-test`` to prove the verifier actually catches the
defect classes it claims to.

This module imports the model packages, so it must only be loaded from the
CLI/tests, never from :mod:`repro.analysis.graph` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ... import nn
from ...baselines.doppelganger import _DGDiscriminator, _DGGenerator
from ...baselines.lstm_gnn import _LstmGnnNet
from ...context.normalize import N_CELL_FEATURES
from ...core.config import small_config
from ...core.generator import GenDTGenerator
from ...core.networks import (
    RESGEN_AR_WINDOW,
    AggregationNetwork,
    Discriminator,
    GnnNodeNetwork,
    ResGen,
)
from .spec import Spec, contract

__all__ = ["DefectEntry", "RegistryEntry", "seeded_defects", "shipped_entries"]


@dataclass(frozen=True)
class RegistryEntry:
    """One verifiable shipped model: name, description, builder from an RNG."""

    name: str
    description: str
    make: Callable[[np.random.Generator], nn.Module]

    def build(self, seed: int = 0) -> nn.Module:
        return self.make(np.random.default_rng(seed))


@dataclass(frozen=True)
class DefectEntry(RegistryEntry):
    """A deliberately broken module and a substring the error must contain."""

    expect: str


def shipped_entries() -> List[RegistryEntry]:
    """Every shipped contracted model class, smallest sensible instance."""
    return [
        RegistryEntry("linear", "nn.Linear affine layer", lambda rng: nn.Linear(12, 6, rng)),
        RegistryEntry(
            "mlp", "nn.MLP with dropout",
            lambda rng: nn.MLP(12, [16, 8], 4, rng, dropout=0.2),
        ),
        RegistryEntry("lstm", "nn.LSTM over a sequence", lambda rng: nn.LSTM(9, 14, rng)),
        RegistryEntry(
            "stochastic_lstm", "GenDT SRNN layer (noise-injected LSTM)",
            lambda rng: nn.LSTM(9, 14, rng, srnn=(2.0, 2.0)),
        ),
        RegistryEntry(
            "gnn_node", "G_n node network",
            lambda rng: GnnNodeNetwork(N_CELL_FEATURES, small_config(), rng),
        ),
        RegistryEntry(
            "aggregation", "G_a aggregation network",
            lambda rng: AggregationNetwork(2, small_config(), rng),
        ),
        RegistryEntry(
            "resgen", "G_r residual generator", lambda rng: ResGen(28, 2, small_config(), rng)
        ),
        RegistryEntry(
            "discriminator", "GenDT discriminator R",
            lambda rng: Discriminator(2, small_config(), rng),
        ),
        RegistryEntry(
            "gendt_generator", "full GenDT generator (teacher-forced)",
            lambda rng: GenDTGenerator(2, 28, small_config(), rng),
        ),
        RegistryEntry(
            "gendt_generator_no_resgen", "GenDT generator, ResGen ablated",
            lambda rng: GenDTGenerator(2, 28, small_config(use_resgen=False), rng),
        ),
        RegistryEntry(
            "lstm_gnn", "LSTM-GNN baseline network",
            lambda rng: _LstmGnnNet(N_CELL_FEATURES, 16, 2, rng),
        ),
        RegistryEntry(
            "dg_generator", "DoppelGANger stage-2 generator",
            lambda rng: _DGGenerator(10, 4, 16, 2, rng),
        ),
        RegistryEntry(
            "dg_discriminator", "DoppelGANger discriminator",
            lambda rng: _DGDiscriminator(10, 2, 16, rng),
        ),
    ]


# ----------------------------------------------------------------------
# Seeded defects: modules with known graph bugs the verifier must catch.
# ----------------------------------------------------------------------
@contract(
    inputs={"x": Spec("B", "F")},
    outputs=Spec("B", "O"),
    dims={"F": "used.in_features", "O": "used.out_features"},
)
class _DeadWeightNet(nn.Module):
    """Defect: a registered layer the forward pass never touches."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.used = nn.Linear(8, 4, rng)
        self.orphan = nn.Linear(8, 4, rng)

    def forward(self, x):
        return self.used(x)


@contract(
    inputs={"x": Spec("B", "F")},
    outputs=Spec("B", "O"),
    dims={"F": "stem.in_features", "O": "stem.out_features"},
)
class _DetachedHeadNet(nn.Module):
    """Defect: the output reaches its parameters only through detach()."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.stem = nn.Linear(8, 8, rng)

    def forward(self, x):
        return self.stem(x).detach()


def _miswindowed_resgen(rng: np.random.Generator) -> nn.Module:
    module = ResGen(28, 2, small_config(), rng)
    # Simulates loading weights trained with a different AR window m: the
    # recent-residuals input no longer matches the MLP's first layer.
    module.ar_window = RESGEN_AR_WINDOW + 2
    return module


def seeded_defects() -> List[DefectEntry]:
    """Broken modules and the substring each report must contain, for --self-test."""
    return [
        DefectEntry(
            "resgen_miswindowed",
            "ResGen AR window m disagrees with the trained MLP input width",
            _miswindowed_resgen,
            "mlp",
        ),
        DefectEntry(
            "dead_weight",
            "registered parameter unreachable from the outputs",
            _DeadWeightNet,
            "dead",
        ),
        DefectEntry(
            "detached_head",
            "gradient path severed by detach()",
            _DetachedHeadNet,
            "severed",
        ),
    ]
