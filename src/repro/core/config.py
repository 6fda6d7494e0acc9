"""GenDT configuration.

Defaults follow the paper (§A.3): batch length L = 50, sliding step Δt = 5
(any step in [1, 15] behaves similarly), hidden size H = 100 for both the
GNN-node and aggregation LSTMs, stochastic-layer noise intensity
a_h = a_c = 2, adversarial loss weight λ = 0.1.  Tests and CI-scale
benchmarks construct smaller configs; the physics does not change.  The
settings no caller varies (noise widths, ResGen's AR window m and dropout,
learning rates, gradient clip) are constants beside the code that reads
them, in ``networks`` and ``training``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple


@dataclass
class GenDTConfig:
    """Hyper-parameters of the GenDT generator and its training."""

    # Batching (paper §4.3.3)
    batch_len: Optional[int] = 50        #: L; None => whole-series one-shot (ablation)
    train_step: int = 5                  #: Δt for overlapping training windows

    # Architecture (paper §4.3.1)
    hidden_size: int = 100               #: H for GNN-node and aggregation LSTMs
    resgen_hidden: Tuple[int, ...] = (64, 64, 32)

    # Stochastic layers (paper §4.3.4, §A.2)
    use_stochastic_layers: bool = True
    noise_intensity_h: float = 2.0       #: a_h
    noise_intensity_c: float = 2.0       #: a_c

    # Components (ablation switches, paper Table 12)
    use_resgen: bool = True

    # Training (paper §4.3.5)
    lambda_adv: float = 0.1              #: λ weight of the GAN loss
    epochs: int = 30
    minibatch_windows: int = 8           #: windows per gradient step

    # Context scope
    max_cells: int = 8                   #: cap on N_b per window

    def to_meta(self) -> Dict[str, Any]:
        """The fields as checkpoint metadata stores them (JSON: tuples become lists)."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "GenDTConfig":
        """Inverse of :meth:`to_meta`: list-valued fields come back as tuples.

        Raises:
            ValueError: ``meta`` has a key that is not a field, as in a
                checkpoint written by a version with another field set; the
                message names the keys.
        """
        unknown = sorted(set(meta) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown GenDTConfig fields in checkpoint metadata: {unknown}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in meta.items()})

    def validate(self) -> None:
        if self.batch_len is not None and self.batch_len < 2:
            raise ValueError("batch_len must be >= 2 (or None for one-shot)")
        if self.train_step < 1:
            raise ValueError("train_step must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be positive")
        if self.lambda_adv < 0:
            raise ValueError("lambda_adv must be non-negative")


def small_config(**overrides) -> GenDTConfig:
    """A reduced configuration for tests and CI-scale benchmarks.

    Keeps every mechanism active (stochastic layers, ResGen, GAN loss,
    batching) but shrinks widths and epochs so the pure-numpy substrate
    trains in seconds.
    """
    config = GenDTConfig(
        batch_len=30,
        train_step=10,
        hidden_size=24,
        resgen_hidden=(32, 32, 16),
        epochs=8,
        minibatch_windows=8,
        max_cells=6,
    )
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise AttributeError(f"unknown config field: {key}")
        setattr(config, key, value)
    config.validate()
    return config
