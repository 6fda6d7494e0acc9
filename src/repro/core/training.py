"""GenDT adversarial training (paper §4.3.5).

The generator is fit by minimizing ``L = L_M + lambda * L_JS``: a mean
squared error term against the real series plus the Jensen-Shannon GAN term
supplied by a single-layer LSTM discriminator that observes the series
together with ``h_avg``, the high-dimensional context representation.  A
small Gaussian-NLL term keeps ResGen's (mu, sigma) head calibrated so that
the learned sigma reflects data uncertainty (needed for the §6.2 uncertainty
decomposition).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from ..runtime.checkpoint import (
    CheckpointManager,
    capture_trainer_state,
    read_checkpoint,
    restore_trainer_state,
)
from ..runtime.guards import HealthGuard
from .config import GenDTConfig
from .features import ModelBatch, WindowAssembler
from .generator import GenDTGenerator
from .networks import Discriminator

#: Weight of the Gaussian-NLL term that calibrates ResGen's (mu, sigma)
#: head.  Small, so the NLL shapes sigma without pulling the MSE/GAN fit of
#: the series; every fit uses this value.
NLL_WEIGHT = 0.1
#: Adam learning rates of the generator and the discriminator.
LR_GENERATOR = 1e-3
LR_DISCRIMINATOR = 1e-3
#: Global gradient-norm clip applied before every optimizer step.
GRAD_CLIP = 5.0


@dataclass
class TrainingHistory:
    """Per-epoch loss curves (plus guard recovery counts)."""

    total: List[float] = field(default_factory=list)
    mse: List[float] = field(default_factory=list)
    adversarial: List[float] = field(default_factory=list)
    discriminator: List[float] = field(default_factory=list)
    nll: List[float] = field(default_factory=list)
    recoveries: List[int] = field(default_factory=list)

    def last(self) -> Dict[str, float]:
        return {
            "total": self.total[-1] if self.total else float("nan"),
            "mse": self.mse[-1] if self.mse else float("nan"),
            "adv": self.adversarial[-1] if self.adversarial else float("nan"),
            "disc": self.discriminator[-1] if self.discriminator else float("nan"),
            "nll": self.nll[-1] if self.nll else float("nan"),
        }


class GenDTTrainer:
    """Alternating generator/discriminator optimization over window batches.

    The discriminator is initialised in float64 and cast to the generator's
    dtype, and :meth:`fit` casts its batches to it once.  ``rng`` shuffles
    the batches and is passed to every generator forward, so all of
    training's draws come from it.
    """

    def __init__(
        self,
        generator: GenDTGenerator,
        config: GenDTConfig,
        rng: np.random.Generator,
    ) -> None:
        self.generator = generator
        self.config = config
        self.rng = rng
        self.g_optimizer = nn.Adam(generator.parameters(), lr=LR_GENERATOR)
        self.discriminator: Optional[Discriminator] = None
        self.d_optimizer: Optional[nn.Adam] = None
        if config.lambda_adv > 0:
            self.discriminator = Discriminator(
                generator.n_channels, config, rng
            ).astype(generator.dtype)
            self.d_optimizer = nn.Adam(self.discriminator.parameters(), lr=LR_DISCRIMINATOR)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def _discriminator_step(self, batch: ModelBatch) -> float:
        assert self.discriminator is not None and self.d_optimizer is not None
        with nn.no_grad():
            fake = self.generator.forward_teacher_forced(batch, self.rng)
            fake_series = Tensor(fake["output"].numpy())
            h_avg = Tensor(fake["h_avg"].numpy())
        real_logits = self.discriminator(Tensor(batch.target), h_avg)
        fake_logits = self.discriminator(fake_series, h_avg)
        loss = nn.discriminator_loss(real_logits, fake_logits)
        self.d_optimizer.zero_grad()
        loss.backward()
        self.d_optimizer.clip_grad_norm(GRAD_CLIP)
        self.d_optimizer.step()
        return loss.item()

    def _generator_step(
        self, batch: ModelBatch, guard: Optional[HealthGuard] = None
    ) -> Dict[str, float]:
        # The discriminator is frozen for the step: its weights take no
        # gradient here (its own step zeroes them first), so backward
        # computes only what flows to the generator, with the same bits.
        frozen = self.discriminator.frozen() if self.discriminator is not None else nullcontext()
        with frozen:
            out = self.generator.forward_teacher_forced(batch, self.rng)
            target = Tensor(batch.target)
            mse = nn.mse_loss(out["output"], target)
            loss = mse
            if "mu" in out:
                # Deep supervision on the base network: the conditional mean
                # must live in G_n/G_a, leaving ResGen a zero-mean residual
                # process.  Without this term the base/residual split is
                # unidentifiable under teacher forcing and the base collapses
                # to a constant.
                loss = loss + nn.mse_loss(out["base"], target)
            adv_value = 0.0
            if self.discriminator is not None:
                fake_logits = self.discriminator(out["output"], out["h_avg"])
                adv = nn.generator_adversarial_loss(fake_logits)
                loss = loss + self.config.lambda_adv * adv
                adv_value = adv.item()
            nll_value = 0.0
            if "mu" in out:
                # Keep the Gaussian head calibrated against the residual the
                # base network leaves behind.
                residual_target = target - Tensor(out["base"].numpy())
                nll = nn.gaussian_nll(out["mu"], out["log_sigma"], residual_target)
                loss = loss + NLL_WEIGHT * nll
                nll_value = nll.item()
            self.g_optimizer.zero_grad()
            loss.backward()
        if guard is None or guard.inspect_gradients(self.g_optimizer):
            self.g_optimizer.clip_grad_norm(GRAD_CLIP)
            self.g_optimizer.step()
        # else: gradients are non-finite — skip the update; the guard's
        # after_step() rolls the step back and backs off the learning rate.
        return {"total": loss.item(), "mse": mse.item(), "adv": adv_value, "nll": nll_value}

    # ------------------------------------------------------------------
    def fit(
        self,
        batches: Sequence[ModelBatch],
        epochs: Optional[int] = None,
        verbose: bool = False,
        guard: Optional[HealthGuard] = None,
        checkpoints: Optional[CheckpointManager] = None,
        resume_from: Optional[Union[str, Path]] = None,
        checkpoint_meta: Optional[Dict[str, Any]] = None,
    ) -> TrainingHistory:
        """Train over pre-assembled minibatches for ``epochs`` passes.

        Run it under :func:`repro.nn.detect_anomaly` to raise
        :class:`~repro.runtime.errors.NumericalAnomalyError` at the op that
        first produces a NaN/Inf (forward or backward), instead of letting
        it surface later as a bad loss.

        Args:
            epochs: passes to run; None runs the config's ``epochs``, and 0
                runs none.
            guard: optional :class:`HealthGuard` watching every step for
                NaN/Inf and divergence, rolling back to the last-good
                snapshot on a trip.
            checkpoints: writes an atomic checkpoint after every epoch it
                reports :meth:`~CheckpointManager.due`.
            resume_from: a checkpoint file to restore before training; the
                run then continues bit-exactly where the checkpointed run
                stopped, because the trainer's RNG state is restored too.
            checkpoint_meta: extra metadata merged into each checkpoint
                (e.g. model-level normalizer state from :class:`GenDT`).
        """
        if not batches:
            raise ValueError("no training batches")
        batches = [batch.astype(self.generator.dtype) for batch in batches]
        if epochs is None:
            epochs = self.config.epochs
        start_epoch = 0
        if resume_from is not None:
            arrays, meta = read_checkpoint(resume_from)
            start_epoch = restore_trainer_state(self, arrays, meta)
        if guard is not None:
            guard.attach(
                modules=[self.generator, self.discriminator],
                optimizers=[self.g_optimizer, self.d_optimizer],
            )
        for epoch in range(start_epoch, epochs):
            order = self.rng.permutation(len(batches))
            epoch_stats = {"total": 0.0, "mse": 0.0, "adv": 0.0, "nll": 0.0, "disc": 0.0}
            healthy_steps = 0
            recoveries_before = guard.recoveries if guard is not None else 0
            for idx in order:
                batch = batches[idx]
                if guard is not None:
                    guard.begin_step()
                disc_loss = 0.0
                if self.discriminator is not None:
                    disc_loss = self._discriminator_step(batch)
                stats = self._generator_step(batch, guard=guard)
                if guard is not None and guard.after_step(stats["total"]):
                    continue  # rolled back: this step never happened
                for key in ("total", "mse", "adv", "nll"):
                    epoch_stats[key] += stats[key]
                epoch_stats["disc"] += disc_loss
                healthy_steps += 1
            n = max(healthy_steps, 1)
            self.history.total.append(epoch_stats["total"] / n)
            self.history.mse.append(epoch_stats["mse"] / n)
            self.history.adversarial.append(epoch_stats["adv"] / n)
            self.history.nll.append(epoch_stats["nll"] / n)
            self.history.discriminator.append(epoch_stats["disc"] / n)
            self.history.recoveries.append(
                (guard.recoveries - recoveries_before) if guard is not None else 0
            )
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: {self.history.last()}")
            if checkpoints is not None and checkpoints.due(epoch):
                arrays, meta = capture_trainer_state(self, epoch, extra_meta=checkpoint_meta)
                checkpoints.save(arrays, meta, epoch)
        return self.history


def make_minibatches(
    assembler: WindowAssembler,
    windows: Sequence,
    minibatch_windows: int,
    rng: np.random.Generator,
) -> List[ModelBatch]:
    """Shuffle windows (grouped by length) and assemble fixed-size batches."""
    by_length: Dict[int, List] = {}
    for window in windows:
        by_length.setdefault(window.length, []).append(window)
    batches: List[ModelBatch] = []
    for length, group in by_length.items():
        order = rng.permutation(len(group))
        for start in range(0, len(group), minibatch_windows):
            chunk = [group[i] for i in order[start : start + minibatch_windows]]
            batches.append(assembler.assemble(chunk, with_target=True))
    return batches
