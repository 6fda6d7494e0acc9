"""High-level GenDT API: fit on drive-test records, generate for trajectories.

This is the public face of the reproduction: an operator-style workflow of

>>> model = GenDT(region, kpis=["rsrp", "rsrq"], config=small_config(), seed=0)
>>> model.fit(train_records)
>>> series = model.generate(new_trajectory)   # [T, n_kpis], real units

mirroring paper Figure 5 (input: trajectory; the model annotates it with
network + environment context internally; output: multi-KPI time series).
Every generation method draws only from its ``rng`` argument, so a seeded
call does not depend on what the model generated before; without one it
continues the model's own stream (``model.rng``, seeded by ``seed``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..context.normalize import (
    CellFeatureTransform,
    EnvFeatureNormalizer,
    TargetNormalizer,
)
from ..context.windows import ContextBuilder, ContextWindow
from ..geo.trajectory import Trajectory
from ..radio.kpis import KPI, KpiSpec
from ..radio.simulator import DriveTestRecord
from ..world.region import Region
from ..runtime.checkpoint import CheckpointManager, read_checkpoint, write_checkpoint
from ..runtime.guards import HealthGuard
from ..runtime.validate import validate_trajectory, validate_windows
from .config import GenDTConfig
from .features import N_KINEMATIC_FEATURES, ModelBatch, WindowAssembler
from .generator import GenDTGenerator, WindowHook
from .training import GenDTTrainer, TrainingHistory, make_minibatches


class GenDT:
    """GenDT model bound to a region's cell database and environment data."""

    def __init__(
        self,
        region: Region,
        kpis: Sequence[Union[str, KPI]] = ("rsrp", "rsrq", "sinr", "cqi"),
        config: Optional[GenDTConfig] = None,
        seed: int = 0,
    ) -> None:
        self.region = region
        self.kpi_spec = KpiSpec([KPI(k) for k in kpis])
        self.config = config or GenDTConfig()
        self.config.validate()
        self._rng = np.random.default_rng(seed)
        self.context = ContextBuilder(region, self.config.max_cells)
        self.cell_transform = CellFeatureTransform(region.frame)
        self.env_normalizer = EnvFeatureNormalizer()
        self.target_normalizer = TargetNormalizer()
        self.generator: Optional[GenDTGenerator] = None
        self.trainer: Optional[GenDTTrainer] = None
        self._fitted = False
        self._n_env: Optional[int] = None

    @property
    def rng(self) -> np.random.Generator:
        """The model's own stream, for training and for generation calls given no ``rng``.

        Read-only: the trainer holds it, and a checkpoint restores it in place.
        """
        return self._rng

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @property
    def kpi_names(self) -> List[str]:
        return self.kpi_spec.names()

    def _batch_len(self, n_samples: int) -> int:
        if self.config.batch_len is None:
            return n_samples  # one-shot (the "No batch" ablation)
        return self.config.batch_len

    def build_training_windows(
        self, records: Sequence[DriveTestRecord]
    ) -> List[ContextWindow]:
        """Overlapping context windows with targets (paper Fig. 8a)."""
        min_len = min(len(r) for r in records)
        length = min(self._batch_len(min_len), min_len)
        step = self.config.train_step if self.config.batch_len is not None else length
        return self.context.training_windows(records, self.kpi_names, length, step)

    def fit(
        self,
        records: Sequence[DriveTestRecord],
        epochs: Optional[int] = None,
        verbose: bool = False,
        guard: Optional[HealthGuard] = None,
        checkpoints: Optional[CheckpointManager] = None,
        resume_from: Optional[Union[str, Path]] = None,
    ) -> TrainingHistory:
        """Fit the generator (and refit normalizers) on measurement records.

        Fault-tolerance hooks (all optional, see :mod:`repro.runtime`):
        ``guard`` watches every step for numerical trouble and rolls back;
        ``checkpoints`` writes atomic epoch checkpoints with rotating
        retention; ``resume_from`` restores a checkpoint file and continues
        bit-exactly — everything before the epoch loop (normalizer fits,
        weight init, minibatch shuffling) is deterministic under the model
        seed, and the checkpoint restores the RNG state the interrupted run
        had at that epoch boundary.  To fail fast at the op that first
        produces a NaN/Inf, fit under :func:`repro.nn.detect_anomaly`.
        """
        if not records:
            raise ValueError("no training records")
        stacked_targets = np.concatenate(
            [r.kpi_matrix(self.kpi_names) for r in records], axis=0
        )
        self.target_normalizer.fit(stacked_targets)
        windows = self.build_training_windows(records)
        env_stack = np.concatenate([w.env_features for w in windows], axis=0)
        self.env_normalizer.fit(env_stack)
        self._build_networks(windows[0].env_features.shape[-1] + N_KINEMATIC_FEATURES)
        # One-shot shape-contract + gradient-flow check before any training
        # compute; it draws from its own generator, so it does not change
        # what training computes.
        self._verify_generator()
        history = self.trainer.fit(
            self._minibatches(windows),
            epochs=epochs,
            verbose=verbose,
            guard=guard,
            checkpoints=checkpoints,
            resume_from=resume_from,
            checkpoint_meta=self._checkpoint_meta(),
        )
        self._fitted = True
        return history

    def continue_fit(
        self, records: Sequence[DriveTestRecord], epochs: int
    ) -> TrainingHistory:
        """Additional training passes on new records, keeping current weights.

        Used by the active-learning loop (§6.2): normalizers stay fixed so
        the generated scale remains consistent across retraining rounds.
        """
        self._require_fitted()
        batches = self._minibatches(self.build_training_windows(records))
        return self.trainer.fit(batches, epochs=epochs)

    def _build_networks(self, n_env: int) -> None:
        """A fresh generator and its trainer; their weights draw from :attr:`rng`."""
        self._n_env = n_env
        self.generator = GenDTGenerator(
            n_channels=self.kpi_spec.n_channels,
            n_env=n_env,
            config=self.config,
            rng=self.rng,
        )
        self.trainer = GenDTTrainer(self.generator, self.config, self.rng)

    def _minibatches(self, windows: Sequence[ContextWindow]) -> List[ModelBatch]:
        """Training windows assembled into shuffled minibatches (draws from :attr:`rng`)."""
        return make_minibatches(
            self._assembler(), windows, self.config.minibatch_windows, self.rng
        )

    def _assembler(self) -> WindowAssembler:
        return WindowAssembler(
            self.cell_transform,
            self.env_normalizer,
            self.target_normalizer,
            self.config.max_cells,
        )

    def _require_fitted(self) -> None:
        if not self._fitted or self.generator is None:
            raise RuntimeError("model must be fit before use")

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_normalized(
        self,
        trajectory: Trajectory,
        n_draws: int = 1,
        collect_params: bool = False,
        first_stage_only: bool = False,
        window_hook: Optional[WindowHook] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, np.ndarray]:
        """Generate ``n_draws`` series in normalized space, in one call.

        The trajectory is validated, and its context windows are built,
        validated and assembled once; one
        :meth:`GenDTGenerator.generate_batch` call then generates every
        window for all draws (see there for ``collect_params`` and
        ``window_hook``, which the serving layer uses for per-window
        deadlines and fault injection).  Every draw comes from ``rng``
        (default: :attr:`rng`); ``first_stage_only`` draws nothing.
        ``n_draws > 1`` consumes the RNG in a different order than as many
        ``n_draws=1`` calls would: same distribution, different values.

        Returns {"series": [n_draws, T, N_ch], and "mu"/"sigma" of the same
        shape if ``collect_params`` and ResGen ran}.
        """
        self._require_fitted()
        validate_trajectory(trajectory)
        windows = self.context.generation_windows(trajectory, self._batch_len(len(trajectory)))
        validate_windows(windows)
        rng = None if first_stage_only else self.rng if rng is None else rng
        series, params = self.generator.generate_batch(
            self._assembler().assemble(windows, with_target=False),
            starts=[window.start for window in windows], n_draws=n_draws,
            collect_params=collect_params, window_hook=window_hook, rng=rng,
        )
        return {"series": series, **(params or {})}

    def generate(
        self,
        trajectory: Trajectory,
        rng: Optional[np.random.Generator] = None,
        first_stage_only: bool = False,
        window_hook: Optional[WindowHook] = None,
    ) -> np.ndarray:
        """Generate the KPI time series for a trajectory, in physical units.

        Returns [T, n_kpis], channels ordered as ``self.kpi_names``; values
        are clipped to physical KPI ranges (CQI snapped to integers).  The
        draws come from ``rng`` (default: :attr:`rng`).

        This call is all-or-nothing: a bad trajectory raises
        :class:`~repro.runtime.errors.ContextValidationError` and a mid-run
        fault aborts the series.  For batch workloads that must survive
        individual failures — quarantine, deadlines, circuit breaking, and
        degraded-but-valid fallbacks — use
        :class:`repro.serving.CampaignRunner`, which wraps this method (via
        ``window_hook``/``first_stage_only``) in the resilient serving
        runtime.
        """
        normalized = self.generate_normalized(
            trajectory, first_stage_only=first_stage_only, window_hook=window_hook, rng=rng
        )
        return self._physical(normalized["series"])[0]

    def generate_samples(
        self, trajectory: Trajectory, n_samples: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Independent generations as one batch, [n_samples, T, n_kpis]."""
        normalized = self.generate_normalized(trajectory, n_draws=n_samples, rng=rng)
        return self._physical(normalized["series"])

    def generate_expected(
        self, trajectory: Trajectory, n_samples: int = 4, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Monte-Carlo estimate of the *conditional mean* KPI series.

        Averages several stochastic generations before clipping.  Use this
        when the series feeds a downstream regressor (e.g. the QoE
        predictor): the regression-optimal input is E[x | context], whereas
        :meth:`generate` returns one stochastic draw whose sampling noise
        would propagate into the downstream prediction.
        """
        draws = self.generate_normalized(trajectory, n_draws=n_samples, rng=rng)["series"]
        return self._clip(self.target_normalizer.denormalize(draws).mean(axis=0))

    def _physical(self, normalized: np.ndarray) -> np.ndarray:
        """Denormalize and clip a [..., N_ch] series to physical KPI units."""
        return self._clip(self.target_normalizer.denormalize(normalized))

    def _clip(self, series: np.ndarray) -> np.ndarray:
        clipped = self.kpi_spec.clip(series)
        # Serving-cell channel (handover use case): snap to integers.
        for idx, kpi in enumerate(self.kpi_spec.kpis):
            if kpi == KPI.SERVING_CELL:
                clipped[..., idx] = np.round(clipped[..., idx])
        return clipped

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _checkpoint_meta(self) -> Dict:
        """Model-level metadata embedded in checkpoints (KPIs, config, normalizers)."""
        return {
            "kpis": self.kpi_names,
            "config": self.config.to_meta(),
            "n_env": self._n_env,
            "env_normalizer": {
                k: v.tolist() for k, v in self.env_normalizer.state().items()
            },
            "target_normalizer": {
                k: v.tolist() for k, v in self.target_normalizer.state().items()
            },
        }

    def save(self, path: Union[str, Path]) -> None:
        """Serialize generator weights and normalizer state.

        Writes an atomic, SHA-256-checksummed checkpoint (see
        :mod:`repro.runtime.checkpoint`); a torn write or a later bit-flip
        is detected at load time instead of producing garbage weights.
        """
        self._require_fitted()
        meta = dict(self._checkpoint_meta(), kind="model")
        arrays = {
            f"model.{name}": value
            for name, value in self.generator.state_dict().items()
        }
        write_checkpoint(path, arrays, meta)

    def _verify_generator(self) -> None:
        """Verify the generator graph on concrete probes (raises on violation)."""
        from ..analysis.graph import verify

        verify(self.generator, raise_on_error=True)

    @classmethod
    def load(cls, path: Union[str, Path], region: Region, seed: int = 0) -> "GenDT":
        """The model saved at ``path`` by :meth:`save`, bound to ``region``.

        The checkpoint records the model's KPIs, config, normalizers and
        weights, so the model is built from it alone; ``seed`` seeds the
        model's own stream (:attr:`rng`).

        Raises:
            CheckpointCorruptError: the file is missing or is not an intact
                checkpoint container (bad magic, checksum mismatch,
                truncation), always carrying the offending path.
            ValueError: the checkpoint's metadata lacks a key that
                :meth:`save` writes (the message names the path and every
                missing key), or its config has a field
                :class:`GenDTConfig` does not know.
        """
        arrays, meta = read_checkpoint(path)
        keys = ("kpis", "config", "n_env", "env_normalizer", "target_normalizer")
        missing = [key for key in keys if key not in meta]
        if missing:
            raise ValueError(f"checkpoint {path}: metadata lacks {', '.join(map(repr, missing))}")
        model = cls(
            region, kpis=meta["kpis"], config=GenDTConfig.from_meta(meta["config"]), seed=seed
        )
        model._build_networks(int(meta["n_env"]))
        model.generator.load_state_dict(
            {
                name.partition(".")[2]: value
                for name, value in arrays.items()
                if name.startswith("model.")
            }
        )
        model.env_normalizer = EnvFeatureNormalizer.from_state(
            {k: np.asarray(v) for k, v in meta["env_normalizer"].items()}
        )
        model.target_normalizer = TargetNormalizer.from_state(
            {k: np.asarray(v) for k, v in meta["target_normalizer"].items()}
        )
        # Catches weight/config mismatches (e.g. a changed AR window) that
        # pass load_state_dict but would mis-broadcast at runtime.
        model._verify_generator()
        model._fitted = True
        return model
