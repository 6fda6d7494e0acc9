"""Feature and target normalization for model consumption.

The raw context schema follows the paper exactly (per-cell
``[lat, lon, p_max, direction, distance]`` and the 26 environment
attributes), but raw latitudes and compass directions are poor neural-net
inputs.  :class:`CellFeatureTransform` maps each cell's raw attributes to a
6-dim learnable encoding:

``[dx_km, dy_km, p_max_z, sin(dir_rel), cos(dir_rel), dist_km]``

where ``(dx, dy)`` is the cell's offset from the device in the region frame
and ``dir_rel`` is the angle between the sector boresight and the
cell-to-device bearing (how "on-beam" the device is).  This is an invertible
re-encoding of the same five attributes plus the device location the
trajectory provides anyway — no extra information is introduced.

Targets are z-normalized per KPI channel, with statistics fit on the
training split only and stored with the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..geo.coords import LocalFrame
from ..world.attributes import N_ENV_ATTRIBUTES, N_LAND_USE
from .windows import ContextWindow

#: Model-facing cell feature dimension after the transform.
N_CELL_FEATURES = 6

#: Fixed z-scoring of a cell's transmit power p_max (dBm): macro cells sit
#: around 43 dBm with a few dB of spread.  Fixed rather than fit, so the
#: encoding is the same for every region a model is transferred to.
P_MAX_MEAN_DBM = 43.0
P_MAX_STD_DB = 3.0


class CellFeatureTransform:
    """Raw per-cell attributes -> model features (see module docstring)."""

    def __init__(self, frame: LocalFrame) -> None:
        self.frame = frame

    def __call__(self, window: ContextWindow) -> np.ndarray:
        """Transform one window's raw cell features ([L, N_b, 5]) into
        model features [L, N_b, 6], relative to the device location per step.
        """
        raw = window.cell_features
        ux, uy = self.frame.to_xy(window.ue_lat, window.ue_lon)
        cx, cy = self.frame.to_xy(raw[0, :, 0], raw[0, :, 1])
        # [L, N_b] arrays, one elementwise op per feature over all cells.
        dx = (cx - ux[:, None]) / 1000.0
        dy = (cy - uy[:, None]) / 1000.0
        bearing_to_ue = np.degrees(np.arctan2(-dx, -dy)) % 360.0
        dir_rel = np.radians(bearing_to_ue - raw[:, :, 3])
        out = np.empty(raw.shape[:2] + (N_CELL_FEATURES,))
        out[:, :, 0] = dx
        out[:, :, 1] = dy
        out[:, :, 2] = (raw[:, :, 2] - P_MAX_MEAN_DBM) / P_MAX_STD_DB
        out[:, :, 3] = np.sin(dir_rel)
        out[:, :, 4] = np.cos(dir_rel)
        out[:, :, 5] = raw[:, :, 4] / 1000.0
        return out


@dataclass
class EnvFeatureNormalizer:
    """Normalizes the 26-dim environment vector.

    Land-use fractions are already in [0, 1]; PoI counts get ``log1p`` then
    z-normalization with statistics fit on training data.
    """

    poi_mean: Optional[np.ndarray] = None
    poi_std: Optional[np.ndarray] = None

    def fit(self, env_stack: np.ndarray) -> "EnvFeatureNormalizer":
        """Fit on stacked raw environment features [N, 26]."""
        if env_stack.shape[-1] != N_ENV_ATTRIBUTES:
            raise ValueError(f"expected {N_ENV_ATTRIBUTES} attributes")
        pois = np.log1p(env_stack[:, N_LAND_USE:])
        self.poi_mean = pois.mean(axis=0)
        self.poi_std = np.maximum(pois.std(axis=0), 1e-6)
        return self

    def __call__(self, env: np.ndarray) -> np.ndarray:
        if self.poi_mean is None:
            raise RuntimeError("normalizer must be fit before use")
        land = env[..., :N_LAND_USE]
        pois = (np.log1p(env[..., N_LAND_USE:]) - self.poi_mean) / self.poi_std
        return np.concatenate([land, pois], axis=-1)

    def state(self) -> Dict[str, np.ndarray]:
        return {"poi_mean": self.poi_mean, "poi_std": self.poi_std}

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray]) -> "EnvFeatureNormalizer":
        return cls(
            poi_mean=np.asarray(state["poi_mean"]), poi_std=np.asarray(state["poi_std"])
        )


@dataclass
class TargetNormalizer:
    """Per-column z-normalization: GenDT's KPI targets, and the inputs and
    targets of the row-wise regressors (:mod:`repro.usecases`)."""

    mean: Optional[np.ndarray] = None
    std: Optional[np.ndarray] = None

    def fit(self, targets: np.ndarray) -> "TargetNormalizer":
        """Fit on stacked rows [N, N_ch]."""
        self.mean = targets.mean(axis=0)
        self.std = np.maximum(targets.std(axis=0), 1e-6)
        return self

    def normalize(self, targets: np.ndarray) -> np.ndarray:
        self._check()
        return (targets - self.mean) / self.std

    def denormalize(self, normalized: np.ndarray) -> np.ndarray:
        self._check()
        return normalized * self.std + self.mean

    def _check(self) -> None:
        if self.mean is None:
            raise RuntimeError("normalizer must be fit before use")

    def state(self) -> Dict[str, np.ndarray]:
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray]) -> "TargetNormalizer":
        return cls(mean=np.asarray(state["mean"]), std=np.asarray(state["std"]))
