"""Radio propagation: pathloss, correlated shadowing, fast fading.

These models give the drive-test simulator the stochastic texture the paper
measures in real data (Fig. 1: repeated runs over the same trajectory differ
substantially at most locations):

* **Pathloss** — log-distance with a clutter-dependent exponent; the
  exponent and offset are modulated by the land-use class at the device
  (denser urban -> higher exponent), which is what couples the environment
  context to KPI behaviour.
* **Shadowing** — log-normal, spatially correlated along the trajectory with
  the Gudmundson exponential-decay model, independently per cell.  Because
  it is resampled per run, two drives over the same route differ.
* **Fast fading** — small-scale Rician/Rayleigh-flavoured dB jitter, stronger
  at higher speeds (shorter coherence distance per sample).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss with clutter modulation.

    ``PL(d) = pl0_db + 10 * n(clutter) * log10(max(d, d_min) / d0)``
    where ``n = base_exponent + clutter_exponent_scale * clutter`` and the
    clutter factor in [0, 1] comes from the environment raster (0 = open
    field, 1 = dense urban core).
    """

    pl0_db: float = 66.0          # loss at d0 for a 1.8 GHz-class carrier
    d0_m: float = 10.0
    d_min_m: float = 35.0
    base_exponent: float = 2.9
    clutter_exponent_scale: float = 1.0
    clutter_offset_db: float = 10.0

    def pathloss_db(self, distance_m: np.ndarray, clutter: np.ndarray) -> np.ndarray:
        """Pathloss in dB for distances [.] and co-located clutter factors [.]."""
        distance = np.maximum(np.asarray(distance_m, dtype=float), self.d_min_m)
        clutter = np.clip(np.asarray(clutter, dtype=float), 0.0, 1.0)
        exponent = self.base_exponent + self.clutter_exponent_scale * clutter
        return (
            self.pl0_db
            + 10.0 * exponent * np.log10(distance / self.d0_m)
            + self.clutter_offset_db * clutter
        )


@dataclass(frozen=True)
class ShadowingModel:
    """Gudmundson spatially-correlated log-normal shadowing.

    Along a trajectory with per-step displacements ``delta_m``, successive
    shadowing samples follow an AR(1) process with correlation
    ``rho_k = exp(-delta_k / decorrelation_m)``.  ``sigma_db`` may be
    modulated upward by clutter (urban canyons shadow harder).
    """

    sigma_db: float = 5.0
    decorrelation_m: float = 80.0
    clutter_sigma_scale: float = 2.5

    def sample_along_multi(
        self,
        step_distances_m: np.ndarray,
        n_cells: int,
        rng: np.random.Generator,
        clutter: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Independent correlated traces for ``n_cells`` cells at once: [T, N].

        Vectorized over cells (the loop runs over time only), so simulating a
        trajectory against hundreds of candidate cells stays cheap.
        """
        steps = np.asarray(step_distances_m, dtype=float)
        n = len(steps) + 1
        sigma = np.full(n, self.sigma_db)
        if clutter is not None:
            sigma = sigma + self.clutter_sigma_scale * np.clip(clutter, 0.0, 1.0)
        rho = np.exp(-np.maximum(steps, 0.0) / self.decorrelation_m)
        drive = np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
        traces = np.empty((n, n_cells))
        traces[0] = rng.normal(0.0, sigma[0], size=n_cells)
        innovations = rng.normal(0.0, 1.0, size=(n - 1, n_cells))
        innovations *= (drive * sigma[1:])[:, None]
        for k in range(1, n):
            np.multiply(traces[k - 1], rho[k - 1], out=traces[k])
            traces[k] += innovations[k - 1]
        return traces


@dataclass(frozen=True)
class FastFadingModel:
    """Small-scale fading as bounded dB jitter.

    A crude but adequate stand-in for Rician fading after the RSRP-layer
    averaging the UE performs: i.i.d. Gaussian dB jitter whose standard
    deviation grows with speed (less averaging per reporting interval).
    """

    sigma_db: float = 1.0
    speed_scale: float = 0.03  # extra dB of sigma per m/s

    def sample(
        self,
        steps: int,
        n_cells: int,
        rng: np.random.Generator,
        speed_mps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Independent jitter for ``n_cells`` cells over ``steps`` steps: [T, N].

        The draw is cell-major — one ``[N, T]`` block, transposed — so it
        consumes ``rng`` exactly as N successive draws of one cell's [T]
        series would.  ``speed_mps`` is the per-step speed [T].
        """
        sigma = np.full(steps, self.sigma_db)
        if speed_mps is not None:
            speeds = np.asarray(speed_mps, dtype=float)
            sigma = sigma + self.speed_scale * np.clip(speeds, 0.0, 50.0)
        return rng.normal(0.0, 1.0, size=(n_cells, steps)).T * sigma[:, None]
