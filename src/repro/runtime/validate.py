"""Input validation at the generation boundary.

``GenDT.generate`` consumes arbitrary caller-supplied trajectories.  A NaN
coordinate or a non-monotonic clock would otherwise surface deep inside the
context pipeline as an inscrutable shape or numerics error; here it is
rejected up front with :class:`ContextValidationError` carrying the index of
the first offending sample.

Zero-visible-cell timesteps are *not* an error: the context extractor
already falls back to the single nearest cell when a window sees no cell
within ``d_s`` (a coverage hole), and a fully empty cell set degrades to an
all-zero ``h_avg`` through the masked mean (the mask zeroes every cell and
the pooled representation collapses to the environment-driven base).
:func:`validate_windows` lets such windows through and rejects only
non-finite features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geo.trajectory import Trajectory
from .errors import ContextValidationError


def _first_bad_index(mask: np.ndarray) -> int:
    bad = np.nonzero(mask)[0]
    return int(bad[0]) if len(bad) else -1


def validate_trajectory(trajectory: Trajectory) -> None:
    """Sanity-check a trajectory before context extraction.

    Checks: non-empty, finite timestamps and coordinates, strictly
    increasing timestamps, latitude/longitude within WGS-84 bounds.

    Raises:
        ContextValidationError: with ``index`` set to the first offending
            sample (-1 for whole-trajectory problems such as emptiness).
    """
    if len(trajectory) == 0:
        raise ContextValidationError("empty trajectory (no samples)", index=-1)
    t = np.asarray(trajectory.t, dtype=float)
    lat = np.asarray(trajectory.lat, dtype=float)
    lon = np.asarray(trajectory.lon, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ContextValidationError(
            "non-finite timestamp", index=_first_bad_index(~np.isfinite(t))
        )
    bad_coord = ~(np.isfinite(lat) & np.isfinite(lon))
    if np.any(bad_coord):
        raise ContextValidationError(
            "non-finite latitude/longitude", index=_first_bad_index(bad_coord)
        )
    if len(t) >= 2:
        steps = np.diff(t)
        if np.any(steps <= 0):
            # +1: the *second* sample of the offending pair is the culprit.
            raise ContextValidationError(
                "timestamps not strictly increasing",
                index=_first_bad_index(steps <= 0) + 1,
            )
    out_of_range = (np.abs(lat) > 90.0) | (np.abs(lon) > 180.0)
    if np.any(out_of_range):
        raise ContextValidationError(
            "latitude/longitude outside WGS-84 bounds",
            index=_first_bad_index(out_of_range),
        )


def validate_windows(windows: Sequence) -> None:
    """Check assembled context windows: non-finite context features are fatal.

    A window whose visible-cell set is empty passes (see the module
    docstring for the degradation contract).

    Raises:
        ContextValidationError: on non-finite cell or environment features,
            with ``index`` set to the window position.
    """
    for i, window in enumerate(windows):
        if not np.all(np.isfinite(window.cell_features)):
            raise ContextValidationError(
                "non-finite cell context features", index=i
            )
        if not np.all(np.isfinite(window.env_features)):
            raise ContextValidationError(
                "non-finite environment context features", index=i
            )
