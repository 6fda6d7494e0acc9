"""Sectorized base-station antenna patterns.

Standard 3GPP parabolic horizontal pattern: attenuation grows quadratically
with the angle off boresight up to a front-to-back limit.  Each cell in a
deployment is one sector; its ``direction`` attribute (degrees clockwise from
north) is part of GenDT's network-context features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

Array = Union[float, np.ndarray]


@dataclass(frozen=True)
class SectorAntenna:
    """3GPP-style horizontal sector pattern.

    Attributes:
        max_gain_dbi: boresight gain.
        beamwidth_deg: 3 dB horizontal beamwidth (65 deg is typical macro).
        front_to_back_db: maximum attenuation off boresight.
    """

    max_gain_dbi: float = 15.0
    beamwidth_deg: float = 65.0
    front_to_back_db: float = 25.0

    def gain_dbi(self, offset_deg: Array) -> Array:
        """Gain toward a direction ``offset_deg`` away from boresight."""
        offset = wrap_angle_deg(offset_deg)
        attenuation = np.minimum(
            12.0 * (np.abs(offset) / self.beamwidth_deg) ** 2, self.front_to_back_db
        )
        return self.max_gain_dbi - attenuation


def wrap_angle_deg(angle: Array) -> Array:
    """Wrap an angle (difference) into [-180, 180).

    Bit for bit ``(angle + 180) % 360 - 180``, except where ``% 360``
    rounds a tiny negative sum up to 360 (at ``-180 - 1 ulp``): that case
    wraps to -180 too, so wrapping twice changes nothing.  ``np.fmod``
    with the sign fix numpy's float remainder applies after it is that
    remainder, without its floor division (about half the time).
    """
    wrapped = np.array(angle, dtype=float)  # a copy, wrapped in place
    wrapped += 180.0
    np.fmod(wrapped, 360.0, out=wrapped)
    wrapped += 360.0 * (wrapped < 0.0)  # also turns -0.0 into 0.0, as ``%`` does
    wrapped[wrapped == 360.0] = 0.0
    wrapped -= 180.0
    return wrapped
