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
    """Wrap an angle (difference) into [-180, 180)."""
    return (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0
