"""What-if analysis on the network context (paper §C.2).

GenDT conditions on the operator's cell database, so deployment changes can
be evaluated *before* building them: edit the deployment, regenerate the KPI
series for the routes of interest, and compare.  This module adds a new
site to a deployment and provides a context manager that swaps an edited
deployment into a trained model's context pipeline and restores the
original on exit.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from ..radio.cells import Cell, CellDeployment
from ..core.model import GenDT


#: Sectors of a site :func:`with_new_site` adds, evenly spaced in azimuth.
NEW_SITE_SECTORS = 3


# ----------------------------------------------------------------------
# Deployment edits
# ----------------------------------------------------------------------
def with_new_site(
    deployment: CellDeployment,
    lat: float,
    lon: float,
    p_max_dbm: float = 43.0,
) -> CellDeployment:
    """Return a deployment with a new :data:`NEW_SITE_SECTORS`-sector site added."""
    next_cell = max(c.cell_id for c in deployment.cells) + 1
    next_site = max(c.site_id for c in deployment.cells) + 1
    new_cells = [
        Cell(
            cell_id=next_cell + s,
            lat=lat,
            lon=lon,
            p_max_dbm=p_max_dbm,
            direction_deg=(s * 360.0 / NEW_SITE_SECTORS) % 360.0,
            site_id=next_site,
        )
        for s in range(NEW_SITE_SECTORS)
    ]
    return CellDeployment(list(deployment.cells) + new_cells, deployment.frame)


# ----------------------------------------------------------------------
# Deployment override
# ----------------------------------------------------------------------
@contextlib.contextmanager
def deployment_override(model: GenDT, deployment: CellDeployment) -> Iterator[None]:
    """Temporarily swap the deployment of the region the model serves.

    The model's context pipeline reads cells through its region, so this
    one rebinding is all it sees.
    """
    region = model.region
    original = region.deployment
    region.deployment = deployment
    try:
        yield
    finally:
        region.deployment = original
