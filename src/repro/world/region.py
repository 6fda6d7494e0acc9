"""Region: one self-consistent synthetic world.

A :class:`Region` bundles everything a drive-test campaign happens in — the
local coordinate frame, cities and road network, land-use raster, PoI layer,
and cell deployment — so datasets, simulators, and context extraction all
query the same world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..geo.coords import LocalFrame
from ..geo.routes import CitySpec, RoadNetwork
from ..radio.cells import Cell, CellDeployment, deploy_city, deploy_highway
from .landuse import LandUseRaster, generate_land_use
from .poi import PoiIndex, generate_pois


@dataclass
class Region:
    """A synthetic world: geography + environment + cell deployment."""

    frame: LocalFrame
    cities: List[CitySpec]
    roads: RoadNetwork
    land_use: LandUseRaster
    pois: PoiIndex
    deployment: CellDeployment
    highway_polylines: List[List[Tuple[float, float]]] = field(default_factory=list)

    def clutter_along(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Clutter factor at each trajectory point (propagation input)."""
        return np.asarray(self.land_use.clutter_at(lat, lon))


def _chain_highway_polylines(roads: RoadNetwork) -> List[List[Tuple[float, float]]]:
    """Join highway edges into maximal continuous polylines."""
    # Each edge is listed from both ends; ``nx.Graph`` ignores the repeat,
    # so the subgraph below orders its nodes and neighbours, which pick
    # each polyline's start, as when it was built from ``Graph.edges()``.
    highway_edges = [
        (u, v)
        for u, edges in roads.adj.items()
        for v, edge in edges.items()
        if edge.kind == "highway"
    ]
    if not highway_edges:
        return []
    # Only multi-city regions reach this point and load networkx.
    import networkx as nx

    subgraph = nx.Graph(highway_edges)
    polylines: List[List[Tuple[float, float]]] = []
    for component in nx.connected_components(subgraph):
        piece = subgraph.subgraph(component)
        endpoints = [node for node in piece.nodes if piece.degree(node) == 1]
        start = endpoints[0] if endpoints else next(iter(piece.nodes))
        # Walk the path/cycle from one endpoint.
        polyline = [start]
        prev = None
        node = start
        while True:
            neighbors = [n for n in piece.neighbors(node) if n != prev]
            if not neighbors:
                break
            prev, node = node, neighbors[0]
            polyline.append(node)
            if node == start:  # cycle closed
                break
        if len(polyline) >= 2:
            polylines.append(polyline)
    return polylines


def build_region(
    cities: Sequence[CitySpec],
    rng: np.random.Generator,
    city_site_density_per_km2: float = 6.0,
    highway_site_spacing_m: float = 1500.0,
    land_use_pixel_m: float = 100.0,
) -> Region:
    """Construct a full synthetic region around the given cities.

    The local frame is anchored at the centroid of the city centres; the
    land-use raster covers the bounding square of all cities plus margin.
    """
    cities = list(cities)
    lat0 = float(np.mean([c.center_lat for c in cities]))
    lon0 = float(np.mean([c.center_lon for c in cities]))
    frame = LocalFrame(lat0, lon0)

    roads = RoadNetwork(cities, connect_highways=len(cities) > 1)

    # Extract highway polylines from the road graph for land-use/PoI shaping
    # and highway cell placement.  Highway edges are short segments; chain
    # them into continuous polylines (otherwise each 500 m piece would be
    # too short to host any site at the 1.5 km spacing).
    highway_polylines = _chain_highway_polylines(roads)

    # Region extent: distance from origin to the farthest city edge + margin.
    max_r = 0.0
    for city in cities:
        cx, cy = frame.to_xy(city.center_lat, city.center_lon)
        max_r = max(max_r, float(np.hypot(cx, cy)) + city.half_extent_m)
    extent_m = max_r + 1500.0

    land_use = generate_land_use(
        frame, cities, extent_m, rng, pixel_m=land_use_pixel_m,
        highway_waypoints=highway_polylines,
    )
    pois = generate_pois(land_use, extent_m, rng, highway_waypoints=highway_polylines)

    cells: List[Cell] = []
    next_cell, next_site = 0, 0
    for city in cities:
        new = deploy_city(
            city, frame, rng,
            site_density_per_km2=city_site_density_per_km2,
            start_cell_id=next_cell, start_site_id=next_site,
        )
        cells.extend(new)
        next_cell = cells[-1].cell_id + 1
        next_site = cells[-1].site_id + 1
    for polyline in highway_polylines:
        new = deploy_highway(
            polyline, frame, rng,
            site_spacing_m=highway_site_spacing_m,
            start_cell_id=next_cell, start_site_id=next_site,
        )
        if new:
            cells.extend(new)
            next_cell = cells[-1].cell_id + 1
            next_site = cells[-1].site_id + 1

    deployment = CellDeployment(cells, frame)
    return Region(
        frame=frame,
        cities=cities,
        roads=roads,
        land_use=land_use,
        pois=pois,
        deployment=deployment,
        highway_polylines=highway_polylines,
    )
