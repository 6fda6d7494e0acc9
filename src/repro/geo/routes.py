"""Synthetic route generation over a region's road network.

The paper's trajectories come from real walk/bus/tram/car journeys.  We
synthesize comparable routes on a procedurally-generated road graph: a city
street grid plus inter-city highways.  Routes are random walks over the graph
(without immediate backtracking) so they exhibit the turns, loops, and
multi-scenario composition real drive tests have.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .coords import LocalFrame
from .trajectory import Trajectory, from_waypoints

#: Coefficient of variation of the speed between a route's waypoint legs.
ROUTE_SPEED_JITTER = 0.15
#: Edge kinds a random walk may traverse: city scenarios stay on streets
#: (inter-city driving takes :meth:`RoadNetwork.intercity_route`).
WALK_EDGE_KINDS: Tuple[str, ...] = ("street",)


@dataclass(frozen=True)
class CitySpec:
    """A synthetic city: a square street grid centred at (lat, lon)."""

    name: str
    center_lat: float
    center_lon: float
    half_extent_m: float = 2000.0
    street_spacing_m: float = 250.0


Node = Tuple[float, float]


class Edge(NamedTuple):
    """One undirected road segment; both directions share the object."""

    kind: str  # "street" or "highway"
    length_m: float


class RoadNetwork:
    """Road graph over one or more cities, with optional highway links.

    ``adj`` maps each ``(lat, lon)`` node to ``{neighbour: Edge}``, both in
    insertion order: each city's grid, then the highways.  That order fixes
    which neighbour a seeded walk draws, so it is part of every route.
    Routes are random non-backtracking walks; an intercity route joins a
    walk in each city by the shortest road path between them.
    """

    def __init__(self, cities: Sequence[CitySpec], connect_highways: bool = True) -> None:
        if not cities:
            raise ValueError("need at least one city")
        self.cities = list(cities)
        self.adj: Dict[Node, Dict[Node, Edge]] = {}
        self._city_nodes: Dict[str, List[Tuple[float, float]]] = {}
        for city in self.cities:
            self._add_city_grid(city)
        if connect_highways and len(self.cities) > 1:
            self._add_highways()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_city_grid(self, city: CitySpec) -> None:
        frame = LocalFrame(city.center_lat, city.center_lon)
        n_half = int(city.half_extent_m // city.street_spacing_m)
        offsets = np.arange(-n_half, n_half + 1) * city.street_spacing_m
        nodes: List[Tuple[float, float]] = []
        grid: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for i, x in enumerate(offsets):
            for j, y in enumerate(offsets):
                lat, lon = frame.to_latlon(x, y)
                node = (float(lat), float(lon))
                grid[(i, j)] = node
                nodes.append(node)
                self.adj.setdefault(node, {})
        street = Edge("street", city.street_spacing_m)
        for (i, j), node in grid.items():
            for di, dj in ((1, 0), (0, 1)):
                neighbor = grid.get((i + di, j + dj))
                if neighbor is not None:
                    self._add_edge(node, neighbor, street)
        self._city_nodes[city.name] = nodes

    def _add_edge(self, u: Node, v: Node, edge: Edge) -> None:
        # Re-adding an edge replaces it in place, keeping neighbour order.
        self.adj.setdefault(u, {})[v] = edge
        self.adj.setdefault(v, {})[u] = edge

    def _add_highways(self) -> None:
        # Connect each pair of adjacent cities (by centroid distance order)
        # with a straight highway sampled every ~500 m.
        frame = LocalFrame(self.cities[0].center_lat, self.cities[0].center_lon)
        for a, b in zip(self.cities[:-1], self.cities[1:]):
            ax, ay = frame.to_xy(a.center_lat, a.center_lon)
            bx, by = frame.to_xy(b.center_lat, b.center_lon)
            start = self._nearest_node(a.name, b.center_lat, b.center_lon)
            end = self._nearest_node(b.name, a.center_lat, a.center_lon)
            sx, sy = frame.to_xy(*start)
            ex, ey = frame.to_xy(*end)
            length = math.hypot(ex - sx, ey - sy)
            n_seg = max(2, int(length // 500.0))
            prev = start
            for k in range(1, n_seg + 1):
                frac = k / n_seg
                lat, lon = frame.to_latlon(sx + frac * (ex - sx), sy + frac * (ey - sy))
                node = (float(lat), float(lon)) if k < n_seg else end
                self._add_edge(prev, node, Edge("highway", length / n_seg))
                prev = node

    def _nearest_node(self, city_name: str, lat: float, lon: float) -> Tuple[float, float]:
        nodes = self._city_nodes[city_name]
        arr = np.array(nodes)
        d2 = (arr[:, 0] - lat) ** 2 + (arr[:, 1] - lon) ** 2
        return nodes[int(np.argmin(d2))]

    # ------------------------------------------------------------------
    # Route sampling
    # ------------------------------------------------------------------
    def random_walk_route(
        self,
        rng: np.random.Generator,
        length_m: float,
        city: Optional[str] = None,
        start_node: Optional[Tuple[float, float]] = None,
    ) -> List[Tuple[float, float]]:
        """Sample a non-backtracking walk of roughly ``length_m`` metres.

        The walk traverses only edges of :data:`WALK_EDGE_KINDS`.  Without
        a ``start_node`` it starts at a random node of ``city``, or, with no
        city, at a random node with an edge of an allowed kind.
        """
        if start_node is None:
            if city is not None:
                candidates = self._city_nodes[city]
            else:
                candidates = [
                    node for node, edges in self.adj.items()
                    if any(edge.kind in WALK_EDGE_KINDS for edge in edges.values())
                ]
                if not candidates:
                    raise ValueError(f"no road has an edge of kinds {WALK_EDGE_KINDS}")
            start_node = candidates[int(rng.integers(len(candidates)))]
        route = [start_node]
        covered = 0.0
        prev = None
        node = start_node
        while covered < length_m:
            edges = self.adj[node]
            neighbors = [nb for nb, edge in edges.items() if edge.kind in WALK_EDGE_KINDS]
            if not neighbors:
                break
            options = [nb for nb in neighbors if nb != prev] or neighbors
            nxt = options[int(rng.integers(len(options)))]
            covered += edges[nxt].length_m
            route.append(nxt)
            prev, node = node, nxt
        if len(route) < 2:
            raise RuntimeError("random walk could not leave the start node")
        return route

    def intercity_route(
        self, city_a: str, city_b: str, rng: np.random.Generator, city_detour_m: float = 1000.0
    ) -> List[Tuple[float, float]]:
        """City-A detour → highway to city B → city-B detour (complex route)."""
        walk_a = self.random_walk_route(rng, city_detour_m, city=city_a)
        walk_b = self.random_walk_route(rng, city_detour_m, city=city_b)
        path = self.shortest_path(walk_a[-1], walk_b[0])
        return walk_a + path[1:-1] + walk_b

    def shortest_path(self, source: Node, target: Node) -> List[Node]:
        """Shortest path by ``length_m``: bidirectional Dijkstra.

        It searches as networkx's ``bidirectional_dijkstra`` does (the
        directions alternate, forward first, and one counter breaks heap
        ties across both), so among equal-length paths on a street grid it
        returns the one networkx returns.
        """
        if source == target:
            return [source]
        dists: List[Dict[Node, float]] = [{}, {}]
        preds: List[Dict[Node, Optional[Node]]] = [{source: None}, {target: None}]
        seen: List[Dict[Node, float]] = [{source: 0.0}, {target: 0.0}]
        counter = itertools.count()
        fringe = [[(0.0, next(counter), source)], [(0.0, next(counter), target)]]
        best: Optional[float] = None
        meet: Optional[Node] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heapq.heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                forward, node = [], meet
                while node is not None:
                    forward.append(node)
                    node = preds[0][node]
                backward, node = [], preds[1][meet]
                while node is not None:
                    backward.append(node)
                    node = preds[1][node]
                return forward[::-1] + backward
            for w, edge in self.adj[v].items():
                length = dist + edge.length_m
                if w not in dists[direction] and (
                    w not in seen[direction] or length < seen[direction][w]
                ):
                    seen[direction][w] = length
                    heapq.heappush(fringe[direction], (length, next(counter), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = length + seen[1 - direction][w]
                        if best is None or best > total:
                            best, meet = total, w
        raise ValueError(f"no road path between {source} and {target}")

    def route_to_trajectory(
        self,
        route: Sequence[Tuple[float, float]],
        speed_mps: float,
        interval_s: float,
        scenario: str,
        rng: np.random.Generator,
    ) -> Trajectory:
        """Convert a node route into a sampled trajectory."""
        return from_waypoints(
            route, speed_mps, interval_s, scenario=scenario,
            speed_jitter=ROUTE_SPEED_JITTER, rng=rng,
        )
