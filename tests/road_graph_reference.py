"""networkx reference for :class:`repro.geo.RoadNetwork`.

``reference_graph`` builds the road network as an ``nx.Graph`` with the
node and edge insertion sequence ``RoadNetwork`` has always used, so its
neighbour order is the order a seeded walk and a shortest-path search
must see.  (``nx.Graph(network.adj)`` is not a reference: it adds edges
node by node and reorders the neighbours of the last interior node of
each highway.)  ``reference_highway_polylines`` chains the highway edges
of such a graph the way regions always have.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.geo import CitySpec
from repro.geo.coords import LocalFrame


def reference_graph(cities: Sequence[CitySpec], connect_highways: bool = True) -> nx.Graph:
    graph = nx.Graph()
    city_nodes = {}
    for city in cities:
        frame = LocalFrame(city.center_lat, city.center_lon)
        n_half = int(city.half_extent_m // city.street_spacing_m)
        offsets = np.arange(-n_half, n_half + 1) * city.street_spacing_m
        grid = {}
        for i, x in enumerate(offsets):
            for j, y in enumerate(offsets):
                lat, lon = frame.to_latlon(x, y)
                grid[(i, j)] = (float(lat), float(lon))
                graph.add_node(grid[(i, j)])
        for (i, j), node in grid.items():
            for di, dj in ((1, 0), (0, 1)):
                neighbor = grid.get((i + di, j + dj))
                if neighbor is not None:
                    graph.add_edge(node, neighbor, kind="street", length_m=city.street_spacing_m)
        city_nodes[city.name] = list(grid.values())

    def nearest(name, lat, lon):
        nodes = city_nodes[name]
        arr = np.array(nodes)
        return nodes[int(np.argmin((arr[:, 0] - lat) ** 2 + (arr[:, 1] - lon) ** 2))]

    if not (connect_highways and len(cities) > 1):
        return graph
    frame = LocalFrame(cities[0].center_lat, cities[0].center_lon)
    for a, b in zip(cities[:-1], cities[1:]):
        start = nearest(a.name, b.center_lat, b.center_lon)
        end = nearest(b.name, a.center_lat, a.center_lon)
        sx, sy = frame.to_xy(*start)
        ex, ey = frame.to_xy(*end)
        length = math.hypot(ex - sx, ey - sy)
        n_seg = max(2, int(length // 500.0))
        prev = start
        for k in range(1, n_seg + 1):
            frac = k / n_seg
            lat, lon = frame.to_latlon(sx + frac * (ex - sx), sy + frac * (ey - sy))
            node = (float(lat), float(lon)) if k < n_seg else end
            if node not in graph:
                graph.add_node(node)
            graph.add_edge(prev, node, kind="highway", length_m=length / n_seg)
            prev = node
    return graph


def reference_highway_polylines(graph: nx.Graph) -> List[List[Tuple[float, float]]]:
    highway_edges = [(u, v) for u, v, kind in graph.edges(data="kind") if kind == "highway"]
    if not highway_edges:
        return []
    subgraph = nx.Graph(highway_edges)
    polylines = []
    for component in nx.connected_components(subgraph):
        piece = subgraph.subgraph(component)
        endpoints = [node for node in piece.nodes if piece.degree(node) == 1]
        start = endpoints[0] if endpoints else next(iter(piece.nodes))
        polyline = [start]
        prev, node = None, start
        while True:
            neighbors = [n for n in piece.neighbors(node) if n != prev]
            if not neighbors:
                break
            prev, node = node, neighbors[0]
            polyline.append(node)
            if node == start:
                break
        if len(polyline) >= 2:
            polylines.append(polyline)
    return polylines
