"""Road network construction and route sampling."""

import networkx as nx
import numpy as np
import pytest

from repro.datasets.dataset_b import DATASET_B_CITIES
from repro.geo import CitySpec, RoadNetwork, routes
from repro.world.region import _chain_highway_polylines
from tests.road_graph_reference import reference_graph, reference_highway_polylines

SOLO = [CitySpec("solo", 51.5, -0.1, half_extent_m=1000.0, street_spacing_m=250.0)]
TWO_CITIES = [
    CitySpec("a", 51.50, -0.10, half_extent_m=800.0, street_spacing_m=250.0),
    CitySpec("b", 51.46, -0.02, half_extent_m=800.0, street_spacing_m=250.0),
]
#: The cities of the shared two-city test region (``conftest.two_city_region``).
WEST_EAST = [
    CitySpec("west", 51.50, -0.10, half_extent_m=1000.0, street_spacing_m=300.0),
    CitySpec("east", 51.47, -0.02, half_extent_m=1000.0, street_spacing_m=300.0),
]
LAYOUTS = {"solo": SOLO, "two_city": TWO_CITIES, "west_east": WEST_EAST,
           "dataset_b": list(DATASET_B_CITIES)}


@pytest.fixture(scope="module")
def single_city_net():
    return RoadNetwork(SOLO)


@pytest.fixture(scope="module")
def two_city_net():
    return RoadNetwork(TWO_CITIES)


def as_nx(net):
    return nx.Graph([(u, v) for u, edges in net.adj.items() for v in edges])


def allowed_neighbors(net, node, kinds):
    return [nb for nb, edge in net.adj[node].items() if edge.kind in kinds]


class TestConstruction:
    def test_empty_cities_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork([])

    def test_grid_is_connected(self, single_city_net):
        assert nx.is_connected(as_nx(single_city_net))

    def test_street_edges_have_length(self, single_city_net):
        for edges in single_city_net.adj.values():
            for edge in edges.values():
                assert edge.kind in ("street", "highway")
                assert edge.length_m > 0

    def test_edges_are_undirected(self, two_city_net):
        for u, edges in two_city_net.adj.items():
            for v, edge in edges.items():
                assert two_city_net.adj[v][u] is edge

    def test_highway_connects_cities(self, two_city_net):
        kinds = {e.kind for edges in two_city_net.adj.values() for e in edges.values()}
        assert "highway" in kinds

    def test_highway_is_routable(self, two_city_net):
        assert nx.is_connected(as_nx(two_city_net))


class TestMatchesNetworkxReference:
    """Node order, neighbour order, edges, shortest paths and highway
    polylines equal those of the networkx graph built the same way."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_adjacency_order_and_edges(self, layout):
        net, ref = RoadNetwork(LAYOUTS[layout]), reference_graph(LAYOUTS[layout])
        assert list(net.adj) == list(ref.nodes)
        for node, edges in net.adj.items():
            assert list(edges) == list(ref.adj[node])
            for nb, edge in edges.items():
                assert (edge.kind, edge.length_m) == (
                    ref.edges[node, nb]["kind"], ref.edges[node, nb]["length_m"]
                )

    @pytest.mark.parametrize("layout", ["two_city", "west_east", "dataset_b"])
    def test_shortest_paths(self, layout):
        net, ref = RoadNetwork(LAYOUTS[layout]), reference_graph(LAYOUTS[layout])
        rng = np.random.default_rng(5)

        def draw(nodes):
            return nodes[int(rng.integers(len(nodes)))]

        nodes = list(net.adj)
        pairs = [(draw(nodes), draw(nodes)) for _ in range(150)]
        # Plus the pairs intercity routes join: across each highway.
        cities = [c.name for c in LAYOUTS[layout]]
        for a, b in zip(cities[:-1], cities[1:]):
            pairs += [(draw(net._city_nodes[a]), draw(net._city_nodes[b])) for _ in range(25)]
        for u, v in pairs:
            assert net.shortest_path(u, v) == nx.shortest_path(ref, u, v, weight="length_m")

    def test_shortest_path_to_itself(self, two_city_net):
        node = next(iter(two_city_net.adj))
        assert two_city_net.shortest_path(node, node) == [node]

    def test_disconnected_endpoints_rejected(self):
        net = RoadNetwork(TWO_CITIES, connect_highways=False)
        with pytest.raises(ValueError, match="no road path"):
            net.shortest_path(net._city_nodes["a"][0], net._city_nodes["b"][0])

    @pytest.mark.parametrize("layout", ["solo", "two_city", "west_east", "dataset_b"])
    def test_highway_polylines(self, layout):
        polylines = _chain_highway_polylines(RoadNetwork(LAYOUTS[layout]))
        assert polylines == reference_highway_polylines(reference_graph(LAYOUTS[layout]))
        assert bool(polylines) == (layout != "solo")


class TestRouteSampling:
    def test_walk_reaches_requested_length(self, single_city_net):
        rng = np.random.default_rng(0)
        route = single_city_net.random_walk_route(rng, 2000.0, city="solo")
        assert len(route) >= 2000.0 / 250.0

    def test_walk_avoids_immediate_backtrack(self, single_city_net, two_city_net, monkeypatch):
        # An A -> B -> A step is allowed only where B's sole allowed
        # neighbour is A.  Street grids have no such node; walking the
        # highways only, each end of the highway is one.
        walks = [
            (single_city_net, single_city_net.random_walk_route(
                np.random.default_rng(seed), 3000.0, city="solo"), ("street",))
            for seed in range(1, 6)
        ]
        highway = ("highway",)
        start = next(n for n in two_city_net.adj
                     if len(allowed_neighbors(two_city_net, n, highway)) == 1)
        monkeypatch.setattr(routes, "WALK_EDGE_KINDS", highway)
        walks.append((two_city_net, two_city_net.random_walk_route(
            np.random.default_rng(1), 20000.0, start_node=start), highway))
        backtracks = 0
        for net, route, kinds in walks:
            assert len(set(route)) > 2
            for a, b, c in zip(route, route[1:], route[2:]):
                if c == a:
                    assert allowed_neighbors(net, b, kinds) == [a]
                    backtracks += 1
        assert backtracks > 0

    @pytest.mark.parametrize("kinds", [("street",), ("highway",)])
    def test_walk_without_city_starts_where_it_can_move(self, two_city_net, kinds, monkeypatch):
        # With no city the start is drawn from the nodes with an edge of an
        # allowed kind: a street walk never starts inside a highway.
        monkeypatch.setattr(routes, "WALK_EDGE_KINDS", kinds)
        for seed in range(200):
            route = two_city_net.random_walk_route(np.random.default_rng(seed), 1000.0)
            assert len(route) >= 2, seed
            assert {two_city_net.adj[u][v].kind for u, v in zip(route, route[1:])} == set(kinds)

    def test_walk_without_a_road_of_its_kinds_is_refused(self, two_city_net, monkeypatch):
        monkeypatch.setattr(routes, "WALK_EDGE_KINDS", ("ferry",))
        with pytest.raises(ValueError, match="no road has an edge of kinds"):
            two_city_net.random_walk_route(np.random.default_rng(0), 1000.0)

    def test_walk_stays_on_streets(self, two_city_net):
        rng = np.random.default_rng(2)
        route = two_city_net.random_walk_route(rng, 1500.0, city="a")
        for u, v in zip(route[:-1], route[1:]):
            assert two_city_net.adj[u][v].kind == "street"

    def test_intercity_route_spans_both(self, two_city_net):
        rng = np.random.default_rng(3)
        route = two_city_net.intercity_route("a", "b", rng, city_detour_m=500.0)
        kinds = {two_city_net.adj[u][v].kind for u, v in zip(route[:-1], route[1:])}
        assert "highway" in kinds
        assert "street" in kinds

    def test_route_to_trajectory(self, single_city_net):
        rng = np.random.default_rng(4)
        route = single_city_net.random_walk_route(rng, 1500.0, city="solo")
        traj = single_city_net.route_to_trajectory(route, 10.0, 1.0, "drive", rng)
        assert len(traj) > 60
        assert traj.scenario == "drive"
        assert traj.average_speed_mps() == pytest.approx(10.0, rel=0.35)

    def test_deterministic_under_seed(self, single_city_net):
        r1 = single_city_net.random_walk_route(np.random.default_rng(9), 1000.0, city="solo")
        r2 = single_city_net.random_walk_route(np.random.default_rng(9), 1000.0, city="solo")
        assert r1 == r2
