"""Network model, file formats, synthesis, and shortest paths."""

import math
import random

import pytest
from hypothesis import given, settings

from swarmway.network import (
    MAX_WIND_SPEED,
    DeliveryRequest,
    NetworkFormatError,
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    largest_connected_component,
    load_network,
    load_requests,
    save_network,
    shortest_path_tree,
    synthesize_network,
    synthesize_requests,
)

from instances import CALM, directed_cost_worlds
from oracles import brute_shortest, static_dijkstra_reference


def line_net(*dists, pads=2, wind=CALM):
    nodes = [Node(i, 1000.0 * i, 0.0, pads) for i in range(len(dists) + 1)]
    segs = [Segment(i, i + 1, d, wind) for i, d in enumerate(dists)]
    return SkywayNetwork(nodes, segs)


class TestTypes:
    def test_wind_direction_wraps(self):
        assert Wind(5.0, 370.0).direction == 10.0
        assert Wind(5.0, -90.0).direction == 270.0

    def test_wind_speed_bounds(self):
        Wind(0.0, 0.0)
        Wind(13.799, 0.0)
        with pytest.raises(ValueError):
            Wind(13.8, 0.0)
        with pytest.raises(ValueError):
            Wind(-0.1, 0.0)

    def test_node_pads_nonnegative(self):
        with pytest.raises(ValueError):
            Node(1, 0.0, 0.0, -1)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(1, 1, 100.0, CALM)
        with pytest.raises(ValueError):
            Segment(1, 2, 0.0, CALM)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Segment(1, 2, bad, CALM)
        with pytest.raises(TypeError):
            Segment(1, 2, 5.0)
        with pytest.raises(TypeError, match="wind must be a Wind"):
            Segment(1, 2, 5.0, None)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            DeliveryRequest(0, 3, 3, [1.0])
        with pytest.raises(ValueError):
            DeliveryRequest(0, 1, 2, [])
        with pytest.raises(ValueError):
            DeliveryRequest(0, 1, 2, [1.0, 0.0])

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="duplicate node"):
            SkywayNetwork([Node(1, 0, 0, 1), Node(1, 5, 5, 1)], [])

    def test_duplicate_segment_rejected(self):
        nodes = [Node(1, 0, 0, 1), Node(2, 5, 5, 1)]
        with pytest.raises(ValueError, match="duplicate segment"):
            SkywayNetwork(nodes, [Segment(1, 2, 5.0, CALM),
                                  Segment(2, 1, 7.0, CALM)])

    def test_segment_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            SkywayNetwork([Node(1, 0, 0, 1)], [Segment(1, 2, 5.0, CALM)])

    def test_neighbors_sorted(self):
        net = SkywayNetwork(
            [Node(i, i, 0, 1) for i in range(4)],
            [Segment(0, 3, 1.0, CALM), Segment(0, 1, 1.0, CALM),
             Segment(0, 2, 1.0, CALM)],
        )
        assert net.neighbors(0) == [1, 2, 3]

    def test_heading(self):
        net = SkywayNetwork(
            [Node(0, 0.0, 0.0, 1), Node(1, 100.0, 100.0, 1)],
            [Segment(0, 1, 141.4, CALM)],
        )
        assert net.heading(0, 1) == pytest.approx(45.0)
        assert net.heading(1, 0) == pytest.approx(225.0)


class TestFiles:
    def test_network_round_trip(self, tmp_path):
        net = synthesize_network(40, seed=7)
        path = tmp_path / "net.csv"
        save_network(net, path)
        loaded = load_network(path)
        assert sorted(loaded.nodes) == sorted(net.nodes)
        for nid, node in net.nodes.items():
            other = loaded.nodes[nid]
            assert (other.x, other.y, other.pads) == (node.x, node.y, node.pads)
        assert len(loaded.segments) == len(net.segments)
        for seg in net.segments:
            twin = loaded.segment(seg.u, seg.v)
            assert twin.distance_m == seg.distance_m
            assert twin.wind.speed == seg.wind.speed
            assert twin.wind.direction == seg.wind.direction

    def test_round_trip_is_byte_stable(self, tmp_path):
        net = synthesize_network(30, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_network(net, p1)
        save_network(load_network(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nodes\n1,0.0,0.0,2\noops,0,0,1\n")
        with pytest.raises(NetworkFormatError, match="line 3"):
            load_network(path)

    def test_load_requires_section_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.0,0.0,2\n")
        with pytest.raises(NetworkFormatError, match="section header"):
            load_network(path)

    def test_load_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nodes\n1,0.0,0.0,2\nsegments\n1,2\n")
        with pytest.raises(NetworkFormatError, match="line 4"):
            load_network(path)

    def test_segment_rows_without_wind_are_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("nodes\n1,0.0,0.0,2\n2,9.0,0.0,1\nsegments\n1,2,9.0\n")
        with pytest.raises(NetworkFormatError,
                           match=r"line 5: segment \(1, 2\) has no wind data; planning"):
            load_network(path)

    def test_requests_round_trip(self, tmp_path):
        net = synthesize_network(20, seed=2)
        reqs = synthesize_requests(net, 25, seed=5)
        path = tmp_path / "reqs.csv"
        path.write_text("".join(
            f"{r.id},{r.source},{r.destination},{';'.join(map(repr, r.package_weights))}\n"
            for r in reqs
        ))
        cells = lambda rs: [(r.id, r.source, r.destination, r.package_weights) for r in rs]
        assert cells(load_requests(path)) == cells(reqs)

    def test_load_requests_weight_cap(self, tmp_path):
        path = tmp_path / "reqs.csv"
        path.write_text("0,1,2,0.5;2.3\n")
        assert len(load_requests(path)) == 1
        with pytest.raises(NetworkFormatError, match="exceeds"):
            load_requests(path, max_weight=1.4)


class TestComponents:
    def test_largest_component_kept(self):
        nodes = [Node(i, i, 0, 1) for i in range(6)]
        segs = [Segment(0, 1, 1.0, CALM), Segment(2, 3, 1.0, CALM),
                Segment(3, 4, 1.0, CALM)]
        lcc = largest_connected_component(SkywayNetwork(nodes, segs))
        assert sorted(lcc.nodes) == [2, 3, 4]
        assert len(lcc.segments) == 2

    def test_component_tie_keeps_smallest_id(self):
        nodes = [Node(i, i, 0, 1) for i in range(4)]
        segs = [Segment(2, 3, 1.0, CALM), Segment(0, 1, 1.0, CALM)]
        lcc = largest_connected_component(SkywayNetwork(nodes, segs))
        assert sorted(lcc.nodes) == [0, 1]

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(SkywayNetwork([], []))


class TestSynthesis:
    def test_same_seed_same_network(self):
        a = synthesize_network(50, seed=11)
        b = synthesize_network(50, seed=11)
        assert sorted(a.nodes) == sorted(b.nodes)
        assert [(s.u, s.v, s.distance_m) for s in a.segments] == [
            (s.u, s.v, s.distance_m) for s in b.segments
        ]
        assert [(s.wind.speed, s.wind.direction) for s in a.segments] == [
            (s.wind.speed, s.wind.direction) for s in b.segments
        ]

    def test_different_seeds_differ(self):
        a = synthesize_network(50, seed=11)
        b = synthesize_network(50, seed=12)
        assert [(s.u, s.v) for s in a.segments] != [(s.u, s.v) for s in b.segments]

    def test_colocated_nodes_get_no_segment(self):
        # seed 1 at this size clamps two nodes onto the same boundary point
        net = synthesize_network(276, seed=1)
        for seg in net.segments:
            assert seg.distance_m > 0

    def test_wind_attached_and_in_range(self):
        net = synthesize_network(30, seed=0)
        for seg in net.segments:
            assert 0.0 <= seg.wind.speed < 13.8
            assert 0.0 <= seg.wind.direction < 360.0

    def test_wind_is_drawn_from_the_seed_in_segment_order(self):
        # speed then direction per segment, in (u, v) order, from a
        # generator of its own: the same fields as before the wind was
        # drawn inside synthesize_network
        for seed in (0, 4):
            net = synthesize_network(40, seed=seed)
            rng = random.Random(seed)
            for seg in sorted(net.segments, key=lambda s: (s.u, s.v)):
                assert seg.wind == Wind(rng.uniform(0.0, MAX_WIND_SPEED),
                                        rng.uniform(0.0, 360.0))

    def test_requests_valid_and_seeded(self):
        net = synthesize_network(30, seed=0)
        a = synthesize_requests(net, 50, seed=9)
        b = synthesize_requests(net, 50, seed=9)
        assert len(a) == 50
        for ra, rb in zip(a, b):
            assert (ra.source, ra.destination) == (rb.source, rb.destination)
            assert ra.package_weights == rb.package_weights
            assert ra.source != ra.destination
            assert 2 <= len(ra.package_weights) <= 5
            for w in ra.package_weights:
                assert 0.0 < w <= 1.4

    def test_two_node_net_forces_the_only_pair(self):
        net = SkywayNetwork(
            [Node(3, 0, 0, 1), Node(8, 5, 0, 1)], [Segment(3, 8, 5.0, CALM)]
        )
        (req,) = synthesize_requests(net, 1, seed=0)
        assert {req.source, req.destination} == {3, 8}


class TestShortestPaths:
    def test_matches_brute_force_on_random_graphs(self):
        # random graphs stay tiny so full path enumeration is cheap
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randint(2, 8)
            nodes = [Node(i, rng.uniform(0, 100), rng.uniform(0, 100), 1)
                     for i in range(n)]
            segs = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.45:
                        segs.append(Segment(u, v, rng.uniform(1.0, 50.0), CALM))
            net = SkywayNetwork(nodes, segs)
            for a in range(n):
                tree = shortest_path_tree(net, a)
                for b in range(n):
                    dist = tree.distance(b)
                    assert dist == brute_shortest(net, a, b) or (
                        math.isinf(dist) and math.isinf(brute_shortest(net, a, b))
                    )
                    if math.isfinite(dist) and a != b:
                        path = tree.path_to_root(b)[::-1]
                        assert path[0] == a and path[-1] == b
                        total = 0.0
                        for u, v in zip(path, path[1:]):
                            total += net.segment(u, v).distance_m
                        assert total == dist

    def test_unreachable_returns_inf(self):
        net = SkywayNetwork([Node(0, 0, 0, 1), Node(1, 9, 0, 1)], [])
        tree = shortest_path_tree(net, 0)
        assert math.isinf(tree.distance(1))
        assert tree.path_to_root(1) == []

    def test_same_node_distance_zero(self):
        tree = shortest_path_tree(line_net(1000.0), 0)
        assert tree.distance(0) == 0.0
        assert tree.path_to_root(0) == [0]

    def test_ties_keep_the_first_found_parent(self):
        # two 10 m routes 0->3: via 2 is found first (2 settles at 4 m,
        # before 1 at 5 m), so it wins over the lexicographically smaller
        # route via 1; with or without costs
        nodes = [Node(i, i, 0, 1) for i in range(4)]
        segs = [Segment(0, 1, 5.0, CALM), Segment(1, 3, 5.0, CALM),
                Segment(0, 2, 4.0, CALM), Segment(2, 3, 6.0, CALM)]
        net = SkywayNetwork(nodes, segs)
        costs = {}
        for seg in segs:
            costs[(seg.u, seg.v)] = costs[(seg.v, seg.u)] = seg.distance_m
        for tree in (shortest_path_tree(net, 0), shortest_path_tree(net, 0, costs)):
            assert tree.distance(3) == 10.0
            assert tree.path_to_root(3) == [3, 2, 0]

    def test_tree_agrees_with_point_queries(self):
        net = largest_connected_component(synthesize_network(20, seed=13))
        ids = sorted(net.nodes)
        for root in ids:
            tree = shortest_path_tree(net, root)
            for b in ids:
                assert tree.distance(b) == brute_shortest(net, root, b)

    @given(world=directed_cost_worlds())
    @settings(max_examples=300, deadline=None)
    def test_tree_matches_the_static_dijkstra_reference(self, world):
        net, costs = world
        lengths = {}
        for seg in net.segments:
            lengths[(seg.u, seg.v)] = lengths[(seg.v, seg.u)] = seg.distance_m
        for source in net.nodes:
            for tree, edge_costs in ((shortest_path_tree(net, source, costs), costs),
                                     (shortest_path_tree(net, source), lengths)):
                want = static_dijkstra_reference(net, edge_costs, source)
                assert (tree.dist, tree.parent) == want

    def test_tree_paths_lead_to_root(self):
        net = largest_connected_component(synthesize_network(40, seed=13))
        ids = sorted(net.nodes)
        tree = shortest_path_tree(net, ids[0])
        for b in ids[:10]:
            path = tree.path_to_root(b)
            assert path[0] == b and path[-1] == ids[0]
            for u, v in zip(path, path[1:]):
                net.segment(u, v)  # consecutive hops exist
