"""Network model, file formats, synthesis, and shortest paths."""

import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmway import network
from swarmway.bench import check_requests
from swarmway.formations import default_table
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
from oracles import (
    brute_shortest,
    largest_component_as_written,
    nearest_links_full_sort,
    nearest_links_grid_as_written,
    static_dijkstra_reference,
)


SMALL_WORLD = largest_connected_component(synthesize_network(12, 4))


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
        # the loader parses; the payload cap is the sweep's check
        path = tmp_path / "reqs.csv"
        path.write_text("0,1,2,0.5;2.3\n")
        requests = load_requests(path)
        assert len(requests) == 1
        with pytest.raises(NetworkFormatError, match="weight 2.3 exceeds 1.4"):
            check_requests(line_net(1.0, 1.0), requests, default_table(), ("pb",),
                           max_payload=1.4)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_check_requests_rejects_exactly_the_bad_rows_of_a_file(self, data):
        # what load_requests once checked itself: endpoints in the network,
        # packages within the payload; the first bad row is named
        ids = sorted(SMALL_WORLD.nodes)
        outside = sorted(set(range(-2, max(ids) + 3)) - set(ids)) + [99999]
        node = st.one_of(st.sampled_from(ids), st.sampled_from(outside))
        weight = st.one_of(st.sampled_from((1.4, math.nextafter(1.4, math.inf), 2.3)),
                           st.floats(0.01, 2.0))
        rows = data.draw(st.lists(st.tuples(node, node, st.lists(weight, min_size=1,
                                                                 max_size=5)),
                                  min_size=1, max_size=6))
        rows = [(rid, src, dst, ws) for rid, (src, dst, ws) in enumerate(rows) if src != dst]
        problems = []
        for rid, src, dst, ws in rows:
            problems += [f"request {rid}: unknown node {nid}"
                         for nid in (src, dst) if nid not in SMALL_WORLD.nodes]
            problems += [f"request {rid}: weight {w} exceeds 1.4" for w in ws if w > 1.4]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reqs.csv")
            with open(path, "w") as fh:
                fh.writelines(f"{rid},{src},{dst},{';'.join(map(repr, ws))}\n"
                              for rid, src, dst, ws in rows)
            requests = load_requests(path)
        check = lambda: check_requests(SMALL_WORLD, requests, default_table(), ("pb",), 1.4)
        if problems:
            with pytest.raises(NetworkFormatError) as caught:
                check()
            assert str(caught.value) == problems[0]
        else:
            check()


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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_depth_first_walk(self, data):
        # components of drawn sizes (single nodes and equal sizes among
        # them), each a random spanning tree plus extra edges, under
        # shuffled ids and segment order
        sizes = data.draw(st.lists(st.sampled_from([1, 1, 2, 3, 3, 5]),
                                   min_size=1, max_size=8))
        ids = data.draw(st.permutations(range(sum(sizes))))
        segs, at = [], 0
        for size in sizes:
            members = ids[at:at + size]
            at += size
            pairs = {(members[data.draw(st.integers(0, i - 1))], members[i])
                     for i in range(1, size)}
            pairs |= set(data.draw(st.lists(
                st.tuples(st.sampled_from(members), st.sampled_from(members)),
                max_size=size)))
            segs += [(u, v) for u, v in {(min(p), max(p)) for p in pairs} if u != v]
        segs = data.draw(st.permutations(segs))
        net = SkywayNetwork([Node(i, float(i), 0.0, 1) for i in sorted(ids)],
                            [Segment(u, v, 1.0 + (u * v) % 7, CALM) for u, v in segs])
        got = largest_connected_component(net)
        want = largest_component_as_written(net)
        assert repr(list(got.nodes.values())) == repr(list(want.nodes.values()))
        assert repr(got.segments) == repr(want.segments)


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

    @pytest.mark.parametrize("pads", [(-1, 3), (3, 1), (-2, -1), (1,), (1, 2, 3),
                                      (1.0, 3), "13", None], ids=repr)
    def test_bad_pads_rejected_before_any_draw(self, pads):
        # (-1, 3) used to pass on the seeds whose nodes all drew pads >= 0,
        # and (3, 1) failed inside random
        for seed in range(6):
            with pytest.raises(ValueError, match="pads"):
                synthesize_network(2, seed, pads=pads)

    @pytest.mark.parametrize("count", [2.5, 40.0, True, False, "40", None], ids=repr)
    def test_non_int_counts_rejected_before_any_draw(self, monkeypatch, count):
        # 2.5 and 40.0 used to fail inside random after the cluster centers
        # were drawn, and True drew one request
        net = synthesize_network(30, seed=0)
        monkeypatch.setattr(network.random, "Random", lambda *args: pytest.fail("drew"))
        with pytest.raises(ValueError, match="n_nodes"):
            synthesize_network(count, 0)
        with pytest.raises(ValueError, match=r"\bn\b"):
            synthesize_requests(net, count, 0)

    @pytest.mark.parametrize("pads", [(0, 0), (2, 2), [0, 3]], ids=repr)
    def test_pad_range_is_inclusive(self, pads):
        net = synthesize_network(40, seed=3, pads=pads)
        assert {n.pads for n in net.nodes.values()} <= set(range(pads[0], pads[1] + 1))

    def test_two_node_net_forces_the_only_pair(self):
        net = SkywayNetwork(
            [Node(3, 0, 0, 1), Node(8, 5, 0, 1)], [Segment(3, 8, 5.0, CALM)]
        )
        (req,) = synthesize_requests(net, 1, seed=0)
        assert {req.source, req.destination} == {3, 8}


class TestLinkGrid:
    """``synthesize_network``'s link step, a ring search over cells sized to
    the nodes' density, against the full sort and the 3x3 grid it replaced,
    on points placed where a search could go wrong."""

    # the 3x3 grid's cell edge, a hair over 6 km; the ring search's cells
    # are span / sqrt(n) clamped to [375 m, 6 km], so multiples of 375 m,
    # 6 km and points just below them are its edges at the clamps
    CELL = 6000.0 * (1 + 1e-9)
    # a 1.5 km lattice gives co-located points, distance ties, and pairs
    # exactly 6,000.0 m apart, some across a 6 km cell edge (3000 and 9000)
    COORDS = st.one_of(
        st.integers(0, 20).map(lambda k: 1500.0 * k),
        st.sampled_from([0.0, 30000.0, CELL, 2 * CELL, 4 * CELL,
                         math.nextafter(CELL, 0.0), math.nextafter(2 * CELL, 0.0),
                         CELL + 6000.0, 2 * CELL - 6000.0,
                         375.0, 750.0, 6375.0, math.nextafter(375.0, 0.0),
                         math.nextafter(750.0, 0.0), math.nextafter(6000.0, 0.0),
                         math.nextafter(12000.0, 0.0), 5e-324]),
        st.integers(0, 80).map(lambda k: 375.0 * k),
        st.floats(0.0, 30000.0),
    )

    @staticmethod
    def links(points, ids=None):
        ids = range(len(points)) if ids is None else ids
        nodes = [Node(i, x, y, 1) for i, (x, y) in zip(ids, points)]
        got = network._nearest_links(nodes, 6000.0, 3)
        assert got == nearest_links_full_sort(nodes)
        return got

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_grid_matches_the_full_sort(self, data):
        points = data.draw(st.lists(st.tuples(self.COORDS, self.COORDS),
                                    min_size=1, max_size=30))
        self.links(points, data.draw(st.permutations(range(len(points)))))

    def test_colocated_points_link(self):
        assert self.links([(100.0, 100.0)] * 3 + [(0.0, 0.0)]) == {
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}

    def test_exactly_reach_apart_links_across_a_cell_edge(self):
        assert self.links([(3000.0, 0.0), (9000.0, 0.0)]) == {(0, 1)}
        assert self.links([(0.0, 30000.0), (6000.0, 30000.0)]) == {(0, 1)}
        assert self.links([(3000.0, 0.0), (math.nextafter(9000.0, 1e9), 0.0)]) == set()
        assert self.links([(0.0, 0.0), (3600.0, 4800.0)]) == {(0, 1)}

    def test_reach_apart_links_at_every_offset(self):
        # one pair per row, its left end swept over two 6 km cells in 1 m
        # steps: a search whose cells or rings fell short of the reach
        # would miss some
        nodes = []
        for i in range(12000):
            nodes += [Node(2 * i, float(i), 10000.0 * i, 1),
                      Node(2 * i + 1, i + 6000.0, 10000.0 * i, 1)]
        got = network._nearest_links(nodes, 6000.0, 3)
        assert got == {(2 * i, 2 * i + 1) for i in range(12000)}

    def test_area_corners_and_cell_edges(self):
        self.links([(0.0, 0.0), (30000.0, 30000.0), (0.0, 30000.0), (30000.0, 0.0),
                    (0.0, 6000.0), (30000.0, 24000.0), (self.CELL, self.CELL),
                    (2 * self.CELL, self.CELL), (self.CELL - 6000.0, 0.0)])

    def test_distance_ties_break_by_id(self):
        # node 0 has four neighbors 5 km off; each of those has three
        # companions nearer than node 0, so only node 0's own pick links it
        points, ids = [(15000.0, 15000.0)], [0]
        nid = 10
        for oid, (dx, dy) in zip((8, 3, 6, 1), ((5000, 0), (-5000, 0), (0, 5000), (0, -5000))):
            x, y = 15000.0 + dx, 15000.0 + dy
            points.append((x, y))
            ids.append(oid)
            for off in (50.0, 100.0, 150.0):
                points.append((x + math.copysign(off, dx or 1), y + math.copysign(off, dy or 1)))
                ids.append(nid)
                nid += 1
        got = self.links(points, ids)
        assert {pair for pair in got if 0 in pair} == {(0, 1), (0, 3), (0, 6)}

    @pytest.mark.parametrize("n_nodes, seeds, pads", [
        *[pytest.param(n, (0, 1, 2), pads, id=f"{n}-pads{pads[0]}{pads[1]}")
          for n in (2, 3, 40, 276, 1000) for pads in ((1, 3), (0, 3))],
        pytest.param(276, (2118,), (0, 3), id="acceptance"),
    ])
    def test_networks_match_the_full_sort(self, monkeypatch, n_nodes, seeds, pads):
        def full_sort(nodes, reach, k):
            assert (reach, k) == (6000.0, 3)
            return nearest_links_full_sort(nodes)

        for seed in seeds:
            got = synthesize_network(n_nodes, seed, pads=pads)
            # the square the ring search's exactness argument is made for
            assert all(0.0 <= n.x <= 30000.0 and 0.0 <= n.y <= 30000.0
                       for n in got.nodes.values())
            with monkeypatch.context() as patch:
                patch.setattr(network, "_nearest_links", full_sort)
                want = synthesize_network(n_nodes, seed, pads=pads)
            assert repr(list(got.nodes.values())) == repr(list(want.nodes.values()))
            assert repr(got.segments) == repr(want.segments)


    @staticmethod
    def search_cell(points):
        """The ring search's cell side for these points, at 6 km reach."""
        xs, ys = [x for x, _ in points], [y for _, y in points]
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        return max(min(span / math.sqrt(len(points)), 6000.0), 375.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_points_on_the_search_cells_edges(self, data):
        # two corners fix the span and n fixes the cell; the rest sit on
        # its multiples, a hair either side, or a reach off one
        n = data.draw(st.integers(3, 30))
        span = data.draw(st.sampled_from([1000.0, 6000.0, 20000.0, 30000.0]))
        cell = max(min(span / math.sqrt(n), 6000.0), 375.0)
        edge = st.integers(0, int(span // cell)).flatmap(lambda k: st.sampled_from([
            k * cell, math.nextafter(k * cell, 0.0), math.nextafter(k * cell, math.inf),
            min(k * cell + 6000.0, span), max(k * cell - 6000.0, 0.0)]))
        points = [(0.0, 0.0), (span, span)] + data.draw(st.lists(
            st.tuples(edge, edge).map(lambda p: (min(p[0], span), min(p[1], span))),
            min_size=n - 2, max_size=n - 2))
        assert self.search_cell(points) == cell
        self.links(points, data.draw(st.permutations(range(n))))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_far_from_the_origin(self, data):
        # near ±1e12 the cell indices are large, but x // cell is still the
        # exact floor
        base = data.draw(st.sampled_from([1e12, -1e12]))
        step = data.draw(st.sampled_from([128.0, 1024.0, 1500.0, 2048.0]))
        coord = st.integers(-40, 40).map(lambda k: base + step * k)
        points = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
        self.links(points, data.draw(st.permutations(range(len(points)))))

    def test_third_neighbor_exactly_r_cells_away(self):
        # the span pins the cell at 6 km.  Node 5 sits a denormal left of
        # x = 0, in cell -1: nodes 6, 7 and 8 lie 6000.0 m off in rings 0
        # and 1, and node 1 lies 6000.0 m off in ring 2, so after ring 1 the
        # third distance equals 1 * cell.  Only a strict stop scans ring 2
        # and lets node 1 win the tie by id.  Each of 1, 6, 7 and 8 has three
        # companions nearer than node 5.
        points, ids = [(-5e-324, 0.0), (40000.0, 40000.0), (-40000.0, -40000.0)], [5, 2, 3]
        nid = 10
        for oid, (x, y) in ((6, (-6000.0, 0.0)), (7, (0.0, 6000.0)), (8, (0.0, -6000.0)),
                            (1, (6000.0, 0.0))):
            points.append((x, y))
            ids.append(oid)
            for off in (50.0, 100.0, 150.0):
                points.append((x + math.copysign(off, x), y + math.copysign(off, y)))
                ids.append(nid)
                nid += 1
        assert self.search_cell(points) == 6000.0
        got = self.links(points, ids)
        assert {pair for pair in got if 5 in pair} == {(1, 5), (5, 6), (5, 7)}

    @pytest.mark.parametrize("reverse", [False, True])
    def test_distance_ties_across_a_ring_boundary(self, reverse):
        # twelve nodes exactly 1 km from node 0 (3-4-5 triangles and the
        # axes); 13 points over a 2 km span make 555 m cells, so the ties
        # fall in rings 1 and 2 of node 0's cell and the smallest ids lie
        # either in the outer ring or the inner one
        offsets = [(-1000, 0), (0, -1000), (-600, -800), (-800, -600), (600, -800),
                   (-800, 600), (1000, 0), (0, 1000), (600, 800), (800, 600),
                   (-600, 800), (800, -600)]
        points = [(1000.0, 1000.0)] + [(1000.0 + dx, 1000.0 + dy) for dx, dy in offsets]
        ids = [0, *(range(12, 0, -1) if reverse else range(1, 13))]
        cell = self.search_cell(points)
        rings = {max(abs(int(x // cell) - 1), abs(int(y // cell) - 1)) for x, y in points[1:]}
        assert rings == {1, 2}
        self.links(points, ids)

    @pytest.mark.parametrize("where", [(0.0, 0.0), (100.0, 100.0), (30000.0, 0.0),
                                       (1e12, -1e12), (-5e-324, 5e-324)], ids=repr)
    def test_all_colocated(self, where):
        # a zero span puts the cell at its floor; each node takes the three
        # smallest other ids
        for n in (1, 2, 4, 5, 9):
            got = self.links([where] * n)
            assert got == {(a, b) for a in range(n) for b in range(a + 1, n) if b < 4 or a < 3}

    @pytest.mark.parametrize("gap", [0.0, 5e-324, 1.0, 375.0, 5999.0, 6000.0,
                                     math.nextafter(6000.0, math.inf), 1e6], ids=repr)
    def test_two_points(self, gap):
        for x0, y0 in ((0.0, 0.0), (-3000.0, 15000.0), (1e12, 1e12)):
            for dx, dy in ((gap, 0.0), (0.0, -gap), (gap * 0.6, gap * 0.8)):
                x1, y1 = x0 + dx, y0 + dy
                got = self.links([(x0, y0), (x1, y1)])
                assert got == ({(0, 1)} if math.hypot(x1 - x0, y1 - y0) <= 6000.0 else set())

    def test_fewer_than_three_in_reach(self):
        # 1,100 co-located nodes pin the cell at its 375 m floor, so the
        # others, with two or no nodes within reach, scan out to the reach
        points = [(12000.0, 12000.0)] * 1100 + [(0.0, 0.0), (0.0, 4000.0), (4000.0, 0.0),
                                                (12000.0, 0.0), (0.0, 12000.0)]
        nodes = [Node(i, x, y, 1) for i, (x, y) in enumerate(points)]
        assert self.search_cell(points) == 375.0
        got = network._nearest_links(nodes, 6000.0, 3)
        assert got == nearest_links_grid_as_written(nodes, 6000.0, 3)
        assert {pair for pair in got if max(pair) >= 1100} == {
            (1100, 1101), (1100, 1102), (1101, 1102)}

    @pytest.mark.parametrize("n_nodes, seed", [(5000, 0), (10000, 1)])
    def test_large_networks_match_the_grid_as_written(self, monkeypatch, n_nodes, seed):
        got = synthesize_network(n_nodes, seed)
        with monkeypatch.context() as patch:
            patch.setattr(network, "_nearest_links", nearest_links_grid_as_written)
            want = synthesize_network(n_nodes, seed)
        assert repr(got.segments) == repr(want.segments)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 400), st.integers(0, 2**32 - 1),
           st.sampled_from([(1, 3), (0, 3), (0, 0), (2, 5)]))
    def test_reruns_are_bit_identical(self, n_nodes, seed, pads):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"{i}.csv") for i in range(2)]
            for path in paths:
                save_network(synthesize_network(n_nodes, seed, pads=pads), path)
            texts = [open(path).read() for path in paths]
        assert texts[0] == texts[1]


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

    @given(world=directed_cost_worlds())
    @settings(max_examples=200, deadline=None)
    def test_a_tree_stopped_at_a_target_holds_what_settled_before_it(self, world):
        # nodes settle in (distance, id) order, so the tree stopped at t
        # holds exactly the nodes at or ahead of t in that order, each at
        # its full-tree distance, and t's route is the full tree's
        net, costs = world
        for source in net.nodes:
            full = shortest_path_tree(net, source, costs)
            for target in net.nodes:
                tree = shortest_path_tree(net, source, costs, target)
                assert tree.path_to_root(target) == full.path_to_root(target)
                if target not in full.dist:
                    assert tree.dist == full.dist  # the search ran out first
                    continue
                ahead = (full.dist[target], target)
                assert tree.dist == {v: d for v, d in full.dist.items() if (d, v) <= ahead}

    def test_a_stopped_tree_keeps_the_route_over_zero_costs(self):
        # a 0.0 edge can settle its head after a larger id at the same
        # distance, yet no settled node's distance or parent changes later
        rng = random.Random(23)
        settled_late = 0
        for _ in range(80):
            n = rng.randint(2, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            net = SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in range(n)],
                                [Segment(u, v, 1.0, CALM) for u, v in pairs])
            costs = {edge: rng.choice([0.0, 0.0, 1.0, 2.0, math.inf])
                     for u, v in pairs for edge in ((u, v), (v, u))}
            for source in range(n):
                full = shortest_path_tree(net, source, costs)
                for target in range(n):
                    tree = shortest_path_tree(net, source, costs, target)
                    assert tree.path_to_root(target) == full.path_to_root(target)
                    assert all(full.dist[v] == d for v, d in tree.dist.items())
                    if target in full.dist:
                        ahead = (full.dist[target], target)
                        settled_late += any((d, v) > ahead for v, d in tree.dist.items())
        assert settled_late > 0

    def test_tree_paths_lead_to_root(self):
        net = largest_connected_component(synthesize_network(40, seed=13))
        ids = sorted(net.nodes)
        tree = shortest_path_tree(net, ids[0])
        for b in ids[:10]:
            path = tree.path_to_root(b)
            assert path[0] == b and path[-1] == ids[0]
            for u, v in zip(path, path[1:]):
                net.segment(u, v)  # consecutive hops exist
