"""Swarm sizing, formation selection, and slot assignment."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmway import preflight
from swarmway.energy import (
    SUPPORT_CAPACITY_FACTOR,
    DroneSpec,
    EnergyModel,
    make_delivery_drone,
    make_support_drone,
)
from swarmway.formations import (
    FORMATION_KINDS,
    WIND_SECTORS,
    CoefficientTable,
    default_table,
    make_formation,
)
from swarmway.network import (
    DeliveryRequest,
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    largest_connected_component,
    synthesize_network,
)
from swarmway.preflight import (
    FailureInputs,
    Swarm,
    assign_positions,
    build_swarm,
    failure_probability,
    network_diameter,
    payload_ratio,
    redundancy_count,
    route_average_wind,
    select_formation,
)

from instances import CALM, directed_cost_worlds
from oracles import diameter_every_root

MODEL = EnergyModel(DroneSpec(), default_table())


class TestPayloadRatio:
    def test_formula(self):
        assert payload_ratio([0.7, 1.4], 1.4) == (0.7 + 1.4) / 1.4 / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            payload_ratio([], 1.4)
        with pytest.raises(ValueError):
            payload_ratio([0.5], 0.0)
        with pytest.raises(ValueError):
            payload_ratio([0.0], 1.4)
        with pytest.raises(ValueError):
            payload_ratio([1.5], 1.4)


class TestFailureEstimate:
    def test_probability_formula(self):
        inputs = FailureInputs(0.5, 0.5, 1.0, 0.5)
        assert failure_probability(inputs, 4.0) == 100.0 * 4.0 * 0.125

    def test_probability_clamps_at_100(self):
        inputs = FailureInputs(1.0, 1.0, 1.0, 1.0)
        assert failure_probability(inputs, 50.0) == 100.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            FailureInputs(1.1, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            FailureInputs(0.5, -0.1, 0.5, 0.5)
        for scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scale"):
                failure_probability(FailureInputs(0.5, 0.5, 0.5, 0.5), scale)

    def test_redundancy_bands(self):
        assert redundancy_count(0.0, 5) == 1
        assert redundancy_count(19.0, 5) == 1
        assert redundancy_count(20.0, 5) == 2
        assert redundancy_count(39.99, 5) == 2
        assert redundancy_count(40.0, 5) == 3
        assert redundancy_count(60.0, 5) == 4
        assert redundancy_count(79.99, 5) == 4
        assert redundancy_count(80.0, 5) == 5
        assert redundancy_count(100.0, 3) == 3

    def test_redundancy_validation(self):
        with pytest.raises(ValueError):
            redundancy_count(-1.0, 3)
        with pytest.raises(ValueError):
            redundancy_count(101.0, 3)
        with pytest.raises(ValueError):
            redundancy_count(50.0, 0)


class TestSelectFormation:
    def test_single_drone_defaults_to_column(self):
        f = select_formation(1, Wind(10.0, 180.0), 0.0, MODEL)
        assert f.kind == "column" and f.size == 1

    def test_head_wind_prefers_vee(self):
        # heading 0, wind toward 180 -> head sector
        assert select_formation(6, Wind(8.0, 180.0), 0.0, MODEL).kind == "vee"

    def test_tail_wind_prefers_column(self):
        assert select_formation(6, Wind(8.0, 0.0), 0.0, MODEL).kind == "column"

    def test_side_wind_prefers_diamond(self):
        assert select_formation(6, Wind(8.0, 90.0), 0.0, MODEL).kind == "diamond"
        assert select_formation(6, Wind(8.0, 270.0), 0.0, MODEL).kind == "diamond"

    def test_tie_takes_declaration_order(self):
        flat = CoefficientTable({
            (kind, slot, sector): 1.0
            for kind in FORMATION_KINDS
            for slot in range(12)
            for sector in WIND_SECTORS
        })
        model = EnergyModel(DroneSpec(), flat)
        assert select_formation(4, Wind(8.0, 180.0), 0.0, model).kind == \
            FORMATION_KINDS[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            select_formation(0, Wind(8.0, 0.0), 0.0, MODEL)


def small_swarm(n_delivery, n_support, kind="column"):
    spec = DroneSpec()
    drones = [make_delivery_drone(i, 0.5 + 0.1 * i, spec) for i in range(n_delivery)]
    drones += [make_support_drone(n_delivery + k, spec) for k in range(n_support)]
    for slot, d in enumerate(drones):
        d.position = slot
    return Swarm(drones, make_formation(kind, len(drones)))


class TestAssignPositions:
    def test_location_aware_gives_delivery_the_cheap_slots(self):
        swarm = small_swarm(2, 2, "vee")
        assignment = assign_positions(swarm, "location-aware", "head", MODEL)
        order = default_table().slot_order("vee", "head", 4)
        # heavier package (id 1) flies the cheapest slot; supports take the
        # dearest slots, lowest support id at the very worst one
        assert assignment[1] == order[0]
        assert assignment[0] == order[1]
        assert assignment[2] == order[3]
        assert assignment[3] == order[2]

    def test_energy_aware_gives_support_the_cheap_slots(self):
        swarm = small_swarm(2, 2, "vee")
        assignment = assign_positions(swarm, "energy-aware", "head", MODEL)
        order = default_table().slot_order("vee", "head", 4)
        assert assignment[2] == order[0]
        assert assignment[3] == order[1]
        assert assignment[1] == order[2]
        assert assignment[0] == order[3]

    def test_equal_payload_ties_break_by_id(self):
        spec = DroneSpec()
        drones = [make_delivery_drone(i, 0.7, spec) for i in range(3)]
        for slot, d in enumerate(drones):
            d.position = slot
        swarm = Swarm(drones, make_formation("column", 3))
        assignment = assign_positions(swarm, "location-aware", "tail", MODEL)
        order = default_table().slot_order("column", "tail", 3)
        assert [assignment[i] for i in range(3)] == order

    def test_positions_written_back_to_drones(self):
        swarm = small_swarm(3, 1, "diamond")
        assignment = assign_positions(swarm, "energy-aware", "left", MODEL)
        for d in swarm.drones:
            assert d.position == assignment[d.id]

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="positioning"):
            assign_positions(small_swarm(2, 1), "fastest", "head", MODEL)

    @pytest.mark.parametrize("setting", ("location-aware", "energy-aware"))
    @pytest.mark.parametrize("kind", FORMATION_KINDS)
    def test_support_drones_never_adjacent(self, setting, kind):
        for n_delivery in range(1, 7):
            for n_support in range(1, n_delivery + 1):
                swarm = small_swarm(n_delivery, n_support, kind)
                for sector in WIND_SECTORS:
                    assign_positions(swarm, setting, sector, MODEL)
                    slots = [d.position for d in swarm.support_drones()]
                    for a, b in itertools.combinations(slots, 2):
                        assert not swarm.formation.adjacent(a, b), (
                            setting, kind, sector, n_delivery, n_support
                        )


class TestSwarmType:
    def test_validation(self):
        spec = DroneSpec()
        drones = [make_delivery_drone(0, 0.5, spec)]
        with pytest.raises(ValueError):
            Swarm(drones, make_formation("column", 2))
        two = [make_delivery_drone(i, 0.5, spec) for i in range(2)]
        # both parked at slot 0
        with pytest.raises(ValueError, match="permutation"):
            Swarm(two, make_formation("column", 2))

    def test_lookups(self):
        swarm = small_swarm(2, 1)
        assert [d.id for d in swarm.delivery_drones()] == [0, 1]
        assert [d.id for d in swarm.support_drones()] == [2]


class TestRouteStats:
    def line_net(self, winds):
        nodes = [Node(i, 1000.0 * i, 0.0, 2) for i in range(len(winds) + 1)]
        segs = [
            Segment(i, i + 1, 1000.0, w) for i, w in enumerate(winds)
        ]
        return SkywayNetwork(nodes, segs)

    def test_average_wind_speed_is_arithmetic_mean(self):
        net = self.line_net([Wind(4.0, 0.0), Wind(8.0, 0.0)])
        avg = route_average_wind(net, [0, 1, 2])
        assert avg.speed == 6.0
        assert avg.direction == 0.0

    def test_average_direction_is_circular(self):
        net = self.line_net([Wind(5.0, 350.0), Wind(5.0, 10.0)])
        avg = route_average_wind(net, [0, 1, 2])
        assert avg.direction == pytest.approx(0.0, abs=1e-9)
        net2 = self.line_net([Wind(5.0, 90.0), Wind(5.0, 0.0)])
        assert route_average_wind(net2, [0, 1, 2]).direction == pytest.approx(45.0)

    def test_average_wind_validation(self):
        net = self.line_net([Wind(5.0, 0.0)])
        with pytest.raises(ValueError, match="at least one segment"):
            route_average_wind(net, [0])

    def test_network_diameter(self):
        net = self.line_net([Wind(5.0, 0.0), Wind(5.0, 0.0)])
        assert network_diameter(net) == 2000.0


@st.composite
def large_worlds(draw):
    """20-60 nodes in up to three components, each a random tree plus a few
    chords; node ids shuffled, so any component may hold the smallest id.
    Lengths are free floats, or tenths, whose sums round differently in
    different orders."""
    n = draw(st.integers(20, 60))
    ids = draw(st.permutations(range(n)))
    starts = sorted({0} | draw(st.sets(st.integers(1, n - 1), max_size=2)))
    weight = draw(st.sampled_from([
        st.floats(0.5, 5000.0, allow_nan=False),
        st.integers(1, 30).map(lambda k: k / 10),
    ]))
    pairs = set()
    for first, end in zip(starts, starts[1:] + [n]):
        for i in range(first + 1, end):
            pairs.add((draw(st.integers(first, i - 1)), i))
        if end - first > 2:
            for _ in range(draw(st.integers(0, 4))):
                u, v = sorted(draw(st.lists(st.integers(first, end - 1), min_size=2,
                                            max_size=2, unique=True)))
                pairs.add((u, v))
    segs = [Segment(ids[u], ids[v], draw(weight), CALM) for u, v in sorted(pairs)]
    return SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in range(n)], segs)


def chain(lengths, ids):
    """Nodes ``ids`` in a line, ``lengths`` between consecutive ones."""
    return SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in ids],
                         [Segment(u, v, d, CALM)
                          for u, v, d in zip(ids, ids[1:], lengths)])


class TestDiameter:
    """``network_diameter`` prunes roots by eccentricity bounds and returns
    the float of a Dijkstra from every node (``diameter_every_root``)."""

    @settings(max_examples=200, deadline=None)
    @given(directed_cost_worlds())
    def test_small_graphs_match_every_root(self, world):
        net, _ = world  # lengths only; the directed costs play no part
        assert network_diameter(net) == diameter_every_root(net)

    @settings(max_examples=100, deadline=None)
    @given(large_worlds())
    def test_large_graphs_match_every_root(self, net):
        assert network_diameter(net) == diameter_every_root(net)

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [3, 2, 1, 0]])
    def test_either_end_first_gives_the_larger_float(self, ids):
        # summed from the 0.1 end: 0.30000000000000004 + 0.3; from the 0.3 end: 0.5 + 0.1
        net = chain([0.1, 0.2, 0.3], ids)
        assert network_diameter(net) == diameter_every_root(net) == 0.6000000000000001

    def test_a_bound_that_rounds_below_the_best_keeps_its_node(self):
        # 3 -0.2- 2 -0.4- 1 -0.3- 0 -0.9- 4.  Root 0 bounds node 3 by
        # 0.9 + 0.8999999999999999 = 1.7999999999999998, root 4 then reads 1.8,
        # yet node 3's own eccentricity sums to 1.8000000000000003
        net = chain([0.2, 0.4, 0.3, 0.9], [3, 2, 1, 0, 4])
        assert network_diameter(net) == diameter_every_root(net) == 1.8000000000000003

    def test_the_diameter_may_lie_in_the_component_without_the_smallest_id(self):
        net = SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in range(5)],
                            [Segment(0, 1, 1.0, CALM), Segment(2, 3, 5.0, CALM),
                             Segment(3, 4, 7.0, CALM)])
        assert network_diameter(net) == diameter_every_root(net) == 12.0

    def test_no_segments_gives_zero(self):
        assert network_diameter(SkywayNetwork([], [])) == 0.0
        net = SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in range(3)], [])
        assert network_diameter(net) == diameter_every_root(net) == 0.0

    @pytest.mark.parametrize("seed, pads, size", [(2118, (0, 3), 195), (0, (1, 3), 263)])
    def test_worlds_take_a_handful_of_runs(self, monkeypatch, seed, pads, size):
        # the acceptance world and the CLI world; a Dijkstra per node took 195 and 263
        net = largest_connected_component(synthesize_network(276, seed, pads=pads))
        assert len(net.nodes) == size
        runs = []
        tree = preflight.shortest_path_tree
        monkeypatch.setattr(preflight, "shortest_path_tree",
                            lambda net, root: runs.append(root) or tree(net, root))
        assert network_diameter(net) == diameter_every_root(net)
        assert len(runs) <= 20


class TestBuildSwarm:
    def request(self, weights):
        return DeliveryRequest(0, 0, 1, weights)

    def build(self, weights, **kwargs):
        defaults = dict(
            route_wind=Wind(6.0, 180.0),
            route_heading=0.0,
            route_distance_m=9000.0,
            diameter_m=30000.0,
        )
        defaults.update(kwargs)
        return build_swarm(self.request(weights), MODEL, **defaults)

    def test_roles_ids_and_payloads(self):
        swarm = self.build([0.9, 0.4, 1.2])
        delivery = swarm.delivery_drones()
        assert [d.id for d in delivery] == [0, 1, 2]
        assert [d.payload for d in delivery] == [0.9, 0.4, 1.2]
        support = swarm.support_drones()
        assert support and [d.id for d in support] == \
            list(range(3, 3 + len(support)))
        cap = MODEL.spec.battery_capacity
        assert [d.capacity for d in delivery] == [cap] * 3
        assert all(d.capacity == SUPPORT_CAPACITY_FACTOR * cap for d in support)
        assert swarm.formation.size == len(swarm.drones)

    def test_without_support(self):
        swarm = self.build([0.9, 0.4], include_support=False)
        assert swarm.support_drones() == []
        assert swarm.formation.size == 2

    def test_failure_scale_drives_support_count(self):
        lean = self.build([0.9, 0.4, 1.2], failure_scale=1e-6)
        doubled = self.build([0.9, 0.4, 1.2], failure_scale=1e6)
        assert len(lean.support_drones()) == 1
        assert len(doubled.support_drones()) == 3

    def test_positioning_setting_respected(self):
        swarm = self.build([0.9, 0.4, 1.2], positioning="energy-aware")
        order = MODEL.coeffs.slot_order(
            swarm.formation.kind, "head", swarm.formation.size
        )
        n_support = len(swarm.support_drones())
        support_slots = {d.position for d in swarm.support_drones()}
        assert support_slots == set(order[:n_support])

    def test_head_wind_swarm_flies_vee(self):
        swarm = self.build([0.9, 0.4, 1.2])
        assert swarm.formation.kind == "vee"
