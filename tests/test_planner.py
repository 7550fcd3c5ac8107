"""Leg feasibility, route composition, and the static baselines."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmway.energy import (
    DroneSpec,
    EnergyModel,
    consumption_rate,
    make_delivery_drone,
    make_support_drone,
    pad_schedule,
    travel_time,
)
from swarmway.formations import (
    FORMATION_KINDS,
    WIND_SECTORS,
    CoefficientTable,
    default_table,
    make_formation,
    wind_sector,
)
from swarmway.network import DeliveryRequest, Node, Segment, SkywayNetwork, Wind
from swarmway.planner import (
    FLOOR_TOLERANCE,
    ShareConfig,
    _grid_feasible,
    check_support_spacing,
    compose,
    dijkstra_baseline,
    feasible_leg,
    floyd_warshall_baseline,
    floyd_warshall_tables,
    static_dijkstra,
    static_edge_costs,
)
from swarmway import planner
from swarmway.bench import ExperimentConfig, run_experiment
from swarmway.network import (
    largest_connected_component,
    shortest_path_tree,
    synthesize_network,
    synthesize_requests,
)
from swarmway.preflight import POSITIONING_SETTINGS, Swarm, assign_positions

from oracles import grid_scan_feasible, leg_grid_feasible

FLAT = CoefficientTable({
    (kind, slot, sector): 1.0
    for kind in FORMATION_KINDS
    for slot in range(12)
    for sector in WIND_SECTORS
})

CALM = Wind(0.0, 0.0)


def line_net(*km, pads=1, wind=CALM):
    """Chain of nodes spaced along +x, one segment per consecutive pair."""
    xs = [0.0]
    for d in km:
        xs.append(xs[-1] + d * 1000.0)
    if isinstance(pads, int):
        pads = [pads] * len(xs)
    nodes = [Node(i, x, 0.0, p) for i, (x, p) in enumerate(zip(xs, pads))]
    segs = [Segment(i, i + 1, km[i] * 1000.0, wind) for i in range(len(km))]
    return SkywayNetwork(nodes, segs)


def model_for(spec, payload_gain=0.0):
    return EnergyModel(spec, FLAT, payload_gain)


def swarm_of(drones, kind="column"):
    for slot, d in enumerate(drones):
        d.position = slot
    return Swarm(drones, make_formation(kind, len(drones)))


# capacity 4096, flat drain 64/min, 1 km/min, dyadic share and pad rates
SHARE_SPEC = DroneSpec(
    battery_capacity=4096.0,
    cruise_speed=60.0,
    inflight_share_rate=128.0,
    pad_charge_rate=64.0,
    base_consumption_rate=64.0,
)


class TestFeasibleLeg:
    def plain_pair(self):
        spec = DroneSpec(battery_capacity=700.0, cruise_speed=60.0,
                         base_consumption_rate=50.0)
        drones = [make_delivery_drone(0, 0.5, spec), make_delivery_drone(1, 0.9, spec)]
        return swarm_of(drones), model_for(spec)

    def test_enough_battery_needs_no_plan(self):
        swarm, model = self.plain_pair()
        net = line_net(6)
        leg = feasible_leg(swarm, net, 0, 1, model)
        assert leg is not None
        assert (leg.u, leg.v, leg.distance_m, leg.tt) == (0, 1, 6000.0, 6.0)
        assert leg.plan is None and leg.shared == 0.0
        for d in swarm.drones:
            assert leg.consumed[d.id] == 50.0 * 6.0
            assert leg.batteries_after[d.id] == 700.0 - 300.0
            assert leg.traces[d.id] == [(0.0, 700.0), (6.0, 400.0)]

    def test_depleted_drone_makes_the_leg_infeasible(self):
        swarm, model = self.plain_pair()
        swarm.drones[0].battery = 250.0
        assert feasible_leg(swarm, line_net(6), 0, 1, model) is None

    def test_windless_segment_rejected(self):
        swarm, model = self.plain_pair()
        net = line_net(6, wind=None)
        with pytest.raises(ValueError, match="no wind data"):
            feasible_leg(swarm, net, 0, 1, model)

    def rescue_pair(self, consumer_mah, provider_mah):
        d0 = make_delivery_drone(0, 0.0, SHARE_SPEC)
        d0.battery = consumer_mah
        s1 = make_support_drone(1, SHARE_SPEC)
        s1.battery = provider_mah
        return swarm_of([d0, s1]), model_for(SHARE_SPEC)

    def test_priority_transfer_rescues_the_leg(self):
        swarm, model = self.rescue_pair(512.0, 8192.0)
        net = line_net(16)
        assert feasible_leg(swarm, net, 0, 1, model) is None
        leg = feasible_leg(swarm, net, 0, 1, model, share=ShareConfig("pb"))
        assert leg is not None
        # the refill request is cut at the 16-minute window: 128 mAh/min
        a = leg.plan.allocations[0]
        assert (a.provider, a.consumer, a.start, a.duration, a.amount) == \
            (1, 0, 0.0, 16.0, 2048.0)
        assert leg.batteries_after[0] == 512.0 - 1024.0 + 2048.0
        assert leg.batteries_after[1] == 8192.0 - 1024.0 - 2048.0
        assert leg.plan.provider_given == {1: 2048.0}
        assert leg.plan.consumer_gained == {0: 2048.0}
        rates = {0: 64.0, 1: 64.0}
        assert leg_grid_feasible({0: 512.0, 1: 8192.0}, rates,
                                 leg.plan.allocations, 16.0)
        assert not leg_grid_feasible({0: 512.0, 1: 8192.0}, rates, [], 16.0)

    def test_fairness_transfer_rescues_the_leg(self):
        swarm, model = self.rescue_pair(512.0, 8192.0)
        leg = feasible_leg(swarm, line_net(16), 0, 1, model,
                           share=ShareConfig("fb", quantum=2048.0, delta_frac=0.0))
        assert leg is not None
        assert leg.plan.total_shared == 2048.0

    def test_offer_cannot_exceed_provider_surplus(self):
        # provider has 76 mAh beyond its own drain: not enough for either
        # composer to keep the consumer alive
        swarm, model = self.rescue_pair(512.0, 1100.0)
        net = line_net(16)
        assert feasible_leg(swarm, net, 0, 1, model, share=ShareConfig("pb")) is None
        assert feasible_leg(swarm, net, 0, 1, model,
                            share=ShareConfig("fb", quantum=512.0)) is None

    def test_dip_between_whole_minutes_is_tolerated(self):
        spec = DroneSpec(battery_capacity=4096.0, cruise_speed=60.0,
                         inflight_share_rate=1024.0, pad_charge_rate=64.0,
                         base_consumption_rate=64.0)
        model = model_for(spec, payload_gain=1.0)
        d0 = make_delivery_drone(0, 0.0, spec)       # 64 mAh/min
        d0.battery = 2048.0
        d1 = make_delivery_drone(1, 1.4, spec)       # 128 mAh/min
        d1.battery = 160.0
        s2 = make_support_drone(2, spec)
        swarm = swarm_of([d0, d1, s2])
        net = line_net(8)
        assert feasible_leg(swarm, net, 0, 1, model) is None
        cfg = ShareConfig("fb", quantum=1536.0, delta_frac=0.0)
        leg = feasible_leg(swarm, net, 0, 1, model, share=cfg)
        # d1 goes under at t=1.5, after the minute-1 check and before the
        # round-robin reaches it; the refill lands before minute 2
        assert leg is not None
        assert min(b for _, b in leg.traces[1]) < 0.0
        assert all(leg.batteries_after[i] >= 0.0 for i in (0, 1, 2))

    def test_two_providers_serve_disjoint_blocks(self):
        drones = []
        for i, slot in enumerate((0, 2, 3, 5)):
            d = make_delivery_drone(i, 0.0, SHARE_SPEC)
            d.battery = 3200.0
            d.position = slot
            drones.append(d)
        s4 = make_support_drone(4, SHARE_SPEC)
        s4.battery = 8192.0
        s4.position = 1
        s5 = make_support_drone(5, SHARE_SPEC)
        s5.battery = 8192.0
        s5.position = 4
        swarm = Swarm(drones + [s4, s5], make_formation("column", 6))
        leg = feasible_leg(swarm, line_net(16), 0, 1, model_for(SHARE_SPEC),
                           share=ShareConfig("pb"))
        assert leg is not None
        # each provider refills its own two drones, then the re-poll tops
        # the first one up again until the window cuts the service short
        assert leg.plan.provider_given == {4: 2048.0, 5: 2048.0}
        assert leg.plan.consumer_gained == {0: 1152.0, 1: 896.0, 2: 1152.0, 3: 896.0}
        # the two providers run concurrently over their own consumers
        starts = sorted(a.start for a in leg.plan.allocations)
        assert starts == [0.0, 0.0, 7.0, 7.0, 14.0, 14.0]

    def test_blocks_that_cannot_share_drain_as_without_sharing(self):
        # provider 4 serves full drones 0 and 1; provider 5 serves drone 2,
        # which is low, and the full drone 3
        drones = []
        for i, slot in enumerate((0, 2, 3, 5)):
            d = make_delivery_drone(i, 0.0, SHARE_SPEC)
            d.position = slot
            drones.append(d)
        drones[2].battery = 1000.0
        s4 = make_support_drone(4, SHARE_SPEC)
        s4.position = 1
        s5 = make_support_drone(5, SHARE_SPEC)
        s5.position = 4
        swarm = Swarm(drones + [s4, s5], make_formation("column", 6))
        model = model_for(SHARE_SPEC)
        net = line_net(7.3)
        plain = feasible_leg(swarm, net, 0, 1, model)
        for cfg in (ShareConfig("pb"), ShareConfig("fb", delta_frac=0.0)):
            leg = feasible_leg(swarm, net, 0, 1, model, share=cfg)
            assert [a.consumer for a in leg.plan.allocations] == [2]
            assert list(leg.plan.provider_given) == [4, 5]
            assert leg.plan.provider_given[4] == 0.0
            assert list(leg.plan.consumer_gained.items())[:2] == [(0, 0.0), (1, 0.0)]
            assert list(leg.consumed) == [4, 0, 1, 5, 2, 3]
            for i in (4, 0, 1):
                assert leg.consumed[i] == plain.consumed[i]
                assert leg.batteries_after[i] == plain.batteries_after[i]
                assert leg.traces[i] == plain.traces[i]
        # a shared leg where no block can share still carries an empty plan
        drones[2].battery = SHARE_SPEC.battery_capacity
        plain = feasible_leg(swarm, net, 0, 1, model)
        leg = feasible_leg(swarm, net, 0, 1, model, share=ShareConfig("pb"))
        assert leg.plan is not None and leg.plan.allocations == []
        assert leg.plan.provider_given == {4: 0.0, 5: 0.0}
        assert leg.consumed == plain.consumed
        assert leg.traces == plain.traces

    def test_share_config_validation(self):
        with pytest.raises(ValueError):
            ShareConfig("greedy")
        with pytest.raises(ValueError):
            ShareConfig("pb", gamma=1.5)
        with pytest.raises(ValueError):
            ShareConfig("pb", delta_frac=1.0)
        for quantum in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="quantum"):
                ShareConfig("fb", quantum=quantum)


# the floor the grid check tolerates, and a few ulps either side of it
NEAR_FLOOR = [-FLOOR_TOLERANCE + k * math.ulp(FLOOR_TOLERANCE) for k in range(-3, 4)]


@st.composite
def traces_on_a_leg(draw):
    """Piecewise-linear battery traces over a leg of tt minutes.

    Breakpoints land on whole minutes, repeat, or fall anywhere; a trace
    may stop before tt.  Batteries sit near the floor or anywhere around it.
    """
    tt = draw(st.one_of(st.integers(1, 9).map(float),
                        st.floats(0.01, 9.0, allow_nan=False, allow_infinity=False)))
    moment = st.one_of(st.integers(0, math.floor(tt)).map(float),
                       st.floats(0.0, tt, allow_nan=False),
                       st.just(tt))
    battery = st.one_of(st.sampled_from(NEAR_FLOOR + [0.0, -0.0]),
                        st.floats(-5.0, 5.0, allow_nan=False),
                        st.floats(-1e-8, 1e-8, allow_nan=False))
    traces = {}
    for i in range(draw(st.integers(1, 3))):
        end = draw(st.one_of(st.just(tt), moment))
        times = sorted([0.0, end] + draw(st.lists(moment, max_size=6)))
        traces[i] = [(t, draw(battery)) for t in times]
    return traces, tt


class TestSupportSpacing:
    def test_built_in_table_never_clusters_support_drones(self):
        check_support_spacing(default_table())

    def test_equal_coefficients_cluster_them(self):
        # slots rank by index, so support drones fill the column's tail
        with pytest.raises(ValueError, match="column formation of 1 delivery and 2 "
                                             "support drones, energy-aware, head wind"):
            check_support_spacing(FLAT)


class TestGridCheck:
    """The per-piece grid check against the point-by-point scan."""

    @given(traces_on_a_leg())
    @settings(max_examples=500, deadline=None)
    @example(({0: [(0.0, 1.0), (2.0, 1.0), (2.0, -1.0), (4.0, 1.0)]}, 4.0))
    @example(({0: [(0.0, 1.0), (0.0, -1.0), (0.5, 1.0)]}, 0.5))
    @example(({0: [(0.0, 1.0), (1.5, -2e-9)]}, 3.25))
    def test_matches_the_per_minute_scan(self, case):
        traces, tt = case
        assert _grid_feasible(traces, tt) == grid_scan_feasible(traces, tt,
                                                                FLOOR_TOLERANCE)


class TestCompose:
    def stop_spec(self):
        return DroneSpec(battery_capacity=700.0, cruise_speed=60.0,
                         pad_charge_rate=10.0, base_consumption_rate=50.0)

    def stop_swarm(self):
        spec = self.stop_spec()
        # 60 and 50 mAh/min with payload_gain=1
        drones = [make_delivery_drone(0, 0.28, spec), make_delivery_drone(1, 0.0, spec)]
        return swarm_of(drones), model_for(spec, payload_gain=1.0)

    def test_single_leg_within_range(self):
        swarm, model = self.stop_swarm()
        plan = compose(swarm, line_net(6), DeliveryRequest(1, 0, 1, [0.3, 0.3]), model)
        assert plan.status == "success"
        assert plan.path == [0, 1]
        assert plan.visits == [] and plan.nt_total == 0.0
        assert plan.dt == plan.tt_total == 6.0
        assert plan.strategy == "baseline"

    def test_forced_stop_adds_pad_makespan(self):
        swarm, model = self.stop_swarm()
        net = line_net(10, 10)
        plan = compose(swarm, net, DeliveryRequest(2, 0, 2, [0.3, 0.3]), model)
        assert plan.status == "success"
        assert plan.path == [0, 1, 2]
        assert len(plan.visits) == 1
        visit = plan.visits[0]
        # drone 0 lands at 100 mAh, drone 1 at 200; one pad serves both
        assert visit.node == 1
        assert visit.nt == 110.0
        assert visit.queues == ((0, 1),)
        assert plan.tt_total == 20.0
        assert plan.dt == 130.0

    def test_stuck_when_no_neighbor_is_in_range(self):
        swarm, model = self.stop_swarm()
        plan = compose(swarm, line_net(30), DeliveryRequest(3, 0, 1, [0.3, 0.3]), model)
        assert plan.status == "stuck"
        assert plan.stuck_node == 0
        assert plan.path == [0]
        assert plan.legs == []

    def test_unreachable_destination(self):
        net = SkywayNetwork(
            [Node(0, 0.0, 0.0, 1), Node(1, 6000.0, 0.0, 1), Node(2, 9e6, 0.0, 1)],
            [Segment(0, 1, 6000.0, CALM)],
        )
        swarm, model = self.stop_swarm()
        plan = compose(swarm, net, DeliveryRequest(4, 0, 2, [0.3, 0.3]), model)
        assert plan.status == "unreachable"
        assert plan.path == [0]

    def test_revisit_cap_forces_stuck_instead_of_looping(self):
        swarm, model = self.stop_swarm()
        net = line_net(10, 30)
        plan = compose(swarm, net, DeliveryRequest(5, 0, 2, [0.3, 0.3]), model)
        assert plan.status == "stuck"
        assert plan.stuck_node == 1
        # it shuttles 0 -> 1 -> 0 -> 1 before giving up
        assert plan.path == [0, 1, 0, 1]
        assert len(plan.visits) == 3

    def test_equal_cost_stops_take_the_smaller_node_id(self):
        spec = self.stop_spec()
        nodes = [Node(0, 0.0, 0.0, 1), Node(1, 10000.0, 1.0, 1),
                 Node(2, 10000.0, -1.0, 1), Node(3, 20000.0, 0.0, 1)]
        segs = [Segment(0, 1, 10000.0, CALM), Segment(0, 2, 10000.0, CALM),
                Segment(1, 3, 10000.0, CALM), Segment(2, 3, 10000.0, CALM)]
        net = SkywayNetwork(nodes, segs)
        swarm, model = self.stop_swarm()
        plan = compose(swarm, net, DeliveryRequest(6, 0, 3, [0.3, 0.3]), model)
        assert plan.status == "success"
        assert plan.path == [0, 1, 3]

    def test_stop_after_a_partly_charged_start_searches_its_own_times(self):
        # equal drains, but drone 0 left with 300 of 700 mAh: restore times
        # 60, 20, 20, 20 min put it alone on a pad, which no split of the
        # equal rate vector's optimum does
        spec = DroneSpec(battery_capacity=700.0, cruise_speed=60.0,
                         pad_charge_rate=10.0, base_consumption_rate=20.0)
        drones = [make_delivery_drone(i, 0.0, spec) for i in range(4)]
        drones[0].battery = 300.0
        plan = compose(swarm_of(drones), line_net(10, 10, pads=2),
                       DeliveryRequest(11, 0, 2, [0.3] * 4), model_for(spec))
        assert plan.status == "success"
        assert [(v.nt, v.queues) for v in plan.visits] == [(60.0, ((0,), (1, 2, 3)))]

    def share_world(self):
        """A bridge only crossable by topping up en route: the first leg
        drains the couriers below the request threshold, so the bridge
        window opens with live refill requests."""
        d0 = make_delivery_drone(0, 0.0, SHARE_SPEC)
        d1 = make_delivery_drone(1, 0.0, SHARE_SPEC)
        s2 = make_support_drone(2, SHARE_SPEC)
        swarm = swarm_of([d0, d1, s2])
        return swarm, model_for(SHARE_SPEC), line_net(16, 66)

    def test_sharing_crosses_where_baseline_strands(self):
        swarm, model, net = self.share_world()
        request = DeliveryRequest(7, 0, 2, [0.5, 0.5])
        baseline = compose(swarm, net, request, model)
        assert baseline.status == "stuck"
        shared = compose(swarm, net, request, model,
                         share=ShareConfig("pb", gamma=0.95))
        assert shared.status == "success"
        assert shared.path == [0, 1, 2]
        assert shared.visits == []
        assert shared.dt == 82.0
        assert shared.energy_shared > 0.0
        assert shared.strategy == "pb"
        # composing leaves the swarm it was given untouched
        assert [d.position for d in swarm.drones] == [0, 1, 2]
        assert all(d.battery == d.capacity for d in swarm.drones)

    def test_planning_leaves_the_swarm_unchanged(self):
        # three couriers, so a swap left in place would not undo itself
        drones = [make_delivery_drone(i, 0.0, SHARE_SPEC) for i in range(3)]
        swarm = swarm_of(drones + [make_support_drone(3, SHARE_SPEC)])
        model, net = model_for(SHARE_SPEC), line_net(16, 66)
        request = DeliveryRequest(7, 0, 2, [0.5, 0.5, 0.5])
        for setting in POSITIONING_SETTINGS:
            assign_positions(swarm, setting, "tail", model)
            standing = [(d.id, d.position, d.battery) for d in swarm.drones]
            for strategy in ("pb", "fb"):
                plan = compose(swarm, net, request, model,
                               share=ShareConfig(strategy, gamma=0.95))
                assert any(leg.plan and leg.plan.swaps for leg in plan.legs), \
                    (setting, strategy)
            dijkstra_baseline(swarm, net, request, model)
            floyd_warshall_baseline(swarm, net, request, model)
            assert [(d.id, d.position, d.battery) for d in swarm.drones] == standing

    def test_sharing_stays_idle_when_batteries_suffice(self):
        swarm, model = self.stop_swarm()
        plan = compose(swarm, line_net(6), DeliveryRequest(8, 0, 1, [0.3, 0.3]),
                       model, share=ShareConfig("pb"))
        assert plan.status == "success"
        assert all(leg.plan is None for leg in plan.legs)
        assert plan.energy_shared == 0.0

    def test_deterministic_and_tree_reuse(self):
        swarm, model = self.stop_swarm()
        net = line_net(10, 10)
        request = DeliveryRequest(9, 0, 2, [0.3, 0.3])
        tree = shortest_path_tree(net, 2)
        a = compose(swarm, net, request, model)
        b = compose(swarm, net, request, model, tree=tree)
        c = compose(swarm, net, request, model,
                    tree=shortest_path_tree(net, 0))  # wrong root: rebuilt
        assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_plan_serialization(self):
        swarm, model = self.stop_swarm()
        plan = compose(swarm, line_net(10, 10), DeliveryRequest(10, 0, 2, [0.3, 0.3]),
                       model)
        data = plan.to_dict()
        assert data["status"] == "success"
        assert data["dt_min"] == 130.0
        assert [leg["tt_min"] for leg in data["legs"]] == [10.0, 10.0]
        assert data["visits"] == [{"node": 1, "nt_min": 110.0}]


class TestStaticBaselines:
    def stop_swarm(self):
        spec = DroneSpec(battery_capacity=700.0, cruise_speed=60.0,
                         pad_charge_rate=10.0, base_consumption_rate=50.0)
        drones = [make_delivery_drone(0, 0.28, spec), make_delivery_drone(1, 0.0, spec)]
        return swarm_of(drones), model_for(spec, payload_gain=1.0)

    def test_static_costs_cover_both_directions(self):
        swarm, model = self.stop_swarm()
        net = line_net(10)
        costs = static_edge_costs(swarm, net, model)
        # tt 10 plus one-pad restore of [60, 50] minutes
        assert costs[(0, 1)] == 10.0 + 110.0
        assert costs[(1, 0)] == 10.0 + 110.0

    def test_padless_head_gets_infinite_cost(self):
        swarm, model = self.stop_swarm()
        net = line_net(6, pads=[1, 0])
        costs = static_edge_costs(swarm, net, model)
        assert costs[(0, 1)] == math.inf
        # tt 6 plus single-pad restore of [36, 30] minutes back at node 0
        assert costs[(1, 0)] == 72.0
        plan = dijkstra_baseline(swarm, net, DeliveryRequest(1, 0, 1, [0.3, 0.3]),
                                 model)
        assert plan.status == "unreachable"
        # the walker does not need pads at the destination itself
        walked = compose(swarm, net, DeliveryRequest(1, 0, 1, [0.3, 0.3]), model)
        assert walked.status == "success"

    def test_successful_static_route(self):
        swarm, model = self.stop_swarm()
        net = line_net(10, 10)
        request = DeliveryRequest(2, 0, 2, [0.3, 0.3])
        dij = dijkstra_baseline(swarm, net, request, model)
        fw = floyd_warshall_baseline(swarm, net, request, model)
        for plan in (dij, fw):
            assert plan.status == "success"
            assert plan.path == [0, 1, 2]
            assert plan.dt == 130.0
            assert plan.static_cost == 240.0
        assert dij.strategy == "dijkstra" and fw.strategy == "floyd"

    def test_static_route_can_strand_where_compose_detours(self):
        # the short direct hop wins on static cost but cannot be flown;
        # the walker goes around
        spec = DroneSpec(battery_capacity=2048.0, cruise_speed=60.0,
                         pad_charge_rate=128.0, base_consumption_rate=128.0)
        model = model_for(spec)
        drones = [make_delivery_drone(0, 0.3, spec), make_delivery_drone(1, 0.6, spec)]
        swarm = swarm_of(drones)
        nodes = [Node(0, 0.0, 0.0, 1), Node(1, 7000.0, 0.0, 1),
                 Node(2, 14000.0, 0.0, 1), Node(3, 21000.0, 0.0, 1)]
        segs = [Segment(0, 3, 18000.0, CALM), Segment(0, 1, 7000.0, CALM),
                Segment(1, 2, 7000.0, CALM), Segment(2, 3, 7000.0, CALM)]
        net = SkywayNetwork(nodes, segs)
        request = DeliveryRequest(3, 0, 3, [0.3, 0.6])
        costs = static_edge_costs(swarm, net, model)
        assert costs[(0, 3)] < costs[(0, 1)] + costs[(1, 2)] + costs[(2, 3)]
        dij = dijkstra_baseline(swarm, net, request, model, costs=costs)
        fw = floyd_warshall_baseline(swarm, net, request, model, costs=costs)
        for plan in (dij, fw):
            assert plan.status == "stuck"
            assert plan.stuck_node == 0
            assert plan.path == [0]
        walked = compose(swarm, net, request, model)
        assert walked.status == "success"
        assert walked.path == [0, 1, 2, 3]

    def random_exact_world(self, rng):
        n = rng.randint(3, 10)
        nodes = [Node(i, rng.uniform(0, 50000), rng.uniform(0, 50000),
                      rng.randint(1, 3)) for i in range(n)]
        segs = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.45:
                    wind = Wind(rng.uniform(0, 13.0), rng.uniform(0, 360.0))
                    segs.append(Segment(a, b, 1000.0 * rng.randint(1, 20), wind))
        net = SkywayNetwork(nodes, segs)
        spec = DroneSpec(battery_capacity=8192.0, cruise_speed=60.0,
                         pad_charge_rate=64.0, base_consumption_rate=128.0)
        model = model_for(spec)
        drones = [make_delivery_drone(0, 0.5, spec), make_delivery_drone(1, 1.0, spec)]
        return net, swarm_of(drones), model

    def test_all_pairs_table_matches_per_source_dijkstra_exactly(self):
        rng = random.Random(42)
        for _ in range(25):
            net, swarm, model = self.random_exact_world(rng)
            costs = static_edge_costs(swarm, net, model)
            ids, dist, nxt = floyd_warshall_tables(net, costs)
            index = {nid: i for i, nid in enumerate(ids)}
            for source in ids:
                sd = static_dijkstra(net, costs, source)
                for target in ids:
                    want = sd.distance(target)
                    assert dist[index[source], index[target]] == want

    def test_successor_table_reconstructs_optimal_paths(self):
        rng = random.Random(7)
        net, swarm, model = self.random_exact_world(rng)
        costs = static_edge_costs(swarm, net, model)
        ids, dist, nxt = floyd_warshall_tables(net, costs)
        index = {nid: i for i, nid in enumerate(ids)}
        for source in ids:
            for target in ids:
                si, ti = index[source], index[target]
                if source == target or not np.isfinite(dist[si, ti]):
                    continue
                at, total, hops = si, 0.0, 0
                while at != ti:
                    step = int(nxt[at, ti])
                    total += costs[(ids[at], ids[step])]
                    at = step
                    hops += 1
                    assert hops <= len(ids)
                assert total == dist[si, ti]

    def test_uniform_pads_make_the_table_symmetric(self):
        swarm, model = self.stop_swarm()
        nodes = [Node(i, 1000.0 * i, 500.0 * (i % 3), 2) for i in range(6)]
        segs = [Segment(i, i + 1, 4000.0, CALM) for i in range(5)]
        segs.append(Segment(0, 3, 9000.0, CALM))
        net = SkywayNetwork(nodes, segs)
        costs = static_edge_costs(swarm, net, model)
        ids, dist, _ = floyd_warshall_tables(net, costs)
        assert np.array_equal(dist, dist.T)


class TestStaticCostsMatchPadSchedule:
    """Every edge cost equals tt plus pad_schedule's makespan, bit for bit."""

    def reference(self, swarm, net, model):
        out = {}
        for seg in net.segments:
            tt = travel_time(seg.distance_m, model.spec.cruise_speed)
            for a, b in ((seg.u, seg.v), (seg.v, seg.u)):
                pads = net.nodes[b].pads
                if pads < 1:
                    out[(a, b)] = math.inf
                    continue
                sector = wind_sector(net.heading(a, b), seg.wind)
                times = [
                    consumption_rate(model, d.payload, swarm.formation, d.position,
                                     sector) * tt / model.spec.pad_charge_rate
                    for d in swarm.drones
                ]
                out[(a, b)] = tt + pad_schedule(times, pads).node_time
        return out

    def random_world(self, rng, n_nodes=8):
        """Pads 0-4, winds from every sector, distances off the dyadic grid."""
        nodes = [Node(i, rng.uniform(0, 30000), rng.uniform(0, 30000),
                      rng.randint(0, 4)) for i in range(n_nodes)]
        segs = [
            Segment(a, b, rng.uniform(300.0, 20000.0),
                    Wind(rng.uniform(0, 13.0), rng.uniform(0, 360.0)))
            for a in range(n_nodes) for b in range(a + 1, n_nodes)
            if rng.random() < 0.5
        ]
        return SkywayNetwork(nodes, segs)

    def swarm(self, payloads, kind="vee", supports=0):
        spec = DroneSpec()
        drones = [make_delivery_drone(i, p, spec) for i, p in enumerate(payloads)]
        drones += [make_support_drone(len(payloads) + k, spec) for k in range(supports)]
        return swarm_of(drones, kind)

    def assert_identical(self, swarm, net, model):
        got = static_edge_costs(swarm, net, model)
        want = self.reference(swarm, net, model)
        assert got == want
        assert {k: repr(v) for k, v in got.items()} == \
            {k: repr(v) for k, v in want.items()}

    def test_swarms_of_one_to_eight_drones(self):
        # support drones share a payload, so their slot coefficients alone
        # set them apart, and pad loads can come within a few ulps of a tie
        rng = random.Random(19)
        model = EnergyModel(DroneSpec(), default_table())
        for kind in FORMATION_KINDS:
            for n in range(1, 9):
                for supports in range(n):
                    payloads = [rng.uniform(0.0, 1.4) for _ in range(n - supports)]
                    swarm = self.swarm(payloads, kind, supports)
                    self.assert_identical(swarm, self.random_world(rng), model)

    def test_identical_drones_tie_exactly(self):
        rng = random.Random(5)
        model = model_for(DroneSpec())
        for n in range(1, 9):
            self.assert_identical(self.swarm([0.7] * n), self.random_world(rng), model)

    def test_near_ties_between_different_sums(self):
        # rates in ratio 1:2:3:4:5 load the busier of two pads with 8 units
        # in several ways (3+5, 1+2+5, 1+3+4), and each sum rounds its own way
        rng = random.Random(23)
        for eps in (0.0, 1e-16, 3e-16, 1e-15, 1e-13):
            coeffs = (1.0, 2.0, 3.0, 4.0, 5.0 + eps)
            table = CoefficientTable({
                (kind, slot, sector): coeffs[slot % 5]
                for kind in FORMATION_KINDS for slot in range(12)
                for sector in WIND_SECTORS
            })
            model = EnergyModel(DroneSpec(), table, payload_gain=0.0)
            swarm = self.swarm([0.5] * 5, "column")
            for _ in range(3):
                self.assert_identical(swarm, self.random_world(rng, 10), model)

    def test_beyond_the_exhaustive_cap(self):
        rng = random.Random(13)
        table = CoefficientTable({
            (kind, slot, sector): 1.0 + 0.01 * slot
            for kind in FORMATION_KINDS for slot in range(16) for sector in WIND_SECTORS
        })
        model = EnergyModel(DroneSpec(), table)
        swarm = self.swarm([rng.uniform(0.0, 1.4) for _ in range(13)])
        self.assert_identical(swarm, self.random_world(rng), model)


class TestStopsMatchPadSchedule:
    """Every recharge stop equals pad_schedule on its own restore times:
    node time under repr, and the queues."""

    WORLDS = {
        # the acceptance world and sweep profile, and the CLI world and defaults
        "acceptance": (2118, (0, 3), ("baseline", "pb", "fb")),
        "cli": (0, (1, 3), ("baseline", "pb", "fb", "dijkstra", "floyd")),
    }

    @pytest.mark.parametrize("request_seed", [0, 9])
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_every_stop_on_a_slice(self, world, request_seed, monkeypatch):
        from test_acceptance import SWEEP_CFG, SWEEP_SPEC

        net_seed, pads, strategies = self.WORLDS[world]
        net = largest_connected_component(synthesize_network(276, net_seed, pads=pads))
        requests = synthesize_requests(net, 12, request_seed)
        if world == "acceptance":
            cfg, spec = SWEEP_CFG, SWEEP_SPEC
        else:
            cfg, spec = ExperimentConfig(), None

        stops = []
        searches = []
        full_recharge = planner._full_recharge

        def recorded(swarm, leg, node, model, cache):
            visit = full_recharge(swarm, leg, node, model, cache)
            times = [(d.capacity - leg.batteries_after[d.id]) / model.spec.pad_charge_rate
                     for d in swarm.drones]
            stops.append((visit, pad_schedule(times, node.pads)))
            return visit

        monkeypatch.setattr(planner, "_full_recharge", recorded)
        monkeypatch.setattr(planner, "pad_schedule",
                            lambda *a, **k: searches.append(a) or pad_schedule(*a, **k))
        run_experiment(net, requests, default_table(),
                       replace(cfg, strategies=strategies), spec=spec)
        assert len(stops) > 100
        # every stop followed a leg that started full, so none searched alone
        assert searches == []
        for visit, want in stops:
            assert repr(visit.nt) == repr(want.node_time)
            assert visit.queues == want.queues


def reference_floyd(net, costs):
    """Textbook triple-loop Floyd-Warshall with a successor table.

    Also returns how many pivots fewer than half the rows could reach.
    """
    ids = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    nxt = [[i if i == j else -1 for j in range(n)] for i in range(n)]
    for (a, b), w in costs.items():
        i, j = index[a], index[b]
        if w < dist[i][j]:
            dist[i][j] = w
            nxt[i][j] = j
    sparse_pivots = 0
    for k in range(n):
        if 2 * sum(dist[i][k] < math.inf for i in range(n)) < n:
            sparse_pivots += 1
        for i in range(n):
            for j in range(n):
                cand = dist[i][k] + dist[k][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
                    nxt[i][j] = nxt[i][k]
    return ids, dist, nxt, sparse_pivots


def dense_world(rng):
    """Up to 12 nodes, each pair linked with probability 0.4."""
    n = rng.randint(2, 12)
    nodes = [Node(10 * i + 3, float(i), 0.0, 1) for i in range(n)]
    pairs = [(a.id, b.id) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if rng.random() < 0.4]
    return nodes, pairs


def sparse_world(rng):
    """Up to 40 nodes with scattered ids: a chain, or a forest of trees
    with a few chords each."""
    n = rng.randint(2, 40)
    ids = rng.sample(range(1000), n)
    nodes = [Node(nid, float(i), 0.0, 1) for i, nid in enumerate(ids)]
    if rng.random() < 0.3:
        return nodes, list(zip(ids, ids[1:]))
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3))))
    pairs = set()
    for comp in (ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])):
        for i in range(1, len(comp)):
            pairs.add(frozenset((comp[i], rng.choice(comp[:i]))))
        for _ in range(rng.randint(0, 2) if len(comp) > 2 else 0):
            pairs.add(frozenset(rng.sample(comp, 2)))
    return nodes, [tuple(sorted(p)) for p in pairs]


class TestFloydWarshallTables:
    def test_matches_the_triple_loop_including_tie_breaks(self):
        # small integer costs make equal-cost alternatives common, and one
        # inf direction leaves a pair reachable one way only
        rng = random.Random(17)
        sparse_pivots = pivots = 0
        for world in [dense_world] * 60 + [sparse_world] * 80:
            nodes, pairs = world(rng)
            net = SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in pairs])
            costs = {}
            for a, b in pairs:
                for edge in ((a, b), (b, a)):
                    costs[edge] = (math.inf if rng.random() < 0.2
                                   else float(rng.randint(1, 4)))
            ids, dist, nxt = floyd_warshall_tables(net, costs)
            want_ids, want_dist, want_nxt, sparse = reference_floyd(net, costs)
            assert ids == want_ids
            assert nxt.dtype == np.int64
            assert np.array_equal(dist, np.array(want_dist))
            assert np.array_equal(nxt, np.array(want_nxt))
            if world is sparse_world:
                sparse_pivots += sparse
                pivots += len(ids)
        # most pivots of the sparse worlds take the gathered path
        assert sparse_pivots > pivots / 2
