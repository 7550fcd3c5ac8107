"""Leg feasibility, route composition, and the static baselines."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
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
    static_edges,
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
from swarmway.sharing import SharingPlan

from instances import transfer_sums
from oracles import (
    best_walk,
    feasible_leg_as_written,
    fly_legs_as_written,
    fly_through_as_written,
    full_recharge_as_written,
    grid_scan_feasible,
    leg_grid_feasible,
    near_optimal_queues_reference,
    plain_drain_as_written,
    plain_fails_as_written,
    price_stop_as_written,
    sharing_cannot_save_as_written,
    walk_every_round,
)

FLAT = CoefficientTable({
    (kind, slot, sector): 1.0
    for kind in FORMATION_KINDS
    for slot in range(12)
    for sector in WIND_SECTORS
})

CALM = Wind(0.0, 0.0)

# slot 1 drains at a different rate in each wind sector, every other slot at 1
SLOT_1_COEFFS = {"tail": 0.5, "right": 0.75, "left": 1.25, "head": 1.5}
SECTORED = CoefficientTable({
    (kind, slot, sector): SLOT_1_COEFFS[sector] if slot == 1 else 1.0
    for kind in FORMATION_KINDS
    for slot in range(12)
    for sector in WIND_SECTORS
})
# wind directions along a +x leg, by the sector they make
TOWARD = {"tail": 0.0, "right": 90.0, "head": 180.0, "left": 270.0}


def line_net(*km, pads=1, wind=CALM):
    """Chain of nodes spaced along +x, one segment per consecutive pair;
    ``wind`` is one Wind for every segment or a list of one per segment."""
    xs = [0.0]
    for d in km:
        xs.append(xs[-1] + d * 1000.0)
    if isinstance(pads, int):
        pads = [pads] * len(xs)
    winds = wind if isinstance(wind, list) else [wind] * len(km)
    nodes = [Node(i, x, 0.0, p) for i, (x, p) in enumerate(zip(xs, pads))]
    segs = [Segment(i, i + 1, km[i] * 1000.0, winds[i]) for i in range(len(km))]
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
        assert feasible_leg(swarm, line_net(6), 0, 1, model,
                            batteries={0: 250.0, 1: 700.0}) is None

    def test_windless_segment_rejected(self):
        with pytest.raises(TypeError, match="wind must be a Wind"):
            line_net(6, wind=None)

    def rescue_pair(self, consumer_mah, provider_mah):
        """A delivery drone and its support drone, and their batteries."""
        d0 = make_delivery_drone(0, 0.0, SHARE_SPEC)
        s1 = make_support_drone(1, SHARE_SPEC)
        return swarm_of([d0, s1]), model_for(SHARE_SPEC), {0: consumer_mah, 1: provider_mah}

    def test_priority_transfer_rescues_the_leg(self):
        swarm, model, batteries = self.rescue_pair(512.0, 8192.0)
        net = line_net(16)
        assert feasible_leg(swarm, net, 0, 1, model, batteries=batteries) is None
        leg = feasible_leg(swarm, net, 0, 1, model, batteries=batteries,
                           share=ShareConfig("pb"))
        assert leg is not None
        # the refill request is cut at the 16-minute window: 128 mAh/min
        a = leg.plan.allocations[0]
        assert (a.provider, a.consumer, a.start, a.duration, a.amount) == \
            (1, 0, 0.0, 16.0, 2048.0)
        assert leg.batteries_after[0] == 512.0 - 1024.0 + 2048.0
        assert leg.batteries_after[1] == 8192.0 - 1024.0 - 2048.0
        assert transfer_sums(leg.plan) == ({1: 2048.0}, {0: 2048.0})
        rates = {0: 64.0, 1: 64.0}
        assert leg_grid_feasible({0: 512.0, 1: 8192.0}, rates,
                                 leg.plan.allocations, 16.0)
        assert not leg_grid_feasible({0: 512.0, 1: 8192.0}, rates, [], 16.0)

    def test_fairness_transfer_rescues_the_leg(self):
        swarm, model, batteries = self.rescue_pair(512.0, 8192.0)
        leg = feasible_leg(swarm, line_net(16), 0, 1, model, batteries=batteries,
                           share=ShareConfig("fb", quantum=2048.0, delta_frac=0.0))
        assert leg is not None
        assert leg.plan.total_shared == 2048.0

    def test_offer_cannot_exceed_provider_surplus(self):
        # provider has 76 mAh beyond its own drain: not enough for either
        # composer to keep the consumer alive
        swarm, model, batteries = self.rescue_pair(512.0, 1100.0)
        net = line_net(16)
        assert feasible_leg(swarm, net, 0, 1, model, batteries=batteries,
                            share=ShareConfig("pb")) is None
        assert feasible_leg(swarm, net, 0, 1, model, batteries=batteries,
                            share=ShareConfig("fb", quantum=512.0)) is None

    def test_dip_between_whole_minutes_is_tolerated(self):
        spec = DroneSpec(battery_capacity=4096.0, cruise_speed=60.0,
                         inflight_share_rate=1024.0, pad_charge_rate=64.0,
                         base_consumption_rate=64.0)
        model = model_for(spec, payload_gain=1.0)
        d0 = make_delivery_drone(0, 0.0, spec)       # 64 mAh/min
        d1 = make_delivery_drone(1, 1.4, spec)       # 128 mAh/min
        s2 = make_support_drone(2, spec)
        swarm = swarm_of([d0, d1, s2])
        batteries = {0: 2048.0, 1: 160.0, 2: s2.capacity}
        net = line_net(8)
        assert feasible_leg(swarm, net, 0, 1, model, batteries=batteries) is None
        cfg = ShareConfig("fb", quantum=1536.0, delta_frac=0.0)
        leg = feasible_leg(swarm, net, 0, 1, model, batteries=batteries, share=cfg)
        # d1 goes under at t=1.5, after the minute-1 check and before the
        # round-robin reaches it; the refill lands before minute 2
        assert leg is not None
        assert min(b for _, b in leg.traces[1]) < 0.0
        assert all(leg.batteries_after[i] >= 0.0 for i in (0, 1, 2))

    def test_two_providers_serve_disjoint_blocks(self):
        drones = []
        for i, slot in enumerate((0, 2, 3, 5)):
            d = make_delivery_drone(i, 0.0, SHARE_SPEC)
            d.position = slot
            drones.append(d)
        s4 = make_support_drone(4, SHARE_SPEC)
        s4.position = 1
        s5 = make_support_drone(5, SHARE_SPEC)
        s5.position = 4
        swarm = Swarm(drones + [s4, s5], make_formation("column", 6))
        batteries = {0: 3200.0, 1: 3200.0, 2: 3200.0, 3: 3200.0, 4: 8192.0, 5: 8192.0}
        leg = feasible_leg(swarm, line_net(16), 0, 1, model_for(SHARE_SPEC),
                           batteries=batteries, share=ShareConfig("pb"))
        assert leg is not None
        # each provider refills its own two drones, then the re-poll tops
        # the first one up again until the window cuts the service short
        given, gained = transfer_sums(leg.plan)
        assert given == {4: 2048.0, 5: 2048.0}
        assert gained == {0: 1152.0, 1: 896.0, 2: 1152.0, 3: 896.0}
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
        s4 = make_support_drone(4, SHARE_SPEC)
        s4.position = 1
        s5 = make_support_drone(5, SHARE_SPEC)
        s5.position = 4
        swarm = Swarm(drones + [s4, s5], make_formation("column", 6))
        batteries = {d.id: d.capacity for d in swarm.drones}
        batteries[2] = 1000.0
        model = model_for(SHARE_SPEC)
        net = line_net(7.3)
        plain = feasible_leg(swarm, net, 0, 1, model, batteries=batteries)
        for cfg in (ShareConfig("pb"), ShareConfig("fb", delta_frac=0.0)):
            leg = feasible_leg(swarm, net, 0, 1, model, batteries=batteries, share=cfg)
            assert [(a.provider, a.consumer) for a in leg.plan.allocations] == [(5, 2)]
            assert list(leg.consumed) == [4, 0, 1, 5, 2, 3]
            for i in (4, 0, 1):
                assert leg.consumed[i] == plain.consumed[i]
                assert leg.batteries_after[i] == plain.batteries_after[i]
                assert leg.traces[i] == plain.traces[i]
        # a shared leg where no block can share still carries an empty plan
        plain = feasible_leg(swarm, net, 0, 1, model)
        leg = feasible_leg(swarm, net, 0, 1, model, share=ShareConfig("pb"))
        assert leg.plan == SharingPlan()
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


class TestClusteredSupportDrones:
    """A swarm whose support drones cluster fails as it always has: its
    swap table raises the first time a shared flight reads it, and only a
    shared flight reads it, so a stop taken, built without one, moves no
    failure."""

    def test_a_compose_raises_exactly_when_the_plain_fly_through_fails(self):
        # column slots 0-4: delivery drones in 0-1, support drones in 2-4,
        # so the provider in slot 3, serving slot 1, has no delivery drone
        # beside it
        net = largest_connected_component(synthesize_network(276, 0))
        spec = DroneSpec()
        model = EnergyModel(spec, default_table())
        outcomes = {"raises": 0, "succeeds": 0}
        for request in synthesize_requests(net, 40, 0):
            swarm = swarm_of([make_delivery_drone(i, w, spec)
                              for i, w in enumerate(request.package_weights[:2])]
                             + [make_support_drone(i, spec) for i in (2, 3, 4)])
            tree = shortest_path_tree(net, request.destination)
            full = {d.id: d.capacity for d in swarm.drones}
            fails = plain_fails_as_written(net, tree.path_to_root(request.source), full,
                                           planner._RateCache(swarm, model))
            for strategy in ("pb", "fb"):
                try:
                    plan = compose(swarm, net, request, model, share=ShareConfig(strategy),
                                   tree=tree)
                except ValueError as exc:
                    assert "never cluster support drones" in str(exc)
                    assert fails
                    outcomes["raises"] += 1
                else:
                    assert not fails and plan.status == "success"
                    outcomes["succeeds"] += 1
        assert outcomes == {"raises": 72, "succeeds": 8}


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


def static_costs(swarm, net, model):
    return static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed), model)


LEG_READERS = {
    "baseline": lambda swarm, net, req, model: compose(swarm, net, req, model),
    "pb": lambda swarm, net, req, model: compose(swarm, net, req, model,
                                                 share=ShareConfig("pb")),
    "fb": lambda swarm, net, req, model: compose(swarm, net, req, model,
                                                 share=ShareConfig("fb")),
    "feasible_leg": lambda swarm, net, req, model: feasible_leg(
        swarm, net, req.source, req.destination, model),
    "dijkstra": lambda swarm, net, req, model: dijkstra_baseline(
        swarm, net, req, model, costs=static_costs(swarm, net, model)),
    "floyd": lambda swarm, net, req, model: floyd_warshall_baseline(
        swarm, net, req, model, costs=static_costs(swarm, net, model)),
}


@pytest.mark.parametrize("reader", LEG_READERS)
@pytest.mark.parametrize("metres, speed, minutes", [
    (1e-320, 30.0, "0.0"),  # rounds to 0.0 minutes
    (1e10, 1e-300, "inf"),  # 6e308 minutes overflows
], ids=["no time", "no finite time"])
def test_a_leg_that_takes_no_time_or_no_finite_time_is_rejected(reader, metres, speed,
                                                                 minutes):
    spec = DroneSpec(cruise_speed=speed)
    swarm = swarm_of([make_delivery_drone(0, 0.5, spec), make_support_drone(1, spec)])
    net = SkywayNetwork([Node(0, 0.0, 0.0, 2), Node(1, 1000.0, 0.0, 2)],
                        [Segment(0, 1, metres, CALM)])
    with pytest.raises(ValueError) as info:
        LEG_READERS[reader](swarm, net, DeliveryRequest(0, 0, 1, [0.5]),
                            EnergyModel(spec, default_table()))
    assert str(info.value) == (f"segment (0, 1): {metres} m takes {minutes} min "
                               f"at {speed:g} km/h; need > 0")


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
        assert plan.path[-1] == 0
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
        assert plan.path[-1] == 1
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

    def test_a_stop_after_a_tiny_leg_searches_its_own_times(self, monkeypatch):
        # the 1 cm leg to node 1 drains under a millionth of a capacity, where
        # the sector's pad candidates may miss the optimum, so the stop
        # searches.  Node 1 to 2 drains drone 1's whole capacity: the swarm
        # cannot fly through and stops at node 1
        model = model_for(SHARE_SPEC, payload_gain=1.0)
        drones = [make_delivery_drone(0, 0.0, SHARE_SPEC),   # 64 mAh/min
                  make_delivery_drone(1, 1.4, SHARE_SPEC)]   # 128 mAh/min
        searches = []
        monkeypatch.setattr(planner, "pad_schedule",
                            lambda *a: searches.append(a) or pad_schedule(*a))
        plan = compose(swarm_of(drones), line_net(1e-5, 32),
                       DeliveryRequest(11, 0, 2, [0.3, 0.3]), model)
        assert plan.status == "success" and plan.path == [0, 1, 2]
        leg, [visit] = plan.legs[0], plan.visits
        drains = [d.capacity - leg.batteries_after[d.id] for d in drones]
        assert all(0.0 < drain < d.capacity * 1e-6 for d, drain in zip(drones, drains))
        times = [drain / SHARE_SPEC.pad_charge_rate for drain in drains]
        assert searches == [(times, 1)]
        want = pad_schedule(times, 1)
        assert repr(visit.nt) == repr(want.node_time)
        assert visit.queues == want.queues

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

    def test_planning_leaves_the_swarm_unchanged(self):
        # three couriers, so a swap left in place would not undo itself
        drones = [make_delivery_drone(i, 0.0, SHARE_SPEC) for i in range(3)]
        swarm = swarm_of(drones + [make_support_drone(3, SHARE_SPEC)])
        model, net = model_for(SHARE_SPEC), line_net(16, 66)
        request = DeliveryRequest(7, 0, 2, [0.5, 0.5, 0.5])
        for setting in POSITIONING_SETTINGS:
            assign_positions(swarm, setting, "tail", model)
            standing = [(d.id, d.position, d.capacity) for d in swarm.drones]
            for strategy in ("pb", "fb"):
                plan = compose(swarm, net, request, model,
                               share=ShareConfig(strategy, gamma=0.95))
                assert any(leg.plan and leg.plan.swaps for leg in plan.legs), \
                    (setting, strategy)
            costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                      model)
            dijkstra_baseline(swarm, net, request, model, costs=costs)
            floyd_warshall_baseline(swarm, net, request, model, costs=costs)
            assert [(d.id, d.position, d.capacity) for d in swarm.drones] == standing

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
        assert repr(a) == repr(b) == repr(c)

    def test_plan_values(self):
        swarm, model = self.stop_swarm()
        plan = compose(swarm, line_net(10, 10), DeliveryRequest(10, 0, 2, [0.3, 0.3]),
                       model)
        assert plan.status == "success"
        assert plan.dt == 130.0
        assert [leg.tt for leg in plan.legs] == [10.0, 10.0]
        assert [(v.node, v.nt) for v in plan.visits] == [(1, 110.0)]


def fly_leg_by_leg(swarm, net, path, model, batteries, share):
    """The shared fly-through composed leg by leg, with no energy bound."""
    cache = planner._RateCache(swarm, model)
    legs, state = [], dict(batteries)
    for a, b in zip(path, path[1:]):
        got = planner._flight(net, [a, b], model, state, share, cache)
        if got is None:
            return None
        legs += got
        state = got[0].batteries_after
    return legs


def rules_out(swarm, net, path, model, batteries, share):
    return planner._sharing_cannot_save(net, path, model, batteries, share,
                                        planner._RateCache(swarm, model))


def pool_at_lo_decides(case):
    """True when the bound rules ``case`` out on the support drone's pool at
    ``lo``, taken after a block's legs, rather than inside them: each block
    takes ``_pool`` once before its legs and once after them."""
    with mock.patch.object(planner, "_pool", wraps=planner._pool) as pool:
        ruled_out = rules_out(*case)
    return ruled_out and pool.call_count % 2 == 0


def edge_of_ruled_out(case, top):
    """The largest x in [0, top], to 60 halvings, at which ``case(x)`` is
    ruled out; it must be ruled out at 0 and not at top."""
    assert rules_out(*case(0.0)) and not rules_out(*case(top))
    lo, hi = 0.0, top
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if rules_out(*case(mid)) else (lo, mid)
    return lo


def path_net(legs):
    """A path of nodes 0..len(legs): leg i heads ``heading`` degrees for
    ``km`` in a wind of ``wind_speed`` from ``wind_dir``, for each
    (heading, km, wind_speed, wind_dir) in ``legs``."""
    nodes, segs = [Node(0, 0.0, 0.0, 1)], []
    for i, (heading, km, wind_speed, wind_dir) in enumerate(legs):
        x = nodes[-1].x + km * 1000.0 * math.cos(math.radians(heading))
        y = nodes[-1].y + km * 1000.0 * math.sin(math.radians(heading))
        nodes.append(Node(i + 1, x, y, 1))
        segs.append(Segment(i, i + 1, km * 1000.0, Wind(wind_speed, wind_dir)))
    return SkywayNetwork(nodes, segs), list(range(len(nodes)))


@st.composite
def shared_fly_throughs(draw):
    """One or two provider blocks on a path of one to six legs in random
    directions and winds, from random batteries, under pb or fb."""
    spec = DroneSpec(battery_capacity=draw(st.floats(1000.0, 8000.0)),
                     cruise_speed=60.0,
                     inflight_share_rate=draw(st.floats(1.0, 300.0)),
                     base_consumption_rate=draw(st.floats(10.0, 300.0)))
    model = EnergyModel(spec, default_table())
    n_delivery = draw(st.integers(1, 5))
    drones = [make_delivery_drone(i, draw(st.floats(0.0, 1.4)), spec)
              for i in range(n_delivery)]
    drones += [make_support_drone(n_delivery + j, spec)
               for j in range(draw(st.integers(1, 2)))]
    swarm = swarm_of(drones, draw(st.sampled_from(FORMATION_KINDS)))
    assign_positions(swarm, draw(st.sampled_from(POSITIONING_SETTINGS)),
                     draw(st.sampled_from(WIND_SECTORS)), model)
    degrees = st.floats(0.0, 360.0)
    legs = draw(st.lists(st.tuples(degrees, st.floats(0.2, 8.0),
                                   st.floats(0.0, 13.0), degrees),
                         min_size=1, max_size=6))
    # or those legs and a long last one, which a consumer may not fly on
    # what it held before it: drained at the base rate it takes 30-100% of
    # a capacity.  Consumers then start full, and support drones near their
    # reserve and their own drain
    long_last = draw(st.booleans())
    if long_last:
        km = draw(st.floats(0.3, 1.0)) * spec.battery_capacity / spec.base_consumption_rate
        legs.append((draw(degrees), km, draw(st.floats(0.0, 13.0)), draw(degrees)))
    net, path = path_net(legs)
    segs = [net.segment(a, b) for a, b in zip(path, path[1:])]
    sectors = [wind_sector(net.heading(a, b), seg.wind)
               for a, b, seg in zip(path, path[1:], segs)]
    share = ShareConfig(draw(st.sampled_from(("pb", "fb"))),
                        gamma=draw(st.one_of(st.sampled_from((0.8, 0.95, 1.0)),
                                             st.floats(0.0, 1.0))),
                        delta_frac=draw(st.floats(0.2, 0.7) if long_last
                                        else st.floats(0.0, 0.99)),
                        quantum=draw(st.one_of(st.sampled_from((28.0, 2240.0)),
                                               st.floats(1.0, 4000.0))))
    batteries = {}
    for d in drones:
        if d.role == "support":
            # near its reserve plus what it needs to fly the path alone
            need = sum(consumption_rate(model, d.payload, swarm.formation, d.position,
                                        sector) * seg.distance_m / 1000.0
                       for sector, seg in zip(sectors, segs))
            nears = [need + share.delta_frac * d.capacity]
            if not long_last:  # or near that need alone, or anywhere
                nears.append(need)
            choices = [st.floats(0.9, 1.1).map(
                lambda f, near=near: min(d.capacity, f * near)) for near in nears]
        else:  # full, or a little above its capacity, or anywhere
            choices = [st.floats(1.0, 1.05).map(lambda f: f * d.capacity)]
        if d.role == "delivery" or not long_last:
            choices.append(st.just(d.capacity))
        if not long_last:
            choices.append(st.floats(0.0, d.capacity))
        batteries[d.id] = draw(st.one_of(*choices))
    return swarm, net, path, model, batteries, share


class TestSharedFlyThroughBound:
    """The energy balance that rules a shared fly-through out before it is
    composed: it fires only where the leg-by-leg composition fails."""

    @given(shared_fly_throughs())
    @settings(max_examples=300, deadline=None)
    def test_a_ruled_out_fly_through_fails_leg_by_leg(self, case):
        # and so does one at the edge of what the bound rules out, as every
        # consumer fills the same share of its room
        swarm, net, path, model, batteries, share = case

        def filled(t):
            more = {d.id: batteries[d.id] + t * (d.capacity - batteries[d.id])
                    for d in swarm.delivery_drones()}
            return swarm, net, path, model, {**batteries, **more}, share

        ruled_out = rules_out(*case)
        event(f"{share.strategy} ruled out: {ruled_out}")
        event(f"{share.strategy} ruled out on the pool at lo: {pool_at_lo_decides(case)}")
        if not ruled_out:
            return
        assert fly_leg_by_leg(*case) is None
        if not rules_out(*filled(1.0)):
            assert fly_leg_by_leg(*filled(edge_of_ruled_out(filled, 1.0))) is None

    @given(spec_rates=st.tuples(st.floats(1.0, 100.0), st.floats(100.0, 300.0)),
           capacity=st.floats(1000.0, 8000.0),
           km=st.lists(st.sampled_from((0.3, 1.0, 2.5, 3.7)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_one_pb_consumer_is_ruled_out_within_a_thousandth_of_a_mah(
            self, spec_rates, capacity, km):
        # a consumer beside its provider drains faster than it is refilled
        # and files at once, so its battery falls all the way to the leg
        # end: the balance is all that decides, and the bound meets it
        share_rate, drain = spec_rates
        spec = DroneSpec(battery_capacity=capacity, cruise_speed=60.0,
                         inflight_share_rate=share_rate, base_consumption_rate=drain)
        model = model_for(spec)
        consumer, provider = make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)
        swarm, net = swarm_of([consumer, provider]), line_net(*km)
        path, share = list(range(len(km) + 1)), ShareConfig("pb", gamma=1.0)

        def case(battery):
            return (swarm, net, path, model, {0: battery, 1: provider.capacity}, share)

        assume(rules_out(*case(0.0)) and not rules_out(*case(capacity)))
        edge = edge_of_ruled_out(case, capacity)
        assert fly_leg_by_leg(*case(edge)) is None
        assert fly_leg_by_leg(*case(edge + 1e-3)) is not None

    @given(share_rate=st.floats(8.0, 100.0), tt=st.integers(4, 10),
           quanta=st.integers(1, 4), quantum_share=st.floats(0.1, 1.0),
           spare=st.floats(1.0, 1000.0))
    @settings(max_examples=60, deadline=None)
    def test_one_fb_consumer_whose_provider_runs_into_its_reserve(
            self, share_rate, tt, quanta, quantum_share, spare):
        # the offer holds `quanta` quanta and a hair above the reserve, so
        # fb grants one quantum more and stops; the turns fit the leg and
        # the consumer's battery falls to the leg end, so the provider's
        # pool is all that decides
        quantum = quantum_share * share_rate * tt / (quanta + 2)
        granted = (quanta + 1) * quantum
        drain = (granted + spare) / tt
        spec = DroneSpec(battery_capacity=4096.0, cruise_speed=60.0,
                         inflight_share_rate=share_rate, base_consumption_rate=drain)
        consumer, provider = make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)
        swarm, net = swarm_of([consumer, provider]), line_net(tt)
        share = ShareConfig("fb", delta_frac=0.2, quantum=quantum)
        reserve = share.delta_frac * provider.capacity
        provider_battery = reserve + quanta * quantum + 1e-4 + drain * tt

        def case(battery):
            return (swarm, net, [0, 1], model_for(spec),
                    {0: battery, 1: provider_battery}, share)

        edge = edge_of_ruled_out(case, consumer.capacity)
        assert fly_leg_by_leg(*case(edge)) is None
        [leg] = fly_leg_by_leg(*case(edge + 1e-3))
        assert leg.shared == pytest.approx(granted, rel=1e-12)

    def assert_edge_at_the_providers_balance(self, km, sectors, capacity, share_rate,
                                             lacks, share):
        """One consumer beside its provider on a line of legs, one wind
        sector per leg.  The consumer drains its whole capacity over the
        path and starts ``lacks`` short of full, so a refill of exactly
        ``lacks`` lands it empty at the end.  The provider's battery moves:
        at the bound's edge it gives ``lacks`` and cannot fly the path, and
        1e-3 mAh above it flies the path."""
        drain = capacity / sum(km)
        spec = DroneSpec(battery_capacity=capacity, cruise_speed=60.0,
                         inflight_share_rate=share_rate, base_consumption_rate=drain)
        model = EnergyModel(spec, SECTORED, 0.0)
        consumer, provider = make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)
        swarm = swarm_of([consumer, provider])
        net = line_net(*km, wind=[Wind(5.0, TOWARD[s]) for s in sectors])
        path = list(range(len(km) + 1))
        drains = [drain * SLOT_1_COEFFS[s] * t for s, t in zip(sectors, km)]
        own = sum(drains)

        def case(battery):
            return swarm, net, path, model, {0: capacity - lacks, 1: battery}, share

        edge = edge_of_ruled_out(case, 2 * lacks + own)
        assert fly_leg_by_leg(*case(edge)) is None
        legs = fly_leg_by_leg(*case(edge + 1e-3))
        assert legs is not None
        assert sum(leg.shared for leg in legs) == pytest.approx(lacks, abs=2e-3)
        # the edge keeps the documented slack below the balance: a billionth
        # of the batteries, leg 1's pool, the deficit, the supply (what the
        # provider holds beyond its drain) and the provider's drain
        pool = edge - drains[0]
        slack = 1e-9 * (capacity - lacks + edge + pool + lacks + abs(edge - own) + own)
        assert lacks + own - edge >= 2 * FLOOR_TOLERANCE + 1e-6 + slack

    @given(km=st.lists(st.sampled_from((1.0, 2.5, 3.7, 6.0)), min_size=2, max_size=3,
                       unique=True),
           sectors=st.permutations(WIND_SECTORS), capacity=st.floats(1000.0, 8000.0),
           faster=st.floats(2.0, 20.0), refill=st.floats(0.21, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_one_pb_provider_that_gives_what_it_needs_on_later_legs(
            self, km, sectors, capacity, faster, refill):
        # the consumer files for `refill` of its capacity at once and gets it
        # within leg 1 (`faster` times its drain), staying above gamma; leg
        # 1's offer leaves out the provider's drain over the later legs, so
        # what the provider needs for those legs is all that decides
        drain, lacks = capacity / sum(km), refill * capacity
        share_rate = faster * drain
        assume(lacks <= share_rate * km[0] and lacks * drain / share_rate < 0.2 * capacity)
        # nor does a refill filed at a later leg's start fit its offer
        drains = [drain * SLOT_1_COEFFS[s] * t for s, t in zip(sectors, km)]
        assume(all(drain * sum(km[:j]) > sum(drains[j + 1:]) + 1.0
                   for j in range(1, len(km))))
        self.assert_edge_at_the_providers_balance(
            km, sectors, capacity, share_rate, lacks, ShareConfig("pb", gamma=0.8))

    @given(km=st.lists(st.sampled_from((1.0, 2.5, 3.7, 6.0)), min_size=2, max_size=2,
                       unique=True),
           sectors=st.permutations(WIND_SECTORS), capacity=st.floats(1000.0, 8000.0),
           share_rate=st.floats(1.0, 300.0), refill=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_one_fb_provider_that_gives_what_it_needs_on_the_last_leg(
            self, km, sectors, capacity, share_rate, refill):
        # one turn outlasts leg 1 and grants all the consumer lacks; with
        # no reserve, leg 2's offer is what the provider holds beyond its
        # drain there, and it goes to the consumer too
        lacks = refill * capacity
        quantum = max(lacks, 2 * share_rate * km[0])
        self.assert_edge_at_the_providers_balance(
            km, sectors, capacity, share_rate, lacks,
            ShareConfig("fb", delta_frac=0.0, quantum=quantum))

    @given(capacity=st.floats(1000.0, 8000.0), drain=st.floats(10.0, 300.0),
           last=st.floats(0.5, 0.95), middle=st.floats(0.3, 0.6),
           room=st.floats(0.05, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_one_fb_provider_whose_room_drains_away_before_a_long_last_leg(
            self, capacity, drain, last, middle, room):
        # the consumer starts full, so leg 1 grants nothing.  Leg 2 grants it
        # two quanta, the second as the support drone's offer reaches its
        # reserve, and the consumer flies the long leg 3 on them and nothing
        # more.  The support drone drains on leg 2 too, so it is the pool at
        # leg 2, not leg 1's, that meets the balance
        x2, x3 = middle * capacity, last * capacity  # the consumer's drains
        assume(x2 + x3 > 1.01 * capacity)  # it cannot fly legs 2 and 3 alone
        quantum = x2 + x3 - capacity + room * (capacity - x3)
        x1 = 2 * quantum - x2 - x3 + capacity  # so it lacks two quanta in all
        spec = DroneSpec(battery_capacity=capacity, cruise_speed=60.0,
                         inflight_share_rate=drain, base_consumption_rate=drain)
        consumer, provider = make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)
        swarm, net = swarm_of([consumer, provider]), line_net(x1 / drain, x2 / drain,
                                                             x3 / drain)
        share = ShareConfig("fb", quantum=quantum,
                            delta_frac=(quantum + x3 + 0.05 * capacity) / provider.capacity)

        def case(battery):
            return (swarm, net, [0, 1, 2, 3], model_for(spec),
                    {0: capacity, 1: battery}, share)

        edge = edge_of_ruled_out(case, provider.capacity)
        assert pool_at_lo_decides(case(edge))
        assert fly_leg_by_leg(*case(edge)) is None
        legs = fly_leg_by_leg(*case(edge + 1e-3))
        assert legs is not None
        assert [leg.shared for leg in legs] == [0.0, pytest.approx(2 * quantum), 0.0]

    @given(capacity=st.floats(1000.0, 8000.0), drain=st.floats(10.0, 300.0),
           first=st.floats(0.25, 0.7), second=st.floats(0.25, 0.7))
    @settings(max_examples=60, deadline=None)
    def test_one_pb_provider_that_refills_a_full_consumer_before_a_long_last_leg(
            self, capacity, drain, first, second):
        # the consumer starts full and files at the starts of legs 2 and 3
        # for what it drained on legs 1 and 2; refills run at eight times
        # its drain, so it stays above gamma after each.  It flies the long
        # leg 3 on its whole capacity.  pb has no reserve: the pool at leg 2
        # is no less than what the support drone holds beyond its drain over
        # all three legs, and that decides
        x1, x2 = first * capacity, second * capacity
        spec = DroneSpec(battery_capacity=capacity, cruise_speed=60.0,
                         inflight_share_rate=8 * drain, base_consumption_rate=drain)
        consumer, provider = make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)
        swarm = swarm_of([consumer, provider])
        net = line_net(x1 / drain, x2 / drain, capacity / drain)
        share = ShareConfig("pb", gamma=0.8)

        def case(battery):
            return (swarm, net, [0, 1, 2, 3], model_for(spec),
                    {0: capacity, 1: battery}, share)

        edge = edge_of_ruled_out(case, provider.capacity)
        assert fly_leg_by_leg(*case(edge)) is None
        legs = fly_leg_by_leg(*case(edge + 1e-3))
        assert legs is not None
        assert [leg.shared for leg in legs] == [0.0, pytest.approx(x1), pytest.approx(x2)]

    def one_grant_then_the_reserve(self, km, above):
        """Delivery drone 0 starts empty beside support drone 1, and delivery
        drone 2, which drains twice as fast, sits on its other side ``above``
        its capacity.  On leg 1 fb grants drone 0 one quantum, what it
        needs and 1 mAh more; the support drone's offer is then at its
        reserve, so nothing more is given.  Its drain on the later legs
        would leave its pool short of that quantum."""
        spec = DroneSpec(battery_capacity=4096.0, cruise_speed=60.0,
                         inflight_share_rate=1024.0, base_consumption_rate=64.0)
        model = model_for(spec, payload_gain=1.0)
        drones = [make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec),
                  make_delivery_drone(2, 1.4, spec)]
        swarm, net = swarm_of(drones), line_net(*km)
        rates = planner._RateCache(swarm, model).rates("tail")  # FLAT: any sector
        tts = [travel_time(x * 1000.0, 60.0) for x in km]
        share = ShareConfig("fb", delta_frac=0.65, quantum=rates[0] * sum(tts) + 1.0)
        reserve = share.delta_frac * drones[1].capacity
        batteries = {0: 0.0, 1: reserve + 1.0 + rates[1] * tts[0], 2: 4096.0 + above}
        case = swarm, net, list(range(len(km) + 1)), model, batteries, share
        assert not rules_out(*case)
        legs = fly_leg_by_leg(*case)
        assert legs is not None
        assert [leg.shared for leg in legs] == [share.quantum] + [0.0] * (len(km) - 1)
        return rates, tts

    def test_a_consumer_above_its_capacity_is_held_to_its_start(self):
        # drone 2 cannot fly leg 2 on its capacity, but it can on its start
        rates, tts = self.one_grant_then_the_reserve((4.0, 33.0), 700.0)
        assert 4096.0 < rates[2] * tts[1] and rates[2] * sum(tts) < 4096.0 + 700.0

    def test_a_consumer_that_lands_within_the_floor_flies_unaided(self):
        # after a leg of a picosecond, drone 2 flies a leg that drains its
        # capacity and a few ulps more; it lands within FLOOR_TOLERANCE of 0
        km = 32.0
        while 128.0 * travel_time(km * 1000.0, 60.0) <= 4096.0:
            km = math.nextafter(km, math.inf)
        rates, tts = self.one_grant_then_the_reserve((1e-12, km), 0.0)
        assert 4096.0 < rates[2] * tts[1] < 4096.0 + FLOOR_TOLERANCE / 4
        assert rates[2] * tts[0] < FLOOR_TOLERANCE / 4


def plain_check(net, path, model, batteries, cache):
    """Whether the plain fly-through fails: ``_flight`` without sharing."""
    return planner._flight(net, path, model, batteries, None, cache) is None


def plain_fails(swarm, net, path, model, batteries):
    return plain_check(net, path, model, batteries, planner._RateCache(swarm, model))


def hinted_cache(swarm, model, first, share=None):
    """A fresh cache whose next flight under ``share`` flies group
    ``first`` first: its index in the cache's blocks, or in the swarm
    when the flight has no blocks."""
    cache = planner._RateCache(swarm, model)
    if share is not None and cache.blocks:
        cache.failed_block = first
    else:
        cache.failed = first
    return cache


def a_leg_ends_below_the_floor(swarm, net, path, model, batteries):
    """Whether some drone's b - rate * tt falls below the floor at a leg
    end, legs in order: the plain check if it read a in place of the
    grid's own expression there."""
    cache, state = planner._RateCache(swarm, model), dict(batteries)
    for a, b in zip(path, path[1:]):
        _, sector, tt = cache.leg(net, a, b)
        state = {i: state[i] - rate * tt for i, rate in cache.rates(sector).items()}
        if min(state.values()) < -FLOOR_TOLERANCE:
            return True
    return False


def leg_end_reads(rate, tts, battery):
    """Leg ``len(tts)``'s end, a = b - rate * tt, and the grid's read there,
    b + (a - b) * tt / tt, for a drone that starts the path at ``battery``
    and drains ``rate[j]`` a minute on leg j."""
    for r, tt in zip(rate, tts):
        before, battery = battery, battery - r * tt
    return battery, before + (battery - before) * tt / tt


def starts_near_the_floor(rate, tts, capacity):
    """The least start, to 60 halvings of [0, capacity], at which the grid's
    read at leg ``len(tts)``'s end is at or above the floor, and the starts
    within 3 ulps of it, each with whether a and that read fall either side
    of the floor there; none if even ``capacity`` falls short."""
    def passes(start):
        return leg_end_reads(rate, tts, start)[1] >= -FLOOR_TOLERANCE

    lo, hi = 0.0, capacity
    if not passes(hi):
        return []
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    starts = [hi]
    for toward in (-math.inf, math.inf):
        x = hi
        for _ in range(3):
            x = math.nextafter(x, toward)
            starts.append(x)
    return [(x, len({r < -FLOOR_TOLERANCE for r in leg_end_reads(rate, tts, x)}) == 2)
            for x in starts]


@st.composite
def plain_fly_throughs(draw):
    """A swarm with or without support drones on a path of one to eight
    legs in random directions and winds, from batteries up to full; in
    about half the draws one drone starts within a few ulps of where a
    leg ends it at the floor, and the others start full."""
    spec = DroneSpec(battery_capacity=draw(st.floats(1000.0, 8000.0)),
                     cruise_speed=60.0,
                     base_consumption_rate=draw(st.floats(10.0, 300.0)))
    model = EnergyModel(spec, default_table())
    n_delivery = draw(st.integers(1, 5))
    drones = [make_delivery_drone(i, draw(st.floats(0.0, 1.4)), spec)
              for i in range(n_delivery)]
    drones += [make_support_drone(n_delivery + j, spec)
               for j in range(draw(st.integers(0, 2)))]
    swarm = swarm_of(drones, draw(st.sampled_from(FORMATION_KINDS)))
    assign_positions(swarm, draw(st.sampled_from(POSITIONING_SETTINGS)),
                     draw(st.sampled_from(WIND_SECTORS)), model)
    degrees = st.floats(0.0, 360.0)
    legs = draw(st.lists(st.tuples(degrees, st.floats(0.2, 8.0),
                                   st.floats(0.0, 13.0), degrees),
                         min_size=1, max_size=8))
    net, path = path_net(legs)
    batteries = {d.id: draw(st.one_of(st.just(d.capacity), st.floats(0.0, d.capacity)))
                 for d in drones}
    if draw(st.booleans()):
        # one drone starts a few ulps from where leg k's end reaches the
        # floor, the others full.  Where some drone has a start there at
        # which a and the grid's read fall either side of the floor, one of
        # those is drawn: only there, and only on the last leg, does the
        # grid's read decide
        k = draw(st.one_of(st.just(len(legs)), st.integers(1, len(legs))))
        cache = planner._RateCache(swarm, model)
        steps = [cache.leg(net, a, b) for a, b in zip(path[:k], path[1:k + 1])]
        tts = [tt for _, _, tt in steps]
        near = [(d.id, start, split) for d in drones
                for start, split in starts_near_the_floor(
                    [cache.rates(sector)[d.id] for _, sector, _ in steps], tts,
                    d.capacity)]
        if near:
            i, start, _ = draw(st.sampled_from([n for n in near if n[2]] or near))
            batteries = {d.id: d.capacity for d in drones}
            batteries[i] = start
    return swarm, net, path, model, batteries


class TestPlainFlyThrough:
    """The closed-form check that rules a plain fly-through out before its
    legs are built: it fires exactly where the leg-by-leg flight fails."""

    @given(plain_fly_throughs())
    @settings(max_examples=300, deadline=None)
    def test_fails_exactly_where_the_legs_fail(self, case):
        fails = plain_fails(*case)
        decided = ("the grid's leg-end read" if fails != a_leg_ends_below_the_floor(*case)
                   else "either read")
        event(f"plain fails: {fails}; decided by {decided}")
        assert fails == (fly_leg_by_leg(*case, None) is None)

    def drones(self, rate, batteries, *km, wind=CALM, coeffs=FLAT):
        """Drones that each drain ``rate`` a minute, from ``batteries``, on
        a line of ``km`` legs, at 1 km a minute."""
        spec = DroneSpec(battery_capacity=8000.0, cruise_speed=60.0,
                         base_consumption_rate=rate)
        swarm = swarm_of([make_delivery_drone(i, 0.0, spec) for i in range(len(batteries))])
        return swarm, line_net(*km, wind=wind), list(range(len(km) + 1)), \
            EnergyModel(spec, coeffs, 0.0), dict(enumerate(batteries))

    def one_drone(self, rate, battery, *km, wind=CALM, coeffs=FLAT):
        return self.drones(rate, [battery], *km, wind=wind, coeffs=coeffs)

    def assert_agrees(self, case, fails):
        assert plain_fails(*case) is fails
        assert (fly_leg_by_leg(*case, None) is None) is fails

    def test_the_grid_read_not_the_leg_end_decides_at_the_float_edge(self):
        b, rate, tt = 3290.936686566305, 287.98143383683094, 11.427600184920031
        case = self.one_drone(rate, b, tt)
        assert travel_time(tt * 1000.0, 60.0) == tt
        a = b - rate * tt
        assert -FLOOR_TOLERANCE < a and b + (a - b) * tt / tt < -FLOOR_TOLERANCE
        assert not a_leg_ends_below_the_floor(*case)
        self.assert_agrees(case, True)

    def test_a_leg_that_ends_exactly_at_the_floor_passes(self):
        self.assert_agrees(self.one_drone(FLOOR_TOLERANCE, 0.0, 1.0), False)
        below = -4 * math.ulp(FLOOR_TOLERANCE)
        self.assert_agrees(self.one_drone(FLOOR_TOLERANCE, below, 1.0), True)

    @pytest.mark.parametrize("battery, fails", [(-2e-9, True), (-FLOOR_TOLERANCE, False)])
    def test_a_leg_of_no_time_reads_its_start(self, battery, fails):
        # a subnormal distance takes 0.0 minutes: the leg is rejected before
        # any battery is read, whether the start is below the floor or not
        case = self.one_drone(50.0, battery, 1e-323)
        message = no_time_message(case[1], 0, 1, case[3])
        assert message.startswith("segment (0, 1): ")
        for check in (plain_fails, lambda *c: fly_leg_by_leg(*c, None)):
            with pytest.raises(ValueError) as info:
                check(*case)
            assert str(info.value) == message

    def test_a_start_below_the_floor_fails_the_first_leg(self):
        self.assert_agrees(self.one_drone(50.0, -2e-9, 1e-6), True)

    def test_every_leg_is_read_not_only_the_last(self):
        # the drone runs dry on leg 2 of 3; on its start it could fly leg 3
        # alone.  A last leg without coefficients (below) tells a check that
        # reads only the last leg, after draining the others, from one that
        # reads each
        self.assert_agrees(self.one_drone(50.0, 400.0, 4.0, 5.0, 0.1), True)
        self.assert_agrees(self.one_drone(50.0, 460.0, 4.0, 5.0, 0.1), False)

    def test_a_leg_without_coefficients_raises_after_the_legs_before_it_pass(self):
        # the table prices tail wind only, and leg 3 flies into a head wind
        tail_only = CoefficientTable({(kind, slot, "tail"): 1.0
                                      for kind in FORMATION_KINDS for slot in range(12)})
        wind = [CALM, CALM, Wind(5.0, TOWARD["head"])]
        for batteries in ([8000.0], [8000.0, 8000.0, 8000.0]):
            case = self.drones(50.0, batteries, 1.0, 1.0, 1.0, wind=wind, coeffs=tail_only)
            # whichever drone is judged first
            for first in range(len(batteries)):
                with pytest.raises(ValueError, match="no coefficient .* sector 'head'"):
                    plain_check(*case[1:], hinted_cache(case[0], case[3], first))
            with pytest.raises(ValueError, match="no coefficient .* sector 'head'"):
                fly_leg_by_leg(*case, None)
        # and is never reached after one that fails: drone 1 runs dry on leg
        # 2, after drone 0, judged first, has reached leg 3
        self.assert_agrees(self.one_drone(50.0, 60.0, 1.0, 1.0, 1.0, wind=wind,
                                          coeffs=tail_only), True)
        case = self.drones(50.0, [8000.0, 60.0, 8000.0], 1.0, 1.0, 1.0, wind=wind,
                           coeffs=tail_only)
        assert fly_leg_by_leg(*case, None) is None
        for first in range(3):
            cache = hinted_cache(case[0], case[3], first)
            assert plain_check(*case[1:], cache) is True
            assert cache.failed == 1


class TestSharedLegFromFull:
    """From full batteries both composers are idle on one leg, so a shared
    leg drains as a plain one: the walker prices its stops on this."""

    @given(plain_fly_throughs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_shared_leg_from_full_drains_as_a_plain_one(self, case, data):
        swarm, net, path, model, _ = case
        k = data.draw(st.integers(0, len(path) - 2))
        u, v = path[k], path[k + 1]
        share = ShareConfig(data.draw(st.sampled_from(("pb", "fb"))),
                            gamma=data.draw(st.one_of(st.sampled_from((0.0, 0.8, 1.0)),
                                                      st.floats(0.0, 1.0))),
                            delta_frac=data.draw(st.floats(0.0, 0.99)),
                            quantum=data.draw(st.one_of(st.sampled_from((28.0, 2240.0)),
                                                        st.floats(1.0, 4000.0))))
        full = {d.id: d.capacity for d in swarm.drones}
        fails = plain_fails(swarm, net, [u, v], model, full)
        event(f"{share.strategy}, {len(swarm.support_drones())} support drones, "
              f"plain fails: {fails}")
        leg = feasible_leg(swarm, net, u, v, model, share=share)
        assert (leg is None) == fails
        if leg is not None:
            plain = feasible_leg(swarm, net, u, v, model)
            assert leg.plan is None or leg.plan.allocations == []
            assert leg.batteries_after == plain.batteries_after
            # so a stop taken builds its leg from its row, composing nothing
            cache = planner._RateCache(swarm, model)
            for blocks, want in ((cache.blocks, leg), ([], plain)):
                built = planner._legs([u, v], [cache.row(net, u, v)], {}, full, blocks,
                                      cache)
                assert (repr(built), repr(built[0].traces), repr(built[0].shared)) == \
                    (repr([want]), repr(want.traces), repr(want.shared))



@st.composite
def stop_legs(draw, metres=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 60000.0))):
    """A swarm with or without support drones and one leg of ``metres``
    from node 0 to a padded node 1, in a random direction and wind: by
    default legs whose drains fall either side of a millionth of a
    capacity, and legs up to 60 km, which some drone cannot fly."""
    spec = DroneSpec(battery_capacity=draw(st.floats(1000.0, 8000.0)),
                     cruise_speed=60.0,
                     base_consumption_rate=draw(st.floats(10.0, 300.0)))
    model = EnergyModel(spec, default_table())
    n_delivery = draw(st.integers(1, 5))
    drones = [make_delivery_drone(i, draw(st.floats(0.0, 1.4)), spec)
              for i in range(n_delivery)]
    drones += [make_support_drone(n_delivery + j, spec)
               for j in range(draw(st.integers(0, 2)))]
    swarm = swarm_of(drones, draw(st.sampled_from(FORMATION_KINDS)))
    assign_positions(swarm, draw(st.sampled_from(POSITIONING_SETTINGS)),
                     draw(st.sampled_from(WIND_SECTORS)), model)
    heading = math.radians(draw(st.floats(0.0, 360.0)))
    net = SkywayNetwork(
        [Node(0, 0.0, 0.0, 1), Node(1, 1000.0 * math.cos(heading),
                                    1000.0 * math.sin(heading), draw(st.integers(1, 4)))],
        [Segment(0, 1, draw(metres), Wind(draw(st.floats(0.0, 13.0)),
                                          draw(st.floats(0.0, 360.0))))])
    return swarm, net, model


class TestStopDrains:
    """The walker and the static routers price a stop from one pass over
    the leg's rates, ``_price_stop``: the same verdict as the plain
    ``_flight`` and the leg ``feasible_leg`` builds, and restore times
    from the same drains as those taken from the travel time and from
    that leg."""

    @given(stop_legs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_prices_a_stop_as_the_probe_and_the_leg_did(self, case, at_end):
        swarm, net, model = case
        # full batteries in reverse swarm order: the checks read them by id
        full = {d.id: d.capacity for d in reversed(swarm.drones)}
        cache = planner._RateCache(swarm, model)
        destination = 1 if at_end else None
        assert not no_time_message(net, 0, 1, model)
        with mock.patch.object(planner, "_first_optimum",
                               wraps=planner._first_optimum) as candidates, \
                mock.patch.object(planner, "pad_schedule",
                                  wraps=planner.pad_schedule) as search:
            stop = planner._price_stop(net, 0, 1, destination, cache)
        fails = plain_check(net, [0, 1], model, full, cache)
        leg = feasible_leg(swarm, net, 0, 1, model)
        assert (stop is None) == fails == (leg is None)
        assert repr(stop) == repr(price_stop_as_written(
            swarm, net, 0, 1, destination, full, model, planner._RateCache(swarm, model)))
        _, sector, tt = cache.leg(net, 0, 1)
        if fails:
            event("fails")
            return
        if at_end:
            assert stop == (tt, None) and not candidates.called and not search.called
            return
        # the drains the stop was priced from, as taken from tt and from the leg
        rates = cache.rates(sector)
        from_tt = [d.capacity - (d.capacity - rates[d.id] * tt) for d in swarm.drones]
        from_leg = [d.capacity - leg.batteries_after[d.id] for d in swarm.drones]
        small = any(drain < d.capacity * 1e-6 for d, drain in zip(swarm.drones, from_tt))
        event(f"a drain under 1e-6: {small}")
        assert repr(from_tt) == repr(from_leg)
        assert (candidates.called, search.called) == (not small, small)
        times = (search.call_args.args[0] if small else candidates.call_args.args[1])
        assert repr(times) == repr([d / model.spec.pad_charge_rate for d in from_tt])
        node = net.nodes[1]
        want = full_recharge_as_written(swarm, node, sector, from_tt, model,
                                        planner._RateCache(swarm, model))
        sched = pad_schedule([d / model.spec.pad_charge_rate for d in from_tt], node.pads)
        assert repr(stop) == repr((tt + want.nt, want))
        assert repr(want) == repr(planner.NodeVisit(node.id, sched.node_time, sched.queues))

    @given(stop_legs(st.just(1e-320)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_stop_on_a_leg_of_no_time_raises(self, case, at_end):
        # a 1e-320 m leg takes 0.0 minutes: the stop, the probe and the leg
        # raise the same message before any battery is read
        swarm, net, model = case
        full = {d.id: d.capacity for d in swarm.drones}
        cache = planner._RateCache(swarm, model)
        message = no_time_message(net, 0, 1, model)
        assert message.startswith("segment (0, 1): ")
        for check in (lambda: planner._price_stop(net, 0, 1, 1 if at_end else None, cache),
                      lambda: plain_check(net, [0, 1], model, full, cache),
                      lambda: feasible_leg(swarm, net, 0, 1, model)):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message


def drone_fails_alone(net, path, batteries, cache, i):
    """Whether drone ``i`` (by id) fails a leg of ``path`` by
    ``plain_drain_as_written``'s read, legs in order, before any leg whose
    rates cannot be built."""
    state = batteries
    for u, v in zip(path, path[1:]):
        _, sector, tt = cache.leg(net, u, v)
        try:
            rates = cache.rates(sector)
        except ValueError:
            return False
        state = plain_drain_as_written(state, rates, tt, [i])
        if state is None:
            return True
    return False


def table_without(sector):
    """The default table with no coefficient for ``sector``; None keeps all."""
    table = default_table()
    return CoefficientTable({(kind, slot, s): table.coefficient(kind, slot, s)
                             for kind in FORMATION_KINDS for slot in range(12)
                             for s in WIND_SECTORS if s != sector})


class TestPlainChecksAsWritten:
    """The plain ``_flight`` judges one drone at a time, from the drone that
    failed the last flight, and ``_price_stop`` reads a leg's rates in one
    pass: the same verdicts, errors, prices and visits as both as written
    (every drone leg by leg through ``plain_drain_as_written``, and a dict
    of end batteries priced by ``full_recharge_as_written``)."""

    @given(plain_fly_throughs(), st.sampled_from((None, *WIND_SECTORS)))
    @settings(max_examples=300, deadline=None)
    def test_the_verdict_whichever_drone_is_judged_first(self, case, missing):
        swarm, net, path, model, batteries = case
        # legs in the ``missing`` sector cannot build their rates
        model = EnergyModel(model.spec, table_without(missing))
        want, _ = judged(plain_fails_as_written, net, path, batteries,
                         planner._RateCache(swarm, model))
        for first in range(len(swarm.drones)):
            cache = hinted_cache(swarm, model, first)
            got, verdict = judged(plain_check, net, path, model, batteries, cache)
            assert got == want
            if verdict:  # the drone left as the hint fails alone, the hinted one first
                hint = cache.ids[cache.failed]
                assert drone_fails_alone(net, path, batteries, cache, hint)
                if drone_fails_alone(net, path, batteries, cache, cache.ids[first]):
                    assert cache.failed == first
        event(f"as written: {want[0]}")
        # one cache over every suffix of the path, each hint left by the last
        cache = planner._RateCache(swarm, model)
        for k in range(len(path) - 1):
            assert judged(plain_check, net, path[k:], model, batteries, cache)[0] == \
                judged(plain_fails_as_written, net, path[k:], batteries,
                       planner._RateCache(swarm, model))[0]

    @given(plain_fly_throughs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_stop_price_and_visit(self, case, data):
        swarm, net, path, model, _ = case
        # the same path with one to four pads at each node
        net = SkywayNetwork([Node(node.id, node.x, node.y, data.draw(st.integers(1, 4)))
                             for node in net.nodes.values()], net.segments)
        full = {d.id: d.capacity for d in swarm.drones}
        cache, old_cache = planner._RateCache(swarm, model), planner._RateCache(swarm, model)
        for a, b in zip(path, path[1:]):
            for u, v in ((a, b), (b, a)):
                destination = data.draw(st.sampled_from((None, v)))
                got, _ = judged(planner._price_stop, net, u, v, destination, cache)
                want, _ = judged(price_stop_as_written, swarm, net, u, v, destination,
                                 full, model, old_cache)
                assert got == want
                event("a visit" if "NodeVisit" in got[0] else "no visit")


def no_time_message(net, a, b, model):
    """The error that rejects the leg a -> b if it flies in 0.0 minutes,
    else the empty string."""
    seg = net.segment(a, b)
    if travel_time(seg.distance_m, model.spec.cruise_speed) != 0.0:
        return ""
    return (f"segment ({seg.u}, {seg.v}): {seg.distance_m} m takes 0.0 min "
            f"at {model.spec.cruise_speed:g} km/h; need > 0")


def flown_leg(net, u, v, model, batteries, share, cache):
    """``feasible_leg`` on a cache that outlives one call: ``_flight`` on
    the path [u, v]."""
    legs = planner._flight(net, [u, v], model, batteries, share, cache)
    return legs and legs[0]


def judged(check, *args, **kwargs):
    """What ``check`` gives, by ``repr`` and with a leg's traces, or the
    ValueError it raises, with its message; and what it gave."""
    try:
        got = check(*args, **kwargs)
    except ValueError as exc:
        return ("raises", type(exc).__name__, str(exc)), None
    return (repr(got), repr(getattr(got, "traces", None))), got


SHARE_CONFIGS = st.builds(
    ShareConfig, st.sampled_from(("pb", "fb")),
    gamma=st.one_of(st.sampled_from((0.0, 0.8, 0.95, 1.0)), st.floats(0.0, 1.0)),
    delta_frac=st.one_of(st.sampled_from((0.0, 0.2, 0.65)), st.floats(0.0, 0.99)),
    quantum=st.one_of(st.sampled_from((28.0, 2240.0)), st.floats(1.0, 4000.0)))


@st.composite
def blocks_on_legs(draw, shares=st.one_of(st.none(), SHARE_CONFIGS)):
    """One to three provider blocks, some with no consumer, on a path of
    one to four legs that take whole minutes, fractions, less than a
    minute or 0.0 minutes (1e-320 m), under a ``shares`` config.  Each
    drone starts full, anywhere, a little above its capacity, within
    3 ulps of the floor, or within 3 ulps of where the grid's read at a
    leg's end meets the floor; a block's consumers may all start full."""
    spec = DroneSpec(battery_capacity=draw(st.floats(1000.0, 8000.0)),
                     cruise_speed=60.0,
                     inflight_share_rate=draw(st.floats(1.0, 300.0)),
                     base_consumption_rate=draw(st.floats(10.0, 300.0)))
    model = EnergyModel(spec, default_table())
    n_delivery, n_support = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    drones = [make_delivery_drone(i, draw(st.floats(0.0, 1.4)), spec)
              for i in range(n_delivery)]
    drones += [make_support_drone(n_delivery + j, spec) for j in range(n_support)]
    swarm = swarm_of(drones, draw(st.sampled_from(FORMATION_KINDS)))
    assign_positions(swarm, draw(st.sampled_from(POSITIONING_SETTINGS)),
                     draw(st.sampled_from(WIND_SECTORS)), model)
    degrees = st.floats(0.0, 360.0)
    km = st.one_of(st.integers(1, 12).map(float), st.floats(0.2, 12.0),
                   st.floats(1e-3, 0.999), st.just(1e-323))
    net, path = path_net(draw(st.lists(st.tuples(degrees, km, st.floats(0.0, 13.0),
                                                  degrees), min_size=1, max_size=4)))
    cache = planner._RateCache(swarm, model)
    # each leg's sector and travel time, read without cache.leg, which
    # rejects a leg of no time
    steps = [(wind_sector(net.heading(a, b), seg.wind),
              travel_time(seg.distance_m, spec.cruise_speed))
             for a, b in zip(path, path[1:]) for seg in [net.segment(a, b)]]
    k = draw(st.integers(1, len(steps)))
    tts = [tt for _, tt in steps[:k]]
    batteries = {}
    for d in drones:
        choices = [st.just(d.capacity), st.floats(0.0, d.capacity),
                   st.floats(1.0, 1.05).map(lambda f, cap=d.capacity: f * cap),
                   st.sampled_from(NEAR_FLOOR)]
        if all(tts):  # the grid's read is 0/0 on a leg of no time
            near = starts_near_the_floor(
                [cache.rates(sector)[d.id] for sector, _ in steps[:k]], tts, d.capacity)
            if near:  # where the grid's read and a fall either side, one of those
                choices.append(st.sampled_from([start for start, split in near if split]
                                               or [start for start, _ in near]))
        if d.role == "support":  # full half the time, so that blocks compose
            choices = [st.just(d.capacity), st.one_of(*choices)]
        batteries[d.id] = draw(st.one_of(*choices))
    for block in cache.blocks:
        if draw(st.booleans()):
            batteries.update({c: block.capacities[c] for c in block.consumers})
    return swarm, net, path, model, batteries, draw(shares)


class TestSharedLegsAsWritten:
    """``feasible_leg`` judges each provider block as it is built and
    ``_sharing_cannot_save`` skips the supply arithmetic where it cannot
    fire: the same legs, traces, verdicts and errors as both as written."""

    @given(blocks_on_legs())
    @settings(max_examples=400, deadline=None)
    def test_every_leg_of_a_fly_through_as_written(self, case):
        swarm, net, path, model, batteries, share = case
        built = []  # per block: whether it was composed
        share_block = planner._share_block

        def counted(*args):
            result = share_block(*args)
            built.append(result is not None)
            return result

        cache, old_cache = planner._RateCache(swarm, model), planner._RateCache(swarm, model)
        state = batteries
        for a, b in zip(path, path[1:]):
            built.clear()
            with mock.patch.object(planner, "_share_block", counted):
                got, _ = judged(flown_leg, net, a, b, model, state, share, cache)
            want, leg = judged(feasible_leg_as_written, swarm, net, a, b, model,
                               batteries=state, share=share, rate_cache=old_cache)
            assert got == want
            verdict = "raises" if want[0] == "raises" else "passes" if leg else "fails"
            no_time = no_time_message(net, a, b, model)
            if no_time:
                assert got == ("raises", "ValueError", no_time)
            event(f"{share.strategy if share else 'no sharing'}, "
                  f"tt 0.0: {bool(no_time)}, {verdict}")
            if share is not None:
                event(f"{verdict} after {len(built)} of {len(cache.blocks)} blocks, "
                      f"{sum(built)} composed")
            if leg is None:
                break
            state = leg.batteries_after

    @pytest.mark.parametrize("share", [None, ShareConfig("pb", gamma=0.4),
                                       ShareConfig("fb", delta_frac=0.99)])
    def test_the_grid_read_not_the_leg_end_decides_at_the_float_edge(self, share):
        # the drone's a = b - rate * tt clears the floor, the grid's read
        # b + (a - b) * tt / tt does not.  Its block is idle: the drone
        # holds 41% of its capacity, and its support drone offers less
        # than a reserve of 99% of its own capacity
        b, rate, tt = 3290.936686566305, 287.98143383683094, 11.427600184920031
        spec = DroneSpec(battery_capacity=8000.0, cruise_speed=60.0,
                         base_consumption_rate=rate)
        swarm = swarm_of([make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec)])
        model, net = EnergyModel(spec, FLAT, 0.0), line_net(tt)
        batteries = {0: b, 1: swarm.drones[1].capacity}
        if share is not None:
            cache = planner._RateCache(swarm, model)
            _, sector, _ = cache.leg(net, 0, 1)
            assert planner._share_block(cache.blocks[0], batteries, cache.rates(sector),
                                        tt, share, model, cache.swaps(sector)) is None
        got = judged(feasible_leg, swarm, net, 0, 1, model, batteries=batteries,
                     share=share)
        assert got == judged(feasible_leg_as_written, swarm, net, 0, 1, model,
                             batteries=batteries, share=share)
        assert got[1] is None

    @given(blocks_on_legs(shares=SHARE_CONFIGS))
    @settings(max_examples=400, deadline=None)
    def test_the_certificate_as_written(self, case):
        swarm, net, path, model, batteries, share = case
        got, ruled_out = judged(planner._sharing_cannot_save, net, path, model,
                                batteries, share, planner._RateCache(swarm, model))
        want, _ = judged(sharing_cannot_save_as_written, net, path, model, batteries,
                         share, planner._RateCache(swarm, model))
        event(f"{share.strategy} rules out: {ruled_out}")
        assert got == want
        # every leg is read before any is judged: the first of no time raises
        no_time = [m for a, b in zip(path, path[1:]) if (m := no_time_message(net, a, b, model))]
        if no_time:
            assert got == ("raises", "ValueError", no_time[0])


def fly_through(net, path, model, batteries, share, cache):
    """A fly-through as ``_moves`` flies one: ``_flight``, unless sharing
    is on and ``_sharing_cannot_save`` rules it out."""
    if share is not None and planner._sharing_cannot_save(net, path, model, batteries,
                                                          share, cache):
        return None
    return planner._flight(net, path, model, batteries, share, cache)


def flown(fly, *args):
    """What a flight gives, field by field: each leg's repr (its dicts in
    key order, its allocations and swaps in order) and its traces; or
    None; or the ValueError it raises, with its message."""
    try:
        legs = fly(*args)
    except ValueError as exc:
        return "raises", str(exc)
    return legs and [(repr(leg), repr(leg.traces)) for leg in legs]


def composed_blocks(fly, *args):
    """The providers of the blocks ``fly`` composes, in order, and what it
    gives."""
    providers = []
    share_block = planner._share_block

    def counted(block, *rest):
        providers.append(block.provider)
        return share_block(block, *rest)

    with mock.patch.object(planner, "_share_block", counted):
        got = flown(fly, *args)
    return providers, got


def raising_swaps(cache, bad):
    """``cache`` with a swap table that raises in the ``bad`` sector."""
    swaps = cache.swaps

    def table(sector):
        if sector == bad:
            raise ValueError(f"no swap table in sector {sector!r}")
        return swaps(sector)

    cache.swaps = table
    return cache


class TestBlockMajorFlight:
    """A fly-through flies one group, a provider block or else a drone,
    over the whole path at a time, from the group that failed the last
    flight, and builds its legs only when every group survives: the same
    verdicts, legs and errors as leg by leg, as written, whichever group
    goes first."""

    def assert_as_written(self, swarm, net, path, model, batteries, share):
        case = (swarm, net, path, model, batteries, share)
        want = flown(fly_through_as_written, *case, planner._RateCache(swarm, model))
        want_legs = flown(fly_legs_as_written, *case, planner._RateCache(swarm, model))
        blocks = planner._RateCache(swarm, model).blocks if share is not None else []
        for first in range(len(blocks) or len(swarm.drones)):
            got = flown(fly_through, *case[1:], hinted_cache(swarm, model, first, share))
            assert got == want
            cache = hinted_cache(swarm, model, first, share)
            providers, got = composed_blocks(planner._flight, net, path, model,
                                             batteries, share, cache)
            assert got == want_legs
            if got is None and blocks:
                # the block left as the hint fails first when flown again
                hint = blocks[cache.failed_block].provider
                again, got = composed_blocks(planner._flight, net, path, model,
                                             batteries, share, cache)
                assert got is None and set(again) <= {hint}
                event("the forced block failed" if hint == blocks[first].provider
                      else "a later block failed")
        verdict = "raises" if want_legs and want_legs[0] == "raises" else (
            "flies" if want_legs else "fails")
        event(f"{share.strategy if share else 'no sharing'}, {len(blocks)} blocks: "
              f"checked {'flies' if want else 'fails'}, legs {verdict}")

    @given(shared_fly_throughs())
    @settings(max_examples=300, deadline=None)
    def test_shared_fly_throughs_as_written(self, case):
        self.assert_as_written(*case)

    @given(plain_fly_throughs(), st.one_of(st.none(), SHARE_CONFIGS))
    @settings(max_examples=300, deadline=None)
    def test_plain_fly_throughs_as_written(self, case, share):
        self.assert_as_written(*case, share)

    @given(blocks_on_legs(), st.sampled_from(WIND_SECTORS), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_a_bad_leg_raises_only_if_no_block_fails_before_it(self, case, bad, swap):
        # leg j is the first whose segment takes no time, or, in the ``bad``
        # sector, whose coefficients are missing or whose swap table raises
        swarm, net, path, model, batteries, share = case
        if not swap:
            model = EnergyModel(model.spec, table_without(bad))

        def fresh():
            cache = planner._RateCache(swarm, model)
            return raising_swaps(cache, bad) if swap else cache

        reads = fresh()
        j, message = len(path) - 1, None
        for k, (a, b) in enumerate(zip(path, path[1:])):
            try:
                _, sector, _, _, _ = reads.row(net, a, b)
                if share is not None and reads.blocks:
                    reads.swaps(sector)
            except ValueError as exc:
                j, message = k, str(exc)
                break
        prefix = flown(fly_legs_as_written, swarm, net, path[:j + 1], model, batteries,
                       share, fresh())
        want = flown(fly_legs_as_written, swarm, net, path, model, batteries, share,
                     fresh())
        if message is not None:
            # it raises exactly when every block flies the legs before j
            assert (want == ("raises", message)) == (prefix is not None)
        verdict = "fails" if want is None else "raises" if want[0] == "raises" else "flies"
        event(f"a bad leg: {message is not None}, {verdict}")
        blocks = reads.blocks if share is not None else []
        for first in range(len(blocks) or len(swarm.drones)):
            cache = hinted_cache(swarm, model, first, share)
            got = flown(planner._flight, net, path, model, batteries, share,
                        raising_swaps(cache, bad) if swap else cache)
            assert got == want

    @pytest.mark.parametrize("bad", ["no time", "coefficients", "swaps"])
    def test_feasible_leg_raises_before_any_block_is_composed(self, bad):
        # both blocks would compose: their consumers are empty, their
        # support drones full
        spec = DroneSpec(battery_capacity=4096.0, cruise_speed=60.0,
                         base_consumption_rate=64.0)
        drones = [make_delivery_drone(0, 0.0, spec), make_support_drone(1, spec),
                  make_delivery_drone(2, 0.0, spec), make_support_drone(3, spec)]
        swarm = swarm_of(drones)
        table = FLAT if bad != "coefficients" else CoefficientTable({
            (kind, slot, "head"): 1.0 for kind in FORMATION_KINDS for slot in range(12)})
        model = EnergyModel(spec, table, 0.0)
        net = line_net(1e-323 if bad == "no time" else 3.0)
        cache = planner._RateCache(swarm, model)
        if bad == "swaps":
            raising_swaps(cache, "tail")
        assert len(cache.blocks) == 2
        batteries = {0: 0.0, 1: 4096.0, 2: 0.0, 3: 4096.0}
        messages = {"no time": no_time_message(net, 0, 1, model),
                    "coefficients": "no coefficient",
                    "swaps": "no swap table in sector 'tail'"}
        for first in range(2):
            cache.failed_block = first
            providers, got = composed_blocks(planner._flight, net, [0, 1], model, batteries,
                                             ShareConfig("pb"), cache)
            assert got[0] == "raises" and messages[bad] in got[1]
            assert providers == []


class TestSharedFlyThroughBoundOnWorlds:
    """On slices of both walker worlds every fly-through, plain or shared,
    equals its leg-by-leg composition, no compose flies the same one twice,
    and the plain check and the shared bound each rule out at least so
    many."""

    WORLDS = {
        # the acceptance world and sweep profile, and the CLI world and
        # defaults, with the least count ruled out per strategy ("plain"
        # counts the plain check, under every strategy).  Of the calls made:
        # acceptance fb 58 of 61, plain 112 of 157; cli pb 332 of 334, fb
        # 143 of 165, plain 662 of 672
        "acceptance": (2118, (0, 3), {"fb": 58, "plain": 112}),
        "cli": (0, (1, 3), {"pb": 332, "fb": 143, "plain": 662}),
    }

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_every_shared_fly_through_on_a_slice(self, world, monkeypatch):
        from test_acceptance import SWEEP_CFG, SWEEP_SPEC

        net_seed, pads, least = self.WORLDS[world]
        net = largest_connected_component(synthesize_network(276, net_seed, pads=pads))
        requests = synthesize_requests(net, 15, 0)
        if world == "acceptance":
            cfg, spec = SWEEP_CFG, SWEEP_SPEC
        else:
            cfg, spec = ExperimentConfig(), None

        fired = {"pb": 0, "fb": 0, "plain": 0}
        flown = set()  # (cache, path, share); a cache lives for one compose
        flight, cannot_save = planner._flight, planner._sharing_cannot_save

        def legs_as_written(net, path, model, batteries, share, cache):
            return fly_legs_as_written(cache.swarm, net, path, model, batteries, share,
                                       planner._RateCache(cache.swarm, model))

        def once(path, share, cache):
            key = (cache, tuple(path), share)
            assert key not in flown, (path, share)
            flown.add(key)

        def checked_bound(net, path, model, batteries, share, cache):
            once(path, share, cache)
            ruled_out = cannot_save(net, path, model, batteries, share, cache)
            fired[share.strategy] += ruled_out
            if ruled_out:
                assert legs_as_written(net, path, model, batteries, share, cache) is None
            return ruled_out

        def checked_flight(net, path, model, batteries, share, cache):
            if share is None:  # a shared flight has passed the bound above
                once(path, share, cache)
            got = flight(net, path, model, batteries, share, cache)
            fired["plain"] += share is None and got is None
            assert repr(got) == repr(legs_as_written(net, path, model, batteries, share,
                                                     cache))
            return got

        monkeypatch.setattr(planner, "_sharing_cannot_save", checked_bound)
        monkeypatch.setattr(planner, "_flight", checked_flight)
        run_experiment(net, requests, default_table(),
                       replace(cfg, strategies=("baseline", "pb", "fb")), spec=spec)
        assert all(fired[strategy] >= n for strategy, n in least.items()), fired


class TestRevisitedStops:
    """The first round at a node keeps its stops, priced without building
    their legs, and a revisit picks from them: every plan equals the walker
    that plans every round afresh and builds every neighbor's leg."""

    WORLDS = TestSharedFlyThroughBoundOnWorlds.WORLDS

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_compose_equals_walking_every_round(self, world, monkeypatch):
        from test_acceptance import SWEEP_CFG, SWEEP_SPEC
        from swarmway import bench

        net_seed, pads, _ = self.WORLDS[world]
        net = largest_connected_component(synthesize_network(276, net_seed, pads=pads))
        requests = synthesize_requests(net, 15, 0)
        if world == "acceptance":
            cfg, spec = SWEEP_CFG, SWEEP_SPEC
        else:
            cfg, spec = ExperimentConfig(), None

        plans = []
        # legs built outside a flight, and the legs of the flights that
        # succeeded, in the current compose
        seen = {"depth": 0, "stops": 0, "flown": 0, "priced": 0}
        priced = set()  # the directed stops priced in the current compose
        build, flight = planner._legs, planner._flight
        price_stop = planner._price_stop

        def counted_price(net, u, v, destination, cache):
            assert (u, v) not in priced, (u, v)
            priced.add((u, v))
            return price_stop(net, u, v, destination, cache)

        def counted_build(*args):
            seen["stops"] += not seen["depth"]
            return build(*args)

        def counted_flight(*args):
            seen["depth"] += 1
            try:
                legs = flight(*args)
            finally:
                seen["depth"] -= 1
            seen["flown"] += len(legs or [])
            return legs

        def checked(swarm, net, request, model, **kwargs):
            seen.update(stops=0, flown=0)
            priced.clear()
            got = compose(swarm, net, request, model, **kwargs)
            # one leg built per stop taken, and each stop priced once
            assert seen["stops"] == len(got.legs) - seen["flown"]
            seen["priced"] += len(priced)
            assert repr(got) == repr(walk_every_round(swarm, net, request, model,
                                                      **kwargs))
            plans.append(got)
            return got

        monkeypatch.setattr(planner, "_legs", counted_build)
        monkeypatch.setattr(planner, "_flight", counted_flight)
        monkeypatch.setattr(planner, "_price_stop", counted_price)
        monkeypatch.setattr(bench, "compose", checked)
        run_experiment(net, requests, default_table(),
                       replace(cfg, strategies=("baseline", "pb", "fb")), spec=spec)
        assert len(plans) == 15 * 5
        # some plans plan again from a node they left: the memo is exercised
        assert any(len(set(plan.path[:-1])) < len(plan.path) - 1 for plan in plans)
        assert seen["priced"] > len(plans)

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_the_best_walk_delivers_every_walker_success_no_later(self, world,
                                                                  monkeypatch):
        """``best_walk`` searches the walker's own moves, so a request the
        walker delivers is one it delivers too, with a dt no larger."""
        from test_acceptance import SWEEP_CFG, SWEEP_SPEC
        from swarmway import bench

        net_seed, pads, _ = self.WORLDS[world]
        net = largest_connected_component(synthesize_network(276, net_seed, pads=pads))
        requests = synthesize_requests(net, 15, 0)
        if world == "acceptance":
            cfg, spec = SWEEP_CFG, SWEEP_SPEC
        else:
            cfg, spec = ExperimentConfig(), None
        delivered = {"walker": 0, "search": 0, "shorter": 0}

        def checked(swarm, net, request, model, **kwargs):
            got = compose(swarm, net, request, model, **kwargs)
            best = best_walk(swarm, net, request, model, **kwargs)
            assert best.path[0] == request.source
            if best.status == "success":
                assert best.path[-1] == request.destination
                delivered["search"] += 1
            if got.status == "success":
                assert best.status == "success"
                assert best.dt <= got.dt
                delivered["walker"] += 1
                delivered["shorter"] += best.dt < got.dt
            else:
                assert (best.status == "unreachable") == (got.status == "unreachable")
            return got

        monkeypatch.setattr(bench, "compose", checked)
        run_experiment(net, requests, default_table(),
                       replace(cfg, strategies=("baseline", "pb", "fb")), spec=spec)
        # the search delivers requests the walker strands
        assert delivered["search"] > delivered["walker"] > 0, delivered

    def test_the_best_walk_is_the_least_simple_sequence_of_moves(self, monkeypatch):
        """On small worlds ``best_walk`` delivers exactly when some simple
        sequence of ``_moves`` reaches the destination, at the least sum of
        move costs: settling a node for good loses nothing."""
        from swarmway import bench

        def least_sequence(swarm, net, request, model, share):
            tree = shortest_path_tree(net, request.destination)
            cache = planner._RateCache(swarm, model)
            full = {d.id: d.capacity for d in swarm.drones}
            moves_at, best = {}, [math.inf]

            def walk(node, on, cost):
                if node == request.destination:
                    best[0] = min(best[0], cost)
                    return
                if node not in moves_at:
                    moves_at[node] = planner._moves(net, node, request.destination, tree,
                                                    model, share, cache, full, set())
                for move_cost, nb, _ in moves_at[node]:
                    assert move_cost >= 0  # so no longer sequence can do better
                    if nb not in on and cost + move_cost < best[0]:
                        walk(nb, on | {nb}, cost + move_cost)

            walk(request.source, {request.source}, 0.0)
            return best[0]

        delivered = {"walker": 0, "search": 0}

        def checked(swarm, net, request, model, **kwargs):
            got = compose(swarm, net, request, model, **kwargs)
            best = best_walk(swarm, net, request, model, **kwargs)
            least = least_sequence(swarm, net, request, model, kwargs["share"])
            assert (best.status == "success") == (least < math.inf)
            if least < math.inf:
                assert best.dt == pytest.approx(least, rel=1e-9, abs=0)
            delivered["walker"] += got.status == "success"
            delivered["search"] += best.status == "success"
            return got

        monkeypatch.setattr(bench, "compose", checked)
        for seed in range(6):  # 14 to 24 nodes each
            net = largest_connected_component(synthesize_network(24, seed))
            run_experiment(net, synthesize_requests(net, 5, 0), default_table(),
                           ExperimentConfig(strategies=("baseline", "pb", "fb")))
        assert delivered["search"] > delivered["walker"] > 0, delivered


class TestNoStateAcrossComposes:
    """A compose leaves nothing for the next one (its leg records and its
    failing-drone hint live and die with it): fb composed after pb on the
    same swarm, as a sweep composes them, gives the plan fb gives on its
    own, and a rerun gives it bit for bit."""

    def fb_plans(self, strategies, monkeypatch):
        from swarmway import bench

        net = largest_connected_component(synthesize_network(276, 0, pads=(1, 3)))
        requests = synthesize_requests(net, 15, 0)
        plans = []  # fb's, with whether pb had flown the same swarm before
        flown = []  # the swarms pb flew

        def recorded(swarm, net, request, model, **kwargs):
            plan = compose(swarm, net, request, model, **kwargs)
            if kwargs["share"] is not None:
                if kwargs["share"].strategy == "pb":
                    flown.append(swarm)
                else:
                    plans.append((any(s is swarm for s in flown), repr(plan)))
            return plan

        monkeypatch.setattr(bench, "compose", recorded)
        run_experiment(net, requests, default_table(),
                       ExperimentConfig(strategies=strategies))
        return plans

    def test_fb_after_pb_equals_fb_alone_and_reruns_bit_for_bit(self, monkeypatch):
        after_pb = self.fb_plans(("pb", "fb"), monkeypatch)
        alone = self.fb_plans(("fb",), monkeypatch)
        assert len(after_pb) == len(alone) == 15 * 2
        assert all(flown for flown, _ in after_pb)
        assert not any(flown for flown, _ in alone)
        assert [plan for _, plan in after_pb] == [plan for _, plan in alone]
        assert self.fb_plans(("fb",), monkeypatch) == alone
        # the slice has plans that stop on the way and plans that get stuck
        assert any("NodeVisit" in plan for _, plan in alone)
        assert any("status='stuck'" in plan for _, plan in alone)


class TestStaticBaselines:
    def stop_swarm(self):
        spec = DroneSpec(battery_capacity=700.0, cruise_speed=60.0,
                         pad_charge_rate=10.0, base_consumption_rate=50.0)
        drones = [make_delivery_drone(0, 0.28, spec), make_delivery_drone(1, 0.0, spec)]
        return swarm_of(drones), model_for(spec, payload_gain=1.0)

    def test_static_costs_cover_both_directions(self):
        swarm, model = self.stop_swarm()
        net = line_net(10)
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        # tt 10 plus one-pad restore of [60, 50] minutes
        assert costs[(0, 1)] == 10.0 + 110.0
        assert costs[(1, 0)] == 10.0 + 110.0

    def test_padless_head_gets_infinite_cost(self):
        swarm, model = self.stop_swarm()
        net = line_net(6, pads=[1, 0])
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        assert costs[(0, 1)] == math.inf
        # tt 6 plus single-pad restore of [36, 30] minutes back at node 0
        assert costs[(1, 0)] == 72.0
        plan = dijkstra_baseline(swarm, net, DeliveryRequest(1, 0, 1, [0.3, 0.3]),
                                 model, costs=costs)
        assert plan.status == "unreachable"
        # the walker does not need pads at the destination itself
        walked = compose(swarm, net, DeliveryRequest(1, 0, 1, [0.3, 0.3]), model)
        assert walked.status == "success"

    def test_successful_static_route(self):
        swarm, model = self.stop_swarm()
        net = line_net(10, 10)
        request = DeliveryRequest(2, 0, 2, [0.3, 0.3])
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        dij = dijkstra_baseline(swarm, net, request, model, costs=costs)
        fw = floyd_warshall_baseline(swarm, net, request, model, costs=costs)
        for plan in (dij, fw):
            assert plan.status == "success"
            assert plan.path == [0, 1, 2]
            assert plan.dt == 130.0
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
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        assert costs[(0, 3)] < costs[(0, 1)] + costs[(1, 2)] + costs[(2, 3)]
        dij = dijkstra_baseline(swarm, net, request, model, costs=costs)
        fw = floyd_warshall_baseline(swarm, net, request, model, costs=costs)
        for plan in (dij, fw):
            assert plan.status == "stuck"
            assert plan.path[-1] == 0
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
            costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                      model)
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
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
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
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
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

    def assert_identical(self, swarm, net, model, edges=None):
        if edges is None:
            edges = static_edges(net, model.spec.cruise_speed)
        got = static_edge_costs(swarm, edges, model)
        want = self.reference(swarm, net, model)
        assert list(got) == list(want)
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

    def test_one_grouping_prices_many_swarms(self):
        # a sweep builds the grouping once and prices every request's swarm
        # from it: pricing one swarm must leave nothing behind for the next
        rng = random.Random(31)
        model = EnergyModel(DroneSpec(), default_table())
        for _ in range(3):
            net = self.random_world(rng)
            edges = static_edges(net, model.spec.cruise_speed)
            for kind in FORMATION_KINDS:
                for n in range(1, 9):
                    supports = n // 2 if n % 2 else 0  # 0-3 support drones
                    payloads = [rng.uniform(0.0, 1.4) for _ in range(n - supports)]
                    self.assert_identical(self.swarm(payloads, kind, supports), net,
                                          model, edges)

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

    def test_every_head_padless(self):
        rng = random.Random(29)
        model = model_for(DroneSpec())
        net = self.random_world(rng)
        net = SkywayNetwork([replace(node, pads=0) for node in net.nodes.values()],
                            net.segments)
        assert net.segments
        swarm = self.swarm([0.3, 0.9, 1.2])
        self.assert_identical(swarm, net, model)
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        assert set(costs.values()) == {math.inf}

    def test_groups_of_a_single_edge(self):
        # one segment between heads of 2 and 3 pads: each (sector, pads)
        # group holds one edge, and four drones make both search the pads
        model = model_for(DroneSpec())
        net = SkywayNetwork([Node(0, 0.0, 0.0, 2), Node(1, 3000.0, 1700.0, 3)],
                            [Segment(0, 1, 3456.7, Wind(6.1, 33.0))])
        self.assert_identical(self.swarm([0.2, 0.5, 0.8, 1.3]), net, model)

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
    """Every recharge stop equals pad_schedule on the restore times of the
    leg before it: node time under repr, and the queues."""

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

        from swarmway import bench

        stops = []
        searches = []

        def recorded(router):
            def run(swarm, net, request, model, **kwargs):
                plan = router(swarm, net, request, model, **kwargs)
                # visit k follows leg k; a last leg into the destination,
                # and the legs of a fly-through, have none
                for leg, visit in zip(plan.legs, plan.visits):
                    assert leg.v == visit.node
                    times = [(d.capacity - leg.batteries_after[d.id])
                             / model.spec.pad_charge_rate for d in swarm.drones]
                    stops.append((visit, pad_schedule(times, net.nodes[leg.v].pads)))
                return plan
            return run

        for name in ("compose", "dijkstra_baseline", "floyd_warshall_baseline"):
            monkeypatch.setattr(bench, name, recorded(getattr(bench, name)))
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


class TestPadSearchOnAWorldSlice:
    """Every pad search the walker makes on a slice of the CLI world (eight
    requests under baseline, pb and fb, both positionings; ten-drone swarms
    on two and three pads among them) returns the list of the search
    without the room and count cuts."""

    def test_every_search_equals_the_reference(self, monkeypatch):
        net = largest_connected_component(synthesize_network(276, 0, pads=(1, 3)))
        requests = synthesize_requests(net, 8, 0)
        searches = []
        search = planner.pad_candidates

        def recorded(times, pads):
            got = search(times, pads)
            searches.append((times, pads, got))
            return got

        monkeypatch.setattr(planner, "pad_candidates", recorded)
        run_experiment(net, requests, default_table(),
                       ExperimentConfig(strategies=("baseline", "pb", "fb")))
        for times, pads, got in searches:
            assert got == near_optimal_queues_reference(times, pads), (times, pads)
        shapes = {(len(times), pads) for times, pads, _ in searches}
        assert {(10, 2), (10, 3)} <= shapes, shapes


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


def blas_world(rng, n):
    """``n`` nodes with scattered ids on a chain, with chords for about six
    links a node, so most pivots reach more than half the rows."""
    ids = rng.sample(range(5000), n)
    nodes = [Node(nid, float(i), 0.0, 1) for i, nid in enumerate(ids)]
    pairs = set(zip(ids, ids[1:]))
    while len(pairs) < 3 * n:
        a, b = rng.sample(ids, 2)
        if (b, a) not in pairs:
            pairs.add((a, b))
    return SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in sorted(pairs)])


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

    def test_matches_the_triple_loop_on_float_costs(self):
        # costs off the dyadic grid round every sum, so each path's costs
        # must be added in the triple loop's order
        rng = random.Random(31)
        sparse_pivots = dense_pivots = pivots = 0
        for world in [dense_world] * 60 + [sparse_world] * 90:
            nodes, pairs = world(rng)
            net = SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in pairs])
            costs = {}
            for a, b in pairs:
                for edge in ((a, b), (b, a)):
                    costs[edge] = (math.inf if rng.random() < 0.2
                                   else rng.uniform(0.1, 3.0))
            sparse = self.assert_matches_the_triple_loop(net, costs)
            dense_pivots += len(net.nodes) - sparse
            if world is sparse_world:
                sparse_pivots += sparse
                pivots += len(net.nodes)
        # both kinds of pivot run
        assert sparse_pivots > pivots / 2
        assert dense_pivots > 0

    @pytest.mark.parametrize("n_nodes", [61, 99, 125])
    def test_matches_the_triple_loop_at_blas_sizes(self, n_nodes):
        # a dense pivot adds column and row by one BLAS product; n % 8 != 0
        # leaves a tail past the kernel's blocks, and inf directions put
        # inf into its operands
        rng = random.Random(n_nodes)
        net = blas_world(rng, n_nodes)
        costs = {}
        for seg in net.segments:
            for edge in ((seg.u, seg.v), (seg.v, seg.u)):
                costs[edge] = math.inf if rng.random() < 0.2 else rng.uniform(0.1, 3.0)
        sparse = self.assert_matches_the_triple_loop(net, costs)
        assert 0 < sparse < n_nodes / 2

    def test_matches_the_triple_loop_with_subnormal_costs(self):
        # subnormal sums are exact and a subnormal vanishes beside a normal
        # cost; a kernel that flushed subnormals to zero would differ here
        rng = random.Random(71)
        net = blas_world(rng, 75)
        tiny = [0.0, 5e-324, 2.5e-320, 1e-310, 2e-308]
        costs = {}
        for seg in net.segments:
            for edge in ((seg.u, seg.v), (seg.v, seg.u)):
                costs[edge] = rng.choice(
                    [rng.choice(tiny), rng.choice(tiny), rng.uniform(0.1, 3.0), math.inf])
        assert self.assert_matches_the_triple_loop(net, costs) < 75 / 2
        _, dist, _ = floyd_warshall_tables(net, costs)
        assert ((dist > 0.0) & (dist < np.finfo(float).smallest_normal)).sum() > 100

    @pytest.mark.parametrize("n_nodes", [1, 3])
    def test_no_costs(self, n_nodes):
        net = SkywayNetwork([Node(7 * i, float(i), 0.0, 1) for i in range(n_nodes)], [])
        self.assert_matches_the_triple_loop(net, {})

    def test_zero_cost_ties_keep_the_first_successor(self):
        # with every cost 0.0, each pivot's candidate ties the cell it
        # would replace, so only a strict < keeps the direct edges' successors
        nodes = [Node(i, float(i), 0.0, 1) for i in range(6)]
        pairs = [(a.id, b.id) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        net = SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in pairs])
        costs = {edge: 0.0 for a, b in pairs for edge in ((a, b), (b, a))}
        self.assert_matches_the_triple_loop(net, costs)
        _, dist, nxt = floyd_warshall_tables(net, costs)
        assert not dist.any()
        assert np.array_equal(nxt, np.tile(np.arange(6), (6, 1)))

    def test_matches_the_triple_loop_with_zero_costs(self):
        # zero-cost edges make dist[i, k] + dist[k, j] == dist[i, j] common,
        # at 0.0 too; inf edges still leave pairs reachable one way only
        rng = random.Random(43)
        sparse_pivots = dense_pivots = zero_pairs = 0
        for world in [dense_world] * 60 + [sparse_world] * 60:
            nodes, pairs = world(rng)
            net = SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in pairs])
            costs = {edge: rng.choice([0.0, 0.0, 1.0, 2.0, math.inf])
                     for a, b in pairs for edge in ((a, b), (b, a))}
            sparse = self.assert_matches_the_triple_loop(net, costs)
            sparse_pivots += sparse
            dense_pivots += len(nodes) - sparse
            _, dist, _ = floyd_warshall_tables(net, costs)
            zero_pairs += int((dist == 0.0).sum()) - len(nodes)
        assert sparse_pivots > 0 and dense_pivots > 0
        assert zero_pairs > 500

    @pytest.mark.parametrize("side", ["into", "out of"])
    def test_a_node_cut_off_on_one_side(self, side):
        # every edge into the node (or out of it) costs inf, so its pivot
        # reaches only itself (or reaches nothing but itself)
        rng = random.Random(59)
        for world in [dense_world] * 30 + [sparse_world] * 30:
            nodes, pairs = world(rng)
            net = SkywayNetwork(nodes, [Segment(a, b, 1000.0, CALM) for a, b in pairs])
            cut = rng.choice(nodes).id
            costs = {}
            for a, b in pairs:
                for edge in ((a, b), (b, a)):
                    blocked = edge[1] == cut if side == "into" else edge[0] == cut
                    costs[edge] = math.inf if blocked else float(rng.randint(1, 4))
            self.assert_matches_the_triple_loop(net, costs)
            ids, dist, _ = floyd_warshall_tables(net, costs)
            at = ids.index(cut)
            line = dist[:, at] if side == "into" else dist[at]
            assert np.isfinite(line).sum() == 1

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_costs_below_zero_or_nan_are_rejected(self, bad):
        net = SkywayNetwork([Node(i, float(i), 0.0, 1) for i in range(3)],
                            [Segment(0, 1, 1000.0, CALM), Segment(1, 2, 1000.0, CALM)])
        costs = {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 0.0, (2, 1): math.inf}
        self.assert_matches_the_triple_loop(net, costs)
        costs[(2, 1)] = bad
        with pytest.raises(ValueError, match=r"edge \(2, 1\): cost .* must be >= 0 or inf"):
            floyd_warshall_tables(net, costs)

    def assert_matches_the_triple_loop(self, net, costs):
        """Returns how many pivots fewer than half the rows could reach."""
        ids, dist, nxt = floyd_warshall_tables(net, costs)
        want_ids, want_dist, want_nxt, sparse = reference_floyd(net, costs)
        assert ids == want_ids
        assert nxt.dtype == np.int64
        # bit for bit: the same float in every cell, not only an equal one
        assert np.array_equal(dist.view(np.int64), np.array(want_dist).view(np.int64))
        assert np.array_equal(nxt, np.array(want_nxt))
        return sparse
