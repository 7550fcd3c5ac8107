"""Full-stack acceptance gate: nine checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; the sweep behind checks 4/5/7/8 plans 2,000 requests over a
195-node world and takes a few minutes.

The sweep profile below is calibrated for that synthetic world so the
strategy orderings separate with margin; the CLI keeps its own
field-realistic defaults (5.88 mAh/min transfer, λ 2240).
"""

import math
import random
import statistics
import time

import pytest

from swarmway.bench import ExperimentConfig, run_experiment
from swarmway.energy import (
    DroneSpec,
    EnergyModel,
    make_delivery_drone,
    pad_schedule,
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
    shortest_path_tree,
    synthesize_network,
    synthesize_requests,
)
from swarmway.planner import (
    ShareConfig,
    compose,
    dijkstra_baseline,
    floyd_warshall_baseline,
    floyd_warshall_tables,
    static_dijkstra,
    static_edge_costs,
    static_edges,
)
from swarmway.preflight import (
    POSITIONING_SETTINGS,
    Swarm,
    build_swarm,
    network_diameter,
    redundancy_count,
    route_average_wind,
)
from swarmway.sharing import ShareContext, fb_compose, pb_compose

from instances import CALM, PROVIDER_ID, dyadic_instance
from oracles import brute_shortest, fb_oracle, pb_oracle

# 276 synthesized nodes whose largest component has exactly 195;
# pads drawn from [0, 3] so padless rooftops exist
NETWORK_SEED = 2118
SWEEP_REQUESTS = 2000
INVARIANT_REQUESTS = 1000

SWEEP_SPEC = DroneSpec(
    cruise_speed=30.0,
    inflight_share_rate=134.0,
    pad_charge_rate=4480.0 / 60.0,
    base_consumption_rate=96.0,
)
SWEEP_CFG = ExperimentConfig(
    gamma=0.95,
    delta_frac=0.65,
    quantum=28.0,
    share_rate=SWEEP_SPEC.inflight_share_rate,
)


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def world():
    net = largest_connected_component(
        synthesize_network(276, NETWORK_SEED, pads=(0, 3)))
    assert len(net.nodes) == 195
    return net, synthesize_requests(net, SWEEP_REQUESTS, seed=0)


@pytest.fixture(scope="module")
def sweep(world):
    net, requests = world
    t0 = time.perf_counter()
    rows, metrics = run_experiment(net, requests, default_table(), SWEEP_CFG,
                                   spec=SWEEP_SPEC)
    return rows, metrics, time.perf_counter() - t0


def test_criterion_1_pad_schedule_reference_makespans():
    times = [60.0, 50.0, 40.0, 30.0, 20.0]
    got = {pads: pad_schedule(times, pads).node_time for pads in (1, 3, 5)}
    _check(1, got == {1: 200.0, 3: 70.0, 5: 60.0},
           f"makespans for 1/3/5 pads = {got[1]:g}/{got[3]:g}/{got[5]:g}")


def test_criterion_2_composers_match_reference_simulator():
    rng = random.Random(202)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        inst = dyadic_instance(rng)
        ctx = ShareContext(
            batteries=inst["batteries"],
            capacities=inst["capacities"],
            rates=inst["rates"],
            consumer_ids=inst["consumer_ids"],
            share_rate=inst["share_rate"],
            provider_id=PROVIDER_ID,
            offer=inst["ae"],
        )
        oracle_args = (inst["batteries"], inst["capacities"], inst["rates"],
                       inst["consumer_ids"], PROVIDER_ID, inst["ae"],
                       inst["share_rate"], (0.0, inst["tt"]))

        pb = pb_compose(ctx, inst["tt"], inst["gamma"])
        want_b, want_total = pb_oracle(*oracle_args, inst["gamma"])
        if pb.batteries_after != want_b or pb.plan.total_shared != want_total:
            mismatches += 1

        fb = fb_compose(ctx, inst["tt"], inst["quantum"], inst["reserve"])
        want_b, want_total = fb_oracle(*oracle_args, inst["quantum"],
                                       inst["reserve"])
        if fb.batteries_after != want_b or fb.plan.total_shared != want_total:
            mismatches += 1
    wall = time.perf_counter() - t0
    _check(2, mismatches == 0 and wall < 30.0,
           f"200 instances, {mismatches} composer/oracle mismatches, "
           f"{wall:.1f}s (< 30s)")


def test_criterion_3_route_math_matches_reference():
    t0 = time.perf_counter()
    rng = random.Random(303)
    bad_distances = 0
    for _ in range(100):
        n = rng.randint(2, 10)
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
                want = brute_shortest(net, a, b)
                if dist != want and not (math.isinf(dist) and math.isinf(want)):
                    bad_distances += 1

    # all-pairs static tables against per-source search; integer-exact rig
    # (flat coefficients, dyadic rates) so float == is meaningful
    rng = random.Random(304)
    spec = DroneSpec(battery_capacity=8192.0, cruise_speed=60.0,
                     pad_charge_rate=64.0, base_consumption_rate=128.0)
    flat = CoefficientTable({
        (kind, slot, sector): 1.0
        for kind in FORMATION_KINDS
        for slot in range(12)
        for sector in WIND_SECTORS
    })
    model = EnergyModel(spec, flat, payload_gain=0.0)
    bad_tables = 0
    for _ in range(25):
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
        drones = [make_delivery_drone(0, 0.5, spec),
                  make_delivery_drone(1, 1.0, spec)]
        for slot, d in enumerate(drones):
            d.position = slot
        swarm = Swarm(drones, make_formation("column", 2))
        costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed),
                                  model)
        ids, dist, _ = floyd_warshall_tables(net, costs)
        index = {nid: i for i, nid in enumerate(ids)}
        for source in ids:
            sd = static_dijkstra(net, costs, source)
            for target in ids:
                if dist[index[source], index[target]] != sd.distance(target):
                    bad_tables += 1
    wall = time.perf_counter() - t0
    _check(3, bad_distances == 0 and bad_tables == 0 and wall < 60.0,
           f"100 graphs vs path enumeration ({bad_distances} off), "
           f"25 all-pairs tables vs per-source search ({bad_tables} off), "
           f"{wall:.1f}s (< 60s)")


def _trace_value(trace, t):
    if t <= trace[0][0]:
        return trace[0][1]
    for (t0, b0), (t1, b1) in zip(trace, trace[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return b1
            return b0 + (t - t0) / (t1 - t0) * (b1 - b0)
    return trace[-1][1]


def _plan_violations(plan, swarm):
    bad = []
    tol = 1e-9
    capacities = {d.id: d.capacity for d in swarm.drones}
    roles = {d.id: d.role for d in swarm.drones}
    for leg in plan.legs:
        for did, trace in leg.traces.items():
            cap = capacities[did]
            checkpoints = [float(m) for m in range(int(leg.tt) + 1)] + [leg.tt]
            for t in checkpoints:
                b = _trace_value(trace, t)
                if b < -tol or b > cap + tol:
                    bad.append(f"battery {b:.3f} outside [0, {cap}] "
                               f"drone {did} t={t:g}")
        if leg.plan is not None:
            # replay the allocations against the batteries: each drone ends
            # at its start less its drain plus what it received less what it
            # gave, and the leg as a whole makes and loses no energy
            moved = dict.fromkeys(leg.traces, 0.0)  # received - given
            volume = dict.fromkeys(leg.traces, 0.0)  # received + given
            for a in leg.plan.allocations:
                if (roles.get(a.provider) != "support"
                        or roles.get(a.consumer) != "delivery"):
                    bad.append(f"allocation {a} is not from a support drone "
                               "to a delivery drone")
                    continue
                moved[a.provider] -= a.amount
                moved[a.consumer] += a.amount
                volume[a.provider] += a.amount
                volume[a.consumer] += a.amount
            made, slack = [], []
            for did, trace in leg.traces.items():
                start, end, used = trace[0][1], trace[-1][1], leg.consumed[did]
                bound = tol * (abs(start) + used + volume[did])
                off = end - (start - used + moved[did])
                if abs(off) > bound:
                    bad.append(f"drone {did} ends {off:.3g} mAh off the replay "
                               f"of leg {leg.u}-{leg.v}")
                made.append(end - start + used)
                slack.append(bound)
            if abs(math.fsum(made)) > math.fsum(slack):
                bad.append(f"leg {leg.u}-{leg.v} makes {math.fsum(made):.3g} mAh")
    if plan.dt != sum(leg.tt for leg in plan.legs) + sum(v.nt for v in plan.visits):
        bad.append("dt is not tt + nt")
    return bad


def test_criterion_4_conservation_and_safety(world):
    net, requests = world
    model = EnergyModel(SWEEP_SPEC, default_table())
    diameter = network_diameter(net)
    shares = {
        s: ShareConfig(s, SWEEP_CFG.gamma, SWEEP_CFG.delta_frac,
                       SWEEP_CFG.quantum)
        for s in ("pb", "fb")
    }
    checked = 0
    shared_plans = 0
    problems = []
    for req in requests[:INVARIANT_REQUESTS]:
        tree = shortest_path_tree(net, req.destination)
        if tree.distance(req.source) == math.inf:
            continue
        path = tree.path_to_root(req.source)
        swarm_kwargs = dict(
            route_wind=route_average_wind(net, path),
            route_heading=net.heading(req.source, req.destination),
            route_distance_m=tree.distance(req.source),
            diameter_m=diameter,
            failure_scale=SWEEP_CFG.failure_scale,
        )
        jobs = [(None, "location-aware", False)]
        jobs += [(s, p, True) for s in ("pb", "fb")
                 for p in POSITIONING_SETTINGS]
        for strategy, pos, with_support in jobs:
            swarm = build_swarm(req, model, positioning=pos,
                                include_support=with_support, **swarm_kwargs)
            plan = compose(swarm, net, req, model,
                           share=shares.get(strategy), tree=tree)
            if plan.status != "success":
                continue
            checked += 1
            if plan.energy_shared > 0:
                shared_plans += 1
            for msg in _plan_violations(plan, swarm):
                problems.append(f"request {req.id} {strategy or 'baseline'}"
                                f"/{pos}: {msg}")
    ok = not problems and checked >= 1000 and shared_plans >= 50
    head = problems[0] if problems else "no violations"
    _check(4, ok, f"{checked} success plans ({shared_plans} with transfers): "
                  f"{head}")


def test_criterion_5_strategy_success_ordering(sweep):
    rows, metrics, wall = sweep
    n = {key: g.successes for key, g in metrics.groups.items()}
    base = n[("baseline", "none")]
    orderings = [
        n[("pb", "location-aware")] >= n[("fb", "location-aware")],
        n[("pb", "energy-aware")] >= n[("fb", "energy-aware")],
        n[("pb", "location-aware")] >= n[("pb", "energy-aware")],
        n[("fb", "location-aware")] >= n[("fb", "energy-aware")],
        min(n[(s, p)] for s in ("pb", "fb") for p in POSITIONING_SETTINGS) > base,
        base > n[("dijkstra", "none")],
        base > n[("floyd", "none")],
    ]
    _check(5, all(orderings) and wall < 600.0,
           f"successes/{SWEEP_REQUESTS}: pb {n[('pb', 'location-aware')]}"
           f"/{n[('pb', 'energy-aware')]} fb {n[('fb', 'location-aware')]}"
           f"/{n[('fb', 'energy-aware')]} base {base} "
           f"dij {n[('dijkstra', 'none')]} fw {n[('floyd', 'none')]}, "
           f"sweep {wall:.0f}s (< 600s)")


def test_criterion_6_walker_detours_where_statics_strand():
    spec = DroneSpec(battery_capacity=2048.0, cruise_speed=60.0,
                     pad_charge_rate=128.0, base_consumption_rate=128.0)
    model = EnergyModel(spec, default_table(), payload_gain=0.0)
    drones = [make_delivery_drone(0, 0.3, spec), make_delivery_drone(1, 0.6, spec)]
    for slot, d in enumerate(drones):
        d.position = slot
    swarm = Swarm(drones, make_formation("column", 2))
    calm = Wind(0.0, 0.0)
    nodes = [Node(0, 0.0, 0.0, 1), Node(1, 7000.0, 0.0, 1),
             Node(2, 14000.0, 0.0, 1), Node(3, 21000.0, 0.0, 1)]
    segs = [Segment(0, 3, 18000.0, calm), Segment(0, 1, 7000.0, calm),
            Segment(1, 2, 7000.0, calm), Segment(2, 3, 7000.0, calm)]
    net = SkywayNetwork(nodes, segs)
    request = DeliveryRequest(3, 0, 3, [0.3, 0.6])
    costs = static_edge_costs(swarm, static_edges(net, model.spec.cruise_speed), model)
    dij = dijkstra_baseline(swarm, net, request, model, costs=costs)
    fw = floyd_warshall_baseline(swarm, net, request, model, costs=costs)
    walked = compose(swarm, net, request, model)
    ok = (dij.status == "stuck" and fw.status == "stuck"
          and walked.status == "success" and walked.path == [0, 1, 2, 3])
    _check(6, ok, f"statics {dij.status}/{fw.status} at node "
                  f"{dij.path[-1]}, walker {walked.status} via {walked.path}")


def test_criterion_7_energy_positioning_dt_within_slack(sweep):
    rows, _, _ = sweep
    dist = {r["request_id"]: r["distance_m"] for r in rows
            if math.isfinite(r["distance_m"])}
    cut = statistics.quantiles(dist.values(), n=4)[2]
    top = {rid for rid, d in dist.items() if d >= cut}

    def mean_dt(pos):
        vals = [r["dt_min"] for r in rows
                if r["strategy"] == "pb" and r["positioning"] == pos
                and r["request_id"] in top and r["status"] == "success"]
        return sum(vals) / len(vals), len(vals)

    energy, n_energy = mean_dt("energy-aware")
    location, n_location = mean_dt("location-aware")
    ok = n_energy > 0 and n_location > 0 and energy <= 1.05 * location
    _check(7, ok, f"top-quartile mean dt: energy-aware {energy:.1f} min "
                  f"(n={n_energy}) vs location-aware {location:.1f} min "
                  f"(n={n_location}), ratio {energy / location:.3f} (<= 1.05)")


def test_criterion_8_planner_runtime_ordering(sweep):
    rows, _, _ = sweep

    def mean_runtime(strategy):
        vals = [r["runtime_ms"] for r in rows if r["strategy"] == strategy]
        return sum(vals) / len(vals)

    base, pb, fb = (mean_runtime(s) for s in ("baseline", "pb", "fb"))
    _check(8, base < pb < fb,
           f"mean planner runtime baseline {base:.2f}ms < pb {pb:.2f}ms "
           f"< fb {fb:.2f}ms")


def test_criterion_9_redundancy_band_boundaries():
    cases = {
        (0.0, 5): 1, (19.0, 5): 1, (19.999, 5): 1,
        (20.0, 5): 2, (39.999, 5): 2,
        (40.0, 5): 3, (59.999, 5): 3,
        (60.0, 5): 4, (79.999, 5): 4,
        (80.0, 5): 5, (100.0, 5): 5,
        (80.0, 3): 3, (100.0, 8): 8, (19.0, 2): 1, (20.0, 2): 2,
    }
    bad = {key: redundancy_count(*key) for key, want in cases.items()
           if redundancy_count(*key) != want}
    _check(9, not bad, "band boundaries 19->1, 20->2, 40->3, 60->4, 80->N"
           + (f"; wrong: {bad}" if bad else " all hold"))
