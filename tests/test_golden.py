"""Golden digest: a short slice of the acceptance sweep must not drift.

The sha256 covers every column ``write_results`` writes except
``runtime_ms``, for the first requests of the acceptance world under the
acceptance sweep profile.  A change that is meant to alter planner
answers updates ``GOLDEN_DIGEST`` and says so; any other change must
leave it as it is.
"""

import csv
import hashlib
import io
from dataclasses import replace

import pytest

from swarmway.bench import ExperimentConfig, run_experiment, write_results
from swarmway.energy import DroneSpec, EnergyModel
from swarmway.formations import default_table
from swarmway.network import (
    largest_connected_component,
    save_network,
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
    static_edge_costs,
    static_edges,
)
from swarmway.preflight import (
    POSITIONING_SETTINGS,
    build_swarm,
    network_diameter,
    route_average_wind,
)

from oracles import walk_every_round
from test_acceptance import SWEEP_CFG, SWEEP_SPEC, world  # noqa: F401 (fixture)

GOLDEN_REQUESTS = 30  # request 29 is the first whose fb plan swaps
GOLDEN_STRATEGIES = ("baseline", "pb", "fb")
GOLDEN_DIGEST = "e804c3b9b3983171aec6326da8eb7f21d4534266051e8a5c4123e4ab7a52fa3a"


@pytest.fixture(scope="module")
def golden_world(world):
    net, requests = world
    return net, requests[:GOLDEN_REQUESTS]


def rows_digest(rows, tmp_path) -> str:
    path = tmp_path / "results.csv"
    write_results(rows, path)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    drop = table[0].index("runtime_ms")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in table:
        writer.writerow(row[:drop] + row[drop + 1:])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_slice_rows_match_golden_digest(golden_world, tmp_path):
    net, requests = golden_world
    cfg = replace(SWEEP_CFG, strategies=GOLDEN_STRATEGIES,
                  positionings=POSITIONING_SETTINGS)
    rows, _ = run_experiment(net, requests, default_table(), cfg, spec=SWEEP_SPEC)
    assert len(rows) == GOLDEN_REQUESTS * 5
    assert rows_digest(rows, tmp_path) == GOLDEN_DIGEST


@pytest.mark.parametrize("strategy", ["pb", "fb"])
def test_slice_exercises_in_flight_swaps(golden_world, strategy):
    net, requests = golden_world
    model = EnergyModel(SWEEP_SPEC, default_table())
    diameter = network_diameter(net)
    share = ShareConfig(strategy, SWEEP_CFG.gamma, SWEEP_CFG.delta_frac,
                        SWEEP_CFG.quantum)
    swapped = 0
    for req in requests:
        tree = shortest_path_tree(net, req.destination)
        path = tree.path_to_root(req.source)
        for pos in POSITIONING_SETTINGS:
            swarm = build_swarm(
                req, model, positioning=pos, route_wind=route_average_wind(net, path),
                route_heading=net.heading(req.source, req.destination),
                route_distance_m=tree.distance(req.source), diameter_m=diameter,
                failure_scale=SWEEP_CFG.failure_scale)
            plan = compose(swarm, net, req, model, share=share, tree=tree)
            swapped += sum(1 for leg in plan.legs if leg.plan and leg.plan.swaps)
    assert swapped > 0


# sha256 of save_network's text for the synthesized worlds, recorded
# from the full-sort link step that the grid replaced
WORLD_DIGESTS = {
    "untrimmed": "f494de701dd5a859d6e06466867be43066cfe4c8c43598553d9d099c7a8397db",
    "trimmed": "44e0ef61599e25766c3349d10c5ad600e51ba1deffc4a85776bdab79f7349086",
    "acceptance": "f71bc8187bdee74d73272ed0d8e8af769e350d9ef8690dbefbaed678353eba63",
}


@pytest.mark.parametrize("world_name", sorted(WORLD_DIGESTS))
def test_synthesized_worlds_match_golden_digests(world_name, tmp_path):
    if world_name == "acceptance":
        net = largest_connected_component(synthesize_network(276, 2118, pads=(0, 3)))
    else:
        net = synthesize_network(276, 0)
        if world_name == "trimmed":
            net = largest_connected_component(net)
    path = tmp_path / "world.csv"
    save_network(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WORLD_DIGESTS[world_name]


# sha256 of dist.tobytes() + nxt.tobytes() for the Floyd tables of the
# first requests of the CLI world (request seed 0, ExperimentConfig()
# defaults).  The untrimmed network has several components, so some rows
# stay inf through the last pivot.
FLOYD_REQUESTS = 5
FLOYD_DIGESTS = {
    "trimmed": [
        "74b758d9c90c7292d0f1b2906690e7b89de65f224ad939808dbcc344bbf6f7e3",
        "0f66c8e776bdeb3fbfa76fb539a6be03cc9125569594fe4521f81f35c03fd46b",
        "36564f13c9dd8e3f0d9fa2ed52d1a2ee5c054e53e435f15266f4a20789a7f643",
        "d55a11d79104eaac5aa28fd1331eecbcd50687aa3e2fc2111d130f53533120ea",
        "6a97f7a34be6986435a44e7bc7b92f220c9f049c8b08f7a7c260186c6404c4b5",
    ],
    "untrimmed": [
        "6464465b738984fae4d2665eef0e8604a3e19195bf70363256fd6f99449a5507",
        "26912c91deadf0ff92446dcc0e924dc0962a604b48c35c654283292e43b74477",
        "4d762a34c10dfa47501218f175d9c2d96bc67d35cc3c3961bfa5bd04907b1637",
        "963f733a12a4e27b5238e0c64655f11cc1dccf4d3faeb36d729f32209ad842d0",
        "0ca8a97e1548cdb4fc3b81712de5bf2c6a232569b9d531cc09af7ce6defd812b",
    ],
}


@pytest.fixture(scope="module")
def floyd_inputs():
    full = synthesize_network(276, 0)
    net = largest_connected_component(full)
    requests = synthesize_requests(net, FLOYD_REQUESTS, 0)
    cfg = ExperimentConfig()
    base = DroneSpec()
    spec = replace(base, inflight_share_rate=cfg.share_rate,
                   pad_charge_rate=base.battery_capacity / cfg.pad_minutes)
    model = EnergyModel(spec, default_table())
    diameter = network_diameter(net)
    swarms = []
    for req in requests:
        tree = shortest_path_tree(net, req.destination)
        path = tree.path_to_root(req.source)
        swarms.append(build_swarm(
            req, model, positioning="location-aware", include_support=False,
            route_wind=route_average_wind(net, path),
            route_heading=net.heading(req.source, req.destination),
            route_distance_m=tree.distance(req.source), diameter_m=diameter,
            failure_scale=cfg.failure_scale))
    return {"trimmed": net, "untrimmed": full}, swarms, model


@pytest.mark.parametrize("network", sorted(FLOYD_DIGESTS))
def test_floyd_tables_match_golden_digests(floyd_inputs, network):
    nets, swarms, model = floyd_inputs
    net = nets[network]
    edges = static_edges(net, model.spec.cruise_speed)
    got = []
    for swarm in swarms:
        _, dist, nxt = floyd_warshall_tables(net, static_edge_costs(swarm, edges, model))
        got.append(hashlib.sha256(dist.tobytes() + nxt.tobytes()).hexdigest())
    assert got == FLOYD_DIGESTS[network]


def every_planners_plans(net, requests, model, cfg):
    """(request, swarm, plan) for every plan the planners return per request:
    compose and walk_every_round for baseline, pb and fb under both
    positionings, and both static routers."""
    diameter = network_diameter(net)
    edges = static_edges(net, model.spec.cruise_speed)
    shares = [ShareConfig(s, cfg.gamma, cfg.delta_frac, cfg.quantum) for s in ("pb", "fb")]
    for req in requests:
        tree = shortest_path_tree(net, req.destination)
        path = tree.path_to_root(req.source)
        kwargs = dict(route_wind=route_average_wind(net, path),
                      route_heading=net.heading(req.source, req.destination),
                      route_distance_m=tree.distance(req.source), diameter_m=diameter,
                      failure_scale=cfg.failure_scale)
        plain = build_swarm(req, model, positioning="location-aware",
                            include_support=False, **kwargs)
        flights = [(plain, None)] + [
            (build_swarm(req, model, positioning=pos, **kwargs), share)
            for pos in POSITIONING_SETTINGS for share in shares]
        for swarm, share in flights:
            for planner in (compose, walk_every_round):
                yield req, swarm, planner(swarm, net, req, model, share=share, tree=tree)
        costs = static_edge_costs(plain, edges, model)
        for router in (dijkstra_baseline, floyd_warshall_baseline):
            yield req, plain, router(plain, net, req, model, costs=costs)


def assert_legs_chain(cases):
    """Legs join end to end from the source, and each starts on full
    batteries or on the last one's end batteries, exactly; a plan
    recharges before every leg after the first that starts full, and a
    stuck one after every leg it flew.  Returns how many legs after the
    first start (full, chained)."""
    full_starts = chained = 0
    for req, swarm, plan in cases:
        caps = {d.id: d.capacity for d in swarm.drones}
        before = None
        fulls = 0
        for k, leg in enumerate(plan.legs):
            assert leg.u == (req.source if k == 0 else plan.legs[k - 1].v)
            start = {i: points[0][1] for i, points in leg.traces.items()}
            assert start == caps or (before is not None and start == before), (req.id, k)
            if k and start == caps:
                fulls += 1
            elif k:
                chained += 1
            before = leg.batteries_after
        full_starts += fulls
        if plan.status == "success":
            assert plan.legs[-1].v == req.destination
            assert len(plan.visits) == fulls, (req.id, plan.strategy)
        elif plan.status == "stuck":
            assert len(plan.visits) == len(plan.legs), (req.id, plan.strategy)
    return full_starts, chained


def test_legs_chain_on_the_golden_slice(golden_world):
    net, requests = golden_world
    full_starts, chained = assert_legs_chain(every_planners_plans(
        net, requests, EnergyModel(SWEEP_SPEC, default_table()), SWEEP_CFG))
    assert full_starts > 0 and chained > 0


def test_legs_chain_in_the_cli_world():
    net = largest_connected_component(synthesize_network(276, 0))
    cfg = ExperimentConfig()
    base = DroneSpec()
    spec = replace(base, inflight_share_rate=cfg.share_rate,
                   pad_charge_rate=base.battery_capacity / cfg.pad_minutes)
    full_starts, chained = assert_legs_chain(every_planners_plans(
        net, synthesize_requests(net, 4, 0), EnergyModel(spec, default_table()), cfg))
    assert full_starts > 0 and chained > 0
