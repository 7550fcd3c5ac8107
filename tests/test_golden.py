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
    shortest_path_tree,
    synthesize_network,
    synthesize_requests,
)
from swarmway.planner import (
    ShareConfig,
    compose,
    floyd_warshall_tables,
    static_edge_costs,
)
from swarmway.preflight import (
    POSITIONING_SETTINGS,
    build_swarm,
    network_diameter,
    route_average_wind,
)

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
    got = []
    for swarm in swarms:
        _, dist, nxt = floyd_warshall_tables(net, static_edge_costs(swarm, net, model))
        got.append(hashlib.sha256(dist.tobytes() + nxt.tobytes()).hexdigest())
    assert got == FLOYD_DIGESTS[network]
