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

from swarmway.bench import run_experiment, write_results
from swarmway.energy import EnergyModel
from swarmway.formations import default_table
from swarmway.network import shortest_path_tree
from swarmway.planner import ShareConfig, compose
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
