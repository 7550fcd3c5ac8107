"""Planning frees what it builds by reference counting.

Each guard disables the cyclic collector, plans, and requires that a
collection then finds nothing: a reference cycle left by a plan (a nested
function that refers to itself, a frame held by its own exception's
traceback) waits for the collector, whose pauses land in whichever plan
crosses its threshold.  The library sets no collector option, since those
are process-wide; the last test holds the rows to the same values whatever
the collector does.
"""

import gc
import random

import pytest

import swarmway as sw
from swarmway.bench import ExperimentConfig, run_experiment
from swarmway.energy import PAD_EXHAUSTIVE_CAP, pad_candidates
from swarmway.formations import default_table
from swarmway.network import (
    DeliveryRequest,
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    largest_connected_component,
    synthesize_network,
    synthesize_requests,
)
from swarmway.planner import feasible_leg

from test_acceptance import SWEEP_CFG, SWEEP_SPEC, world  # noqa: F401 (fixture)

SLICE_REQUESTS = 30


def leaked(plan) -> int:
    """Objects of cyclic garbage ``plan()`` leaves behind, run with the
    collector off after collecting what was garbage before it."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        plan()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def acceptance_slice(world):
    net, requests = world
    return net, requests[:SLICE_REQUESTS]


def test_an_acceptance_slice_leaves_no_cyclic_garbage(acceptance_slice):
    # every strategy and positioning: test_rows_do_not_depend_on_the_collector
    # counts the rows
    net, requests = acceptance_slice
    assert leaked(lambda: run_experiment(net, requests, default_table(), SWEEP_CFG,
                                         spec=SWEEP_SPEC)) == 0


def test_a_cli_world_slice_leaves_no_cyclic_garbage():
    net = largest_connected_component(synthesize_network(276, 0))
    requests = synthesize_requests(net, 10, 0)
    assert leaked(lambda: run_experiment(net, requests, default_table(),
                                         ExperimentConfig())) == 0


@pytest.mark.parametrize("pads", [1, 2, 3])
def test_a_pad_search_leaves_no_cyclic_garbage(pads):
    rng = random.Random(pads)
    for n in range(PAD_EXHAUSTIVE_CAP + 1):
        times = tuple(rng.uniform(5.0, 60.0) for _ in range(n))
        assert pad_candidates(times, pads)
        assert leaked(lambda: pad_candidates(times, pads)) == 0, n


@pytest.mark.parametrize("reader", ["compose", "feasible_leg"])
def test_a_flight_that_raises_leaves_no_cyclic_garbage(reader):
    # 1e-320 m takes 0.0 minutes: the leg's ValueError is raised after
    # every group has flown the legs before it
    spec = sw.DroneSpec()
    model = sw.EnergyModel(spec, default_table())
    drones = [sw.make_delivery_drone(0, 0.5, spec), sw.make_support_drone(1, spec)]
    for slot, drone in enumerate(drones):
        drone.position = slot
    swarm = sw.Swarm(drones, sw.make_formation("column", 2))
    net = SkywayNetwork([Node(0, 0.0, 0.0, 2), Node(1, 1000.0, 0.0, 2)],
                        [Segment(0, 1, 1e-320, Wind(0.0, 0.0))])
    plan = {
        "compose": lambda: sw.compose(swarm, net, DeliveryRequest(0, 0, 1, [0.5]),
                                      model),
        "feasible_leg": lambda: feasible_leg(swarm, net, 0, 1, model),
    }[reader]
    messages = []

    def raising_flights():
        for _ in range(10):
            # try/except, not pytest.raises: its ExceptionInfo keeps the
            # traceback, and with it the frames, alive
            try:
                plan()
            except ValueError as exc:
                messages.append(str(exc))

    assert leaked(raising_flights) == 0
    assert messages == ["segment (0, 1): 1e-320 m takes 0.0 min at 30 km/h; "
                        "need > 0"] * 10


def test_rows_do_not_depend_on_the_collector(acceptance_slice):
    net, requests = acceptance_slice

    def rows():
        planned, _ = run_experiment(net, requests, default_table(), SWEEP_CFG,
                                    spec=SWEEP_SPEC)
        return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in planned]

    enabled, threshold = gc.isenabled(), gc.get_threshold()
    try:
        gc.disable()
        off = rows()
        gc.enable()
        default = rows()  # at the thresholds the test started with
        gc.set_threshold(10)  # a young collection every ten allocations
        aggressive = rows()
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    # 30 requests x (baseline, dijkstra, floyd + pb, fb x 2 positionings)
    assert len(off) == 7 * SLICE_REQUESTS
    assert default == off
    assert aggressive == off
