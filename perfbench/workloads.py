"""The three benchmark workloads and the set-up that builds their inputs.

Each world is fixed; the request seed only drives ``synthesize_requests``.
Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from swarmway.bench import ExperimentConfig
from swarmway.energy import DroneSpec
from swarmway.formations import default_table
from swarmway.network import (
    largest_connected_component,
    synthesize_network,
    synthesize_requests,
)

# Requests planned per pass.  Every run plans the same requests, because
# different draws move the metrics by more than their bounds: five draws of
# 300 walk-share requests spread requests_per_s by 19% and plan_ms_p50 by
# 48% (quartile distance over median).  The benchmark seed only shuffles
# their order.
REQUESTS = 100
# Request seeds with golden rows: 0 is the default; 9 was held out while
# the benchmark was tuned, for checking a claim on other inputs.
GOLDEN_SEEDS = (0, 9)

# The acceptance sweep profile of tests/test_acceptance.py (SWEEP_SPEC/SWEEP_CFG).
_WALK_SHARE_SPEC = DroneSpec(
    cruise_speed=30.0,
    inflight_share_rate=134.0,
    pad_charge_rate=4480.0 / 60.0,
    base_consumption_rate=96.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    network_seed: int
    pads: tuple[int, int]
    strategies: tuple[str, ...]
    acceptance_profile: bool  # False: DroneSpec() and ExperimentConfig() defaults
    # The host-speed probe adds numpy work when numpy Floyd tables take most
    # of the time: the python-only probe left 10-13% spread on this
    # workload's p95, the mixed one 3-5% (and 9% instead of 3% on walk-share's
    # requests_per_s, so the walker workloads keep the python-only probe).
    array_probe: bool = False

    def config(self) -> ExperimentConfig:
        if self.acceptance_profile:
            return ExperimentConfig(
                strategies=self.strategies,
                gamma=0.95,
                delta_frac=0.65,
                quantum=28.0,
                share_rate=_WALK_SHARE_SPEC.inflight_share_rate,
            )
        return ExperimentConfig(strategies=self.strategies)

    def spec(self) -> DroneSpec | None:
        # None lets run_experiment derive the spec from the config, as the CLI does
        return _WALK_SHARE_SPEC if self.acceptance_profile else None


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance world: 276 nodes, seed 2118, pads 0-3 -> 195 nodes
        Workload("walk-share", 2118, (0, 3), ("baseline", "pb", "fb"), True),
        # CLI default world: 276 nodes, seed 0, pads 1-3 -> 263 nodes
        Workload("field-walk", 0, (1, 3), ("baseline", "pb", "fb"), False),
        Workload("static-routers", 0, (1, 3), ("dijkstra", "floyd"), False,
                 array_probe=True),
    )
}


def build_inputs(workload: Workload, req_seed: int, order_seed: int):
    """Set-up: synthesize and trim the network, draw and order the requests,
    build the coefficient table."""
    net = largest_connected_component(
        synthesize_network(276, workload.network_seed, pads=workload.pads))
    requests = synthesize_requests(net, REQUESTS, req_seed)
    random.Random(order_seed).shuffle(requests)
    return net, requests, default_table()
