"""Reruns give the same rows whatever the interpreter's hash seed.

Set and dict iteration over strings depends on ``PYTHONHASHSEED``, so a
planner that let such an order leak into its answers would agree with
itself in one process and still drift between runs.  A short acceptance
slice runs in two fresh interpreters under different hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SLICE = """
import tempfile
from dataclasses import replace
from pathlib import Path

from swarmway.bench import run_experiment
from swarmway.formations import default_table
from swarmway.network import (
    largest_connected_component, synthesize_network, synthesize_requests)
from swarmway.preflight import POSITIONING_SETTINGS

from test_acceptance import NETWORK_SEED, SWEEP_CFG, SWEEP_SPEC
from test_golden import rows_digest

net = largest_connected_component(synthesize_network(276, NETWORK_SEED, pads=(0, 3)))
requests = synthesize_requests(net, 10, seed=0)
cfg = replace(SWEEP_CFG, strategies=("baseline", "pb", "fb", "dijkstra", "floyd"),
              positionings=POSITIONING_SETTINGS)
rows, _ = run_experiment(net, requests, default_table(), cfg, spec=SWEEP_SPEC)
with tempfile.TemporaryDirectory() as tmp:
    print(len(rows), rows_digest(rows, Path(tmp)))
"""


def slice_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", SLICE], env=env, cwd=TESTS,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_rows_match_across_hash_seeds():
    first = slice_digest("0")
    # 10 requests x (baseline, dijkstra, floyd + pb, fb x 2 positionings)
    assert first.startswith("70 ")
    assert slice_digest("4242") == first
