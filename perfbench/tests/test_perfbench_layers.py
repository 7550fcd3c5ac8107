import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)

# Plans three walk-share requests with the layer functions wrapped, in a
# fresh interpreter because wrapping rebinds names process-wide.
SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import layers
from workloads import WORKLOADS, build_inputs
from swarmway import bench
w = WORKLOADS["walk-share"]
net, requests, table = build_inputs(w, 0, 0)
tracer = layers.install()
bench.run_experiment(net, requests[:3], table, w.config(), spec=w.spec())
print(json.dumps({{"metrics": sorted(layers.metrics(tracer)), "notes": tracer.notes}}))
"""


def test_traced_run_reports_every_per_layer_metric_of_the_benchmark():
    script = SCRIPT.format(here=HERE, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    assert got["notes"] == []
    # run.py adds the overhead, which needs the untraced run as well
    assert set(got["metrics"]) == wanted - {"trace.overhead_frac"}
