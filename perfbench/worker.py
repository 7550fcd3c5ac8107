"""One measured pass in a fresh interpreter; run.py starts it.

Sets the workload up SETUP_REPEATS times, then plans its requests with a
single ``swarmway.bench.run_experiment`` call: one client and one thread,
each request planned after the previous one.  Writes the rows with
``swarmway.bench.write_results`` and prints one JSON line of timings.
With ``--spans`` the layer functions are wrapped first and the spans are
saved there.

On a shared 2-vCPU VM the host's speed swings by up to a third within
seconds (the same interpreter-bound loop takes 13 to 22 ms).  So a fixed
speed probe runs between set-ups and after every request, and each time
is also given in reference seconds: divided by the slowdown the probes
around it measured, their time over REFERENCE_PROBE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

SETUP_REPEATS = 5
PROBE_WINDOW = 5  # probes whose median gives the speed around one request
# the probe's time at the reference speed, without and with the array part
REFERENCE_PROBE_S = {False: 0.0025, True: 0.0070}


def _probe_work(arrays: bool) -> float:
    # dict, float and sort work: interpreter-bound, like the walker
    total = 0.0
    for _ in range(3):
        d: dict[int, float] = {}
        for i in range(3000):
            d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
            total += (i % 13) * 1.0001
        total += sorted(d.values(), reverse=True)[0]
    if arrays:
        # ten relaxation steps of a Floyd table over the CLI world's node
        # count: memory-bound, like the static routers' numpy work
        dist = np.arange(263 * 263, dtype=np.float64).reshape(263, 263) % 97.0
        for k in range(10):
            cand = dist[:, k, None] + dist[None, k, :]
            dist = np.where(cand < dist, cand, dist)
        total += float(dist[0, 0])
    return total


def probe(arrays: bool) -> float:
    """The host's slowdown now: the probe's time over its reference time."""
    t0 = time.perf_counter()
    _probe_work(arrays)
    return (time.perf_counter() - t0) / REFERENCE_PROBE_S[arrays]


class Pacer:
    """``on_progress`` callback: after each request, mark the time and probe."""

    def __init__(self, arrays: bool):
        self.arrays = arrays
        self.ends: list[float] = []  # when each request's planning ended
        self.resumes: list[float] = []  # when planning resumed after its probe
        self.probes: list[float] = []

    def __call__(self, done, total):
        self.ends.append(time.perf_counter())
        self.probes.append(probe(self.arrays))
        self.resumes.append(time.perf_counter())

    def slowdowns(self) -> list[float]:
        """Per request, the median slowdown the probes around it measured."""
        half = PROBE_WINDOW // 2
        return [statistics.median(self.probes[max(0, i - half):i + half + 1])
                for i in range(len(self.probes))]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--request-seed", type=int, required=True)
    p.add_argument("--order-seed", type=int, required=True)
    p.add_argument("--results", required=True, help="results CSV to write")
    p.add_argument("--spans", help="trace the pass and save its spans here (.npz)")
    args = p.parse_args()

    import swarmway
    if not os.path.abspath(swarmway.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported swarmway from {swarmway.__file__}, not {SRC}")
    from swarmway import bench
    from swarmway.bench import write_results
    from workloads import WORKLOADS, build_inputs

    workload = WORKLOADS[args.workload]
    arrays = workload.array_probe
    setup_s, setup_ref_s = [], []
    before = probe(arrays)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        net, requests, table = build_inputs(workload, args.request_seed, args.order_seed)
        took = time.perf_counter() - t0
        after = probe(arrays)
        setup_s.append(took)
        setup_ref_s.append(took * 2 / (before + after))
        before = after

    cfg, spec = workload.config(), workload.spec()
    tracer = None
    if args.spans:
        import layers
        tracer = layers.install()

    pacer = Pacer(arrays)
    # a span of its own keeps the probes out of run_experiment's self time
    progress = tracer.wrap("perfbench.probe", pacer) if tracer else pacer
    t0 = time.perf_counter()
    # through the module, so that a traced run calls the wrapper
    rows, _ = bench.run_experiment(net, requests, table, cfg, spec=spec,
                                   on_progress=progress)
    t1 = time.perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    slowdowns = pacer.slowdowns()
    # time in run_experiment around each request, probes left out; the first
    # request carries the call's own set-up, the last its row sorting
    intervals = [end - start for start, end in zip([t0] + pacer.resumes, pacer.ends)]
    intervals[-1] += t1 - pacer.resumes[-1]

    write_results(rows, args.results)
    summary = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(intervals),
        "wall_ref_s": sum(t / k for t, k in zip(intervals, slowdowns)),
        "request_ids": [r.id for r in requests],
        "slowdown": slowdowns,  # per request, in planning order
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        summary["layers"] = layers.metrics(tracer)
        summary["notes"] = tracer.notes
        summary["spans"] = len(tracer.starts)
        tracer.save(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
