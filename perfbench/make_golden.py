"""Write, or check, the golden rows of every workload and golden seed.

    python3 perfbench/make_golden.py            # rewrite perfbench/golden/
    python3 perfbench/make_golden.py --check    # compare a fresh sweep with it

Each (workload, request seed) plans its requests in a fresh interpreter
and keeps the rows ``swarmway.bench.write_results`` writes, without
``runtime_ms``.  Regenerate only when a change is meant to alter planner
answers, and say so in the change.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from measure import golden_check, load_golden, read_results, write_golden
from run import GOLDEN, OUT, ROOT, SRC, golden_path

sys.path.insert(0, SRC)
from workloads import GOLDEN_SEEDS, REQUESTS, WORKLOADS  # noqa: E402

PARALLEL_WORKERS = 2


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the stored golden rows instead of writing")
    args = p.parse_args()
    jobs = [(w, s) for w in WORKLOADS for s in GOLDEN_SEEDS]
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(GOLDEN, exist_ok=True)

    failures = 0
    running: list[tuple[str, int, str, subprocess.Popen]] = []
    while jobs or running:
        while jobs and len(running) < PARALLEL_WORKERS:
            workload, seed = jobs.pop(0)
            results = os.path.join(OUT, f"golden.{workload}.{seed}.{os.getpid()}.csv")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
                   "--workload", workload, "--request-seed", str(seed),
                   "--order-seed", "0", "--results", results]
            running.append((workload, seed, results,
                            subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)))
        workload, seed, results, proc = running.pop(0)
        if proc.wait() != 0:
            print(f"{workload} seed {seed}: worker exited with {proc.returncode}")
            failures += 1
            continue
        columns, checked, _ = read_results(results)
        os.remove(results)
        if args.check:
            ids = sorted({int(k[0]) for k in checked})
            attempted, bad = golden_check(load_golden(golden_path(workload, seed)),
                                          checked, ids)
            print(f"{workload} seed {seed}: {len(bad)} of {attempted} rows differ")
            failures += bool(bad) or len(ids) != REQUESTS
        else:
            write_golden(columns, checked, golden_path(workload, seed))
            print(f"{workload} seed {seed}: wrote {len(checked)} rows")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
