"""Run one swarmway benchmark workload and print its metrics.

    python3 perfbench/run.py --workload walk-share --seed 0 --seconds 30 --trace 0

Paths resolve against the checkout that holds this file.  Each pass plans
the workload's requests in a fresh interpreter (worker.py), so no
process-wide cache is warm and ``ru_maxrss`` covers one pass alone.

--trace 0 runs passes until the next one would end after --seconds (at
least MIN_PASSES) and reports the end-to-end metrics: medians over passes,
latency percentiles over every pass's requests.  --trace 1 runs one pass
untraced and one traced, and reports the per-layer metrics with the
tracing overhead.  Every pass's rows are checked against the golden rows;
a row that is missing or differs counts as failed.  One line per metric
(name, value, unit, sample count) goes to stdout, then a JSON object as
the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import golden_check, latency_summary, load_golden, read_results

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden")

MIN_PASSES = 3  # p95 over requests needs 200 samples; a third pass steadies it
WORKER_TIMEOUT_S = 80
SHOWN_MISMATCHES = 5


def golden_path(workload: str, req_seed: int) -> str:
    return os.path.join(GOLDEN, f"{workload}.seed{req_seed}.csv.gz")


def run_worker(workload, req_seed, order_seed, trace=False):
    """One pass in a fresh interpreter; returns its summary and its rows."""
    tag = f"{workload}.{req_seed}.{os.getpid()}{'.trace' if trace else ''}"
    results = os.path.join(OUT, f"results.{tag}.csv")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--request-seed", str(req_seed),
           "--order-seed", str(order_seed), "--results", results]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans.{workload}.npz")]
    try:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise SystemExit(f"error: a pass ran past {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            # a raised exception fails every row of the run; no result line
            print("failed_frac 1.0: the worker raised, see stderr")
            raise SystemExit(f"error: worker exited with {proc.returncode}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        _, checked, runtimes = read_results(results)
        return summary, checked, runtimes
    finally:
        if os.path.exists(results):
            os.remove(results)


def check_rows(golden, passes):
    """(attempted, failed) rows over all passes; prints the first mismatches."""
    attempted = failed = 0
    for summary, checked, _ in passes:
        expected, bad = golden_check(golden, checked, summary["request_ids"])
        for key in sorted(bad)[:SHOWN_MISMATCHES]:
            print(f"mismatch {'/'.join(key)}: got {checked.get(key)} "
                  f"expected {golden.get(key)}")
        attempted += expected
        failed += min(len(bad), expected)
    return attempted, failed


def show(name, value, unit, n, extra=""):
    print(f"{name:42s} {value!s:>22} {unit:10s} n={n}{extra}")


def end_to_end(passes):
    """The end-to-end metrics over untraced passes; prints each one.

    Times are in reference seconds (see worker.py); the raw figures are
    printed beside them.
    """
    setup = [t for s, _, _ in passes for t in s["setup_ref_s"]]
    rates = [len(s["request_ids"]) / s["wall_ref_s"] for s, _, _ in passes]
    rss_mb = [s["peak_rss_kb"] / 1024.0 for s, _, _ in passes]
    per_request: list[float] = []
    per_strategy: dict[str, list[float]] = {}
    for summary, _, runtimes in passes:
        slowdown = dict(zip(map(str, summary["request_ids"]), summary["slowdown"]))
        sums: dict[str, float] = {}
        for (rid, strategy, _), ms in runtimes.items():
            ms /= slowdown[rid]
            sums[rid] = sums.get(rid, 0.0) + ms
            per_strategy.setdefault(strategy, []).append(ms)
        per_request.extend(sums.values())
    plan = latency_summary(per_request)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "requests_per_s": (statistics.median(rates), "req/s", len(rates)),
        "peak_rss_mb": (statistics.median(rss_mb), "MB", len(rss_mb)),
        "plan_ms_p50": (plan["p50"], "ms", plan["n"]),
        "plan_ms_p95": (plan["p95"], "ms", plan["n"]),
    }
    for name, (value, unit, n) in metrics.items():
        show(name, value, unit, n)
    show("raw.setup_s", statistics.median(
        t for s, _, _ in passes for t in s["setup_s"]), "s", len(setup))
    show("raw.requests_per_s", statistics.median(
        len(s["request_ids"]) / s["wall_s"] for s, _, _ in passes), "req/s", len(rates))
    show("host.slowdown", statistics.median(
        k for s, _, _ in passes for k in s["slowdown"]), "x", plan["n"])
    # Per strategy, pb and fb pooling both positionings.  Printed only: the
    # JSON line carries the same metric names for every workload, and each
    # workload runs its own strategies.
    for strategy in sorted(per_strategy):
        s = latency_summary(per_strategy[strategy])
        show(f"{strategy}.plan_ms_p50", s["p50"], "ms", s["n"])
        if s["p95"] is None:
            print(f"{strategy}.plan_ms_p95 withheld: {s['beyond']} samples beyond it")
        else:
            show(f"{strategy}.plan_ms_p95", s["p95"], "ms", s["n"],
                 f" ({s['beyond']} beyond)")
    return {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}


def per_layer(base, traced):
    """The traced pass's layer metrics plus the tracing overhead; prints each."""
    metrics = dict(traced["layers"])
    # extra time of the traced pass: untraced rate / traced rate - 1
    metrics["trace.overhead_frac"] = {
        "value": traced["wall_ref_s"] / base["wall_ref_s"] - 1.0, "unit": "ratio",
        "n": len(traced["request_ids"])}
    for name, m in metrics.items():
        show(name, m["value"], m["unit"], m["n"])
    print(f"spans recorded: {traced['spans']}")
    for note in traced["notes"]:
        print(f"note: {note}")
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="orders the requests")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--request-seed", type=int, default=0,
                   help="which requests to draw: 0, or the held-out 9")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "swarmway", "bench.py")):
        print(f"error: no swarmway sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import GOLDEN_SEEDS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.request_seed not in GOLDEN_SEEDS:
        print(f"error: --request-seed must be one of {GOLDEN_SEEDS}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    golden = load_golden(golden_path(args.workload, args.request_seed))
    print(f"workload {args.workload}, request seed {args.request_seed}, "
          f"order seed {args.seed}")

    def one_pass(trace=False):
        return run_worker(args.workload, args.request_seed, args.seed, trace)

    if args.trace == 0:
        started = time.monotonic()
        passes = [one_pass()]
        # another pass while the run, at its mean pass time, ends within --seconds
        while len(passes) < MIN_PASSES or (
                (time.monotonic() - started) * (len(passes) + 1) / len(passes)
                <= args.seconds):
            passes.append(one_pass())
        attempted, failed = check_rows(golden, passes)
        metrics = end_to_end(passes)
    else:
        passes = [one_pass(), one_pass(trace=True)]
        attempted, failed = check_rows(golden, passes)
        metrics = per_layer(passes[0][0], passes[1][0])
    show("failed_frac", failed / attempted, "ratio", attempted)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
