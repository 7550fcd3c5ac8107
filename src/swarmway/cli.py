"""Command line front end.

Subcommands:
  run              sweep strategies over a workload, emit results.csv + summary.csv
  synth            generate a synthetic skyway network CSV
  calibrate-scale  tabulate support-drone counts per candidate failure scale

Exit codes: 0 success, 2 bad configuration, 3 file/format trouble.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .bench import (
    SHARING_STRATEGIES,
    ExperimentConfig,
    check_requests,
    check_segment_times,
    run_experiment,
    write_plot_data,
    write_results,
    write_summary,
)
from .energy import DroneSpec
from .formations import default_table, load_coefficients
from .network import (
    NetworkFormatError,
    largest_connected_component,
    load_network,
    load_requests,
    shortest_path_tree,
    save_network,
    synthesize_network,
    synthesize_requests,
)
from .planner import check_support_spacing
from .preflight import (
    failure_probability,
    network_diameter,
    redundancy_count,
    route_average_wind,
    route_failure_inputs,
)

log = logging.getLogger("swarmway")

# run's float flags: (flag, ExperimentConfig field, help)
RUN_FLOATS = (
    ("--gamma", "gamma", "request threshold, fraction of capacity"),
    ("--delta-frac", "delta_frac", "provider reserve, fraction of capacity"),
    ("--lambda", "quantum", "fairness quantum, mAh per turn"),
    ("--share-rate", "share_rate", "in-flight transfer rate, mAh/min"),
    ("--pad-minutes", "pad_minutes", "minutes a pad needs for one full charge"),
    ("--failure-scale", "failure_scale", "failure probability scale factor"),
    ("--bin-width", "bin_width_km", "summary distance bin width, km"),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="swarmway",
        description="Swarm delivery planning over skyway networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep strategies over a request workload")
    run.add_argument("--network", metavar="F",
                     help="network CSV; omitted -> synthesize one")
    run.add_argument("--requests", type=int, default=100, metavar="N",
                     help="number of requests to synthesize (default 100)")
    run.add_argument("--requests-file", metavar="F",
                     help="load requests from CSV instead of synthesizing")
    run.add_argument("--seed", type=int, default=0)
    cfg = ExperimentConfig()
    run.add_argument("--strategies", default=",".join(cfg.strategies),
                     help="comma list (default %(default)s)")
    run.add_argument("--positioning", default=",".join(cfg.positionings),
                     help="comma list (default %(default)s)")
    for flag, name, about in RUN_FLOATS:
        run.add_argument(flag, dest=name, type=float, default=getattr(cfg, name),
                         help=f"{about} (default %(default)s)")
    run.add_argument("--coeffs", metavar="F",
                     help="coefficient CSV; omitted -> built-in table")
    run.add_argument("--out", default=".", metavar="DIR")
    run.add_argument("--synth-nodes", type=int, default=276,
                     help="node count before trimming when synthesizing")
    run.add_argument("--plot-data", action="store_true",
                     help="also emit per-bin plot_data.csv")
    run.add_argument("--quiet", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic network CSV")
    synth.add_argument("--nodes", type=int, default=276)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--keep-all", action="store_true",
                       help="keep every node instead of the largest component")
    synth.add_argument("--out", required=True, metavar="F")

    cal = sub.add_parser(
        "calibrate-scale",
        help="tabulate the support-count bands a failure scale produces",
    )
    cal.add_argument("--network", metavar="F")
    cal.add_argument("--synth-nodes", type=int, default=276)
    cal.add_argument("--requests", type=int, default=500, metavar="N")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--scales", default="4,8,12,16,24",
                     help="comma list of candidate scale factors")
    return p


def _load_or_synthesize(network_path, synth_nodes, seed):
    if not network_path:
        return largest_connected_component(synthesize_network(synth_nodes, seed))
    net = load_network(network_path)
    if len(net.nodes) < 2:
        raise NetworkFormatError(
            f"{network_path}: {len(net.nodes)} node(s); requests need at least 2"
        )
    return net


def _cmd_run(args) -> None:
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    positionings = tuple(s.strip() for s in args.positioning.split(",") if s.strip())
    cfg = ExperimentConfig(strategies, positionings,
                           **{name: getattr(args, name) for _, name, _ in RUN_FLOATS})
    net = _load_or_synthesize(args.network, args.synth_nodes, args.seed)
    check_segment_times(net, DroneSpec().cruise_speed)  # before --out is made
    table = load_coefficients(args.coeffs) if args.coeffs else default_table()
    if args.coeffs and any(s in SHARING_STRATEGIES for s in strategies):
        try:
            check_support_spacing(table)
        except ValueError as exc:
            raise NetworkFormatError(f"{args.coeffs}: {exc}") from None
    if args.requests_file:
        requests = load_requests(args.requests_file, max_weight=DroneSpec().max_payload,
                                 nodes=net.nodes)
    else:
        requests = synthesize_requests(net, args.requests, args.seed)
    check_requests(net, requests, table, strategies, DroneSpec().max_payload)

    def progress(done, total):
        if done % 200 == 0 or done == total:
            log.info("  %d/%d requests", done, total)

    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the sweep
    rows, metrics = run_experiment(net, requests, table, cfg, on_progress=progress)
    write_results(rows, os.path.join(args.out, "results.csv"))
    write_summary(metrics, os.path.join(args.out, "summary.csv"))
    if args.plot_data:
        write_plot_data(metrics, os.path.join(args.out, "plot_data.csv"))
    for (strategy, pos) in sorted(metrics.groups):
        g = metrics.groups[(strategy, pos)]
        log.info("%-9s %-15s %d/%d ok, mean dt %.1f min",
                 strategy, pos, g.successes, g.rows, g.mean_dt)


def _cmd_synth(args) -> None:
    net = synthesize_network(args.nodes, args.seed)
    if not args.keep_all:
        net = largest_connected_component(net)
    save_network(net, args.out)
    log.info("wrote %d nodes, %d segments to %s", len(net.nodes), len(net.segments), args.out)


def _cmd_calibrate(args) -> None:
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    if not scales or not all(0 < s < math.inf for s in scales):
        raise ValueError(f"scales: need finite values > 0, got {args.scales!r}")
    net = _load_or_synthesize(args.network, args.synth_nodes, args.seed)
    requests = synthesize_requests(net, args.requests, args.seed)
    spec = DroneSpec()
    diameter = network_diameter(net)
    inputs = []
    for req in requests:
        tree = shortest_path_tree(net, req.destination)
        distance = tree.distance(req.source)
        if not math.isfinite(distance):
            continue
        wind = route_average_wind(net, tree.path_to_root(req.source))
        inputs.append((
            route_failure_inputs(req.package_weights, spec.max_payload,
                                 distance, diameter, wind),
            len(req.package_weights),
        ))
    print(f"{len(inputs)} reachable requests; support-count histogram per scale:")
    for scale in scales:
        counts: dict[int, int] = {}
        for fi, n in inputs:
            k = redundancy_count(failure_probability(fi, scale), n)
            counts[k] = counts.get(k, 0) + 1
        hist = "  ".join(f"{k}sup:{counts[k]}" for k in sorted(counts))
        print(f"  scale {scale:6.1f}: {hist}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # run's progress and summary and synth's status line; run's --quiet
    # silences them
    log.setLevel(logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    handler = logging.StreamHandler()  # the current sys.stderr
    log.addHandler(handler)
    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "synth":
            _cmd_synth(args)
        else:
            _cmd_calibrate(args)
    except (NetworkFormatError, OSError) as exc:  # before ValueError, its base
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
