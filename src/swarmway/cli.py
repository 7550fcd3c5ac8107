"""Command line front end.

Subcommands:
  run              sweep strategies over a workload, emit results.csv + summary.csv
  synth            generate a synthetic skyway network CSV
  calibrate-scale  tabulate support-drone counts per candidate failure scale

Exit codes: 0 success, 2 bad configuration, 3 file/format trouble.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bench import (
    SHARING_STRATEGIES,
    ExperimentConfig,
    run_experiment,
    write_plot_data,
    write_results,
    write_summary,
)
from .energy import DroneSpec
from .formations import FORMATION_KINDS, default_table, load_coefficients
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
    DEFAULT_FAILURE_SCALE,
    failure_probability,
    network_diameter,
    redundancy_count,
    route_average_wind,
    route_failure_inputs,
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
    run.add_argument("--strategies", default="baseline,pb,fb,dijkstra,floyd",
                     help="comma list from: baseline,pb,fb,dijkstra,floyd")
    run.add_argument("--positioning", default="location-aware,energy-aware",
                     help="comma list from: location-aware,energy-aware")
    run.add_argument("--gamma", type=float, default=0.8,
                     help="request threshold, fraction of capacity (default 0.8)")
    run.add_argument("--delta-frac", type=float, default=0.2,
                     help="provider reserve, fraction of capacity (default 0.2)")
    run.add_argument("--lambda", dest="quantum", type=float, default=2240.0,
                     help="fairness quantum, mAh per turn (default 2240)")
    run.add_argument("--share-rate", type=float, default=5.88,
                     help="in-flight transfer rate, mAh/min (default 5.88)")
    run.add_argument("--pad-minutes", type=float, default=60.0,
                     help="minutes a pad needs for one full charge (default 60)")
    run.add_argument("--coeffs", metavar="F",
                     help="coefficient CSV; omitted -> built-in table")
    run.add_argument("--out", default=".", metavar="DIR")
    run.add_argument("--failure-scale", type=float, default=DEFAULT_FAILURE_SCALE)
    run.add_argument("--bin-width", type=float, default=0.5,
                     help="summary distance bin width, km (default 0.5)")
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
    for seg in net.segments:
        if seg.wind is None:
            raise NetworkFormatError(
                f"{network_path}: segment ({seg.u}, {seg.v}) has no wind data; "
                "planning needs wind speed and direction on every segment"
            )
    return net


def _check_swarm_sizes(requests, table, strategies) -> None:
    """Reject requests whose largest possible swarm overflows the table's slots.

    With pb or fb in the sweep, ``redundancy_count`` adds at most
    max(n, 4) support drones to n delivery drones.  Every formation kind
    is costed for every swarm, so the smallest kind bounds the size.
    """
    sharing = any(s in SHARING_STRATEGIES for s in strategies)
    kind = min(FORMATION_KINDS, key=table.max_slots)
    slots = table.max_slots(kind)
    for req in requests:
        n = len(req.package_weights)
        size = n + max(n, 4) if sharing else n
        if size > slots:
            raise NetworkFormatError(
                f"request {req.id}: {n} packages need up to {size} drones, "
                f"but formation {kind!r} has only {slots} slots"
            )


def _cmd_run(args) -> None:
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    positionings = tuple(s.strip() for s in args.positioning.split(",") if s.strip())
    cfg = ExperimentConfig(
        strategies=strategies,
        positionings=positionings,
        gamma=args.gamma,
        delta_frac=args.delta_frac,
        quantum=args.quantum,
        share_rate=args.share_rate,
        pad_minutes=args.pad_minutes,
        failure_scale=args.failure_scale,
        bin_width_km=args.bin_width,
    )
    net = _load_or_synthesize(args.network, args.synth_nodes, args.seed)
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
    _check_swarm_sizes(requests, table, strategies)

    progress = None
    if not args.quiet:
        def progress(done, total):
            if done % 200 == 0 or done == total:
                print(f"  {done}/{total} requests", file=sys.stderr)

    rows, metrics = run_experiment(net, requests, table, cfg, on_progress=progress)
    os.makedirs(args.out, exist_ok=True)
    write_results(rows, os.path.join(args.out, "results.csv"))
    write_summary(metrics, os.path.join(args.out, "summary.csv"))
    if args.plot_data:
        write_plot_data(metrics, os.path.join(args.out, "plot_data.csv"))
    if not args.quiet:
        for (strategy, pos) in sorted(metrics.groups):
            g = metrics.groups[(strategy, pos)]
            print(f"{strategy:9s} {pos:15s} {g.successes}/{g.rows} ok, "
                  f"mean dt {g.mean_dt:.1f} min")


def _cmd_synth(args) -> None:
    net = synthesize_network(args.nodes, args.seed)
    if not args.keep_all:
        net = largest_connected_component(net)
    save_network(net, args.out)
    print(f"wrote {len(net.nodes)} nodes, {len(net.segments)} segments to {args.out}")


def _cmd_calibrate(args) -> None:
    net = _load_or_synthesize(args.network, args.synth_nodes, args.seed)
    requests = synthesize_requests(net, args.requests, args.seed)
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
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
    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "synth":
            _cmd_synth(args)
        else:
            _cmd_calibrate(args)
    except NetworkFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
