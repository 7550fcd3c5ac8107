"""Experiment harness: strategy sweeps over request workloads.

``run_experiment`` plans every request under every configured
(strategy, positioning) combination and records one result row per
combination; ``bin_metrics`` rolls the rows up into success counts and
distance-binned mean delivery and node times.  Output is plain CSV so
plots can be made elsewhere.

Positioning only changes anything when support drones fly along, so the
no-sharing strategies (baseline, dijkstra, floyd) run once per request
with the positioning column set to "none".
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

from .energy import DroneSpec, EnergyModel
from .formations import CoefficientTable
from .network import DeliveryRequest, SkywayNetwork, shortest_path_tree
from .planner import (
    ShareConfig,
    compose,
    dijkstra_baseline,
    floyd_warshall_baseline,
    static_edge_costs,
)
from .preflight import (
    DEFAULT_FAILURE_SCALE,
    POSITIONING_SETTINGS,
    build_swarm,
    network_diameter,
    route_average_wind,
)

STRATEGIES = ("baseline", "pb", "fb", "dijkstra", "floyd")
SHARING_STRATEGIES = ("pb", "fb")
RESULT_COLUMNS = (
    "request_id", "strategy", "positioning", "status", "distance_m",
    "dt_min", "tt_min", "nt_min", "energy_shared_mAh", "runtime_ms",
)
NAN_SENTINEL = "NaN"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep knobs: strategies, positionings, sharing, pads and binning."""

    strategies: tuple[str, ...] = STRATEGIES
    positionings: tuple[str, ...] = POSITIONING_SETTINGS
    gamma: float = 0.8
    delta_frac: float = 0.2
    quantum: float = 2240.0
    share_rate: float = 5.88
    pad_minutes: float = 60.0
    failure_scale: float = DEFAULT_FAILURE_SCALE
    bin_width_km: float = 0.5

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("strategies: need at least one")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"strategies: unknown strategy {s!r}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("strategies: duplicates not allowed")
        if not self.positionings:
            raise ValueError("positionings: need at least one")
        for p in self.positionings:
            if p not in POSITIONING_SETTINGS:
                raise ValueError(f"positionings: unknown setting {p!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma: {self.gamma} outside [0, 1]")
        if not 0.0 <= self.delta_frac < 1.0:
            raise ValueError(f"delta_frac: {self.delta_frac} outside [0, 1)")
        for name in ("quantum", "share_rate", "pad_minutes", "failure_scale",
                     "bin_width_km"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and > 0")


def sweep_configurations(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """(strategy, positioning) pairs in the order rows are produced."""
    combos = []
    for s in cfg.strategies:
        if s in SHARING_STRATEGIES:
            combos.extend((s, p) for p in cfg.positionings)
        else:
            combos.append((s, "none"))
    return combos


@dataclass
class BinStats:
    rows: int = 0
    successes: int = 0
    dt_sum: float = 0.0
    nt_sum: float = 0.0

    def add(self, row) -> None:
        """Count one result row; times sum over successful rows only."""
        self.rows += 1
        if row["status"] == "success":
            self.successes += 1
            self.dt_sum += row["dt_min"]
            self.nt_sum += row["nt_min"]

    @property
    def mean_dt(self) -> float:
        return self.dt_sum / self.successes if self.successes else math.nan

    @property
    def mean_nt(self) -> float:
        return self.nt_sum / self.successes if self.successes else math.nan


@dataclass
class GroupMetrics(BinStats):
    runtime_sum: float = 0.0
    bins: dict[int, BinStats] = field(default_factory=dict)

    @property
    def mean_runtime_ms(self) -> float:
        return self.runtime_sum / self.rows if self.rows else math.nan


@dataclass
class MetricsTable:
    bin_width_km: float
    groups: dict[tuple[str, str], GroupMetrics]


def bin_metrics(rows, bin_width_km: float = 0.5) -> MetricsTable:
    """Aggregate result rows into per-group, per-distance-bin statistics.

    Bin k covers distances [k*w, (k+1)*w) km; means cover successful
    rows only, so an all-failed bin reports NaN rather than 0.
    """
    if bin_width_km <= 0:
        raise ValueError("bin_width_km: must be > 0")
    groups: dict[tuple[str, str], GroupMetrics] = {}
    for row in rows:
        key = (row["strategy"], row["positioning"])
        g = groups.setdefault(key, GroupMetrics())
        g.add(row)
        g.runtime_sum += row["runtime_ms"]
        distance = row["distance_m"]
        if math.isfinite(distance):
            k = int(distance / 1000.0 / bin_width_km)
            g.bins.setdefault(k, BinStats()).add(row)
    return MetricsTable(bin_width_km, groups)


def run_experiment(
    net: SkywayNetwork,
    requests: list[DeliveryRequest],
    table: CoefficientTable,
    cfg: ExperimentConfig,
    *,
    spec: DroneSpec | None = None,
    on_progress=None,
) -> tuple[list[dict], MetricsTable]:
    """Plan every request under every configured combination.

    Returns the per-request rows (sorted by request id, strategy,
    positioning) and their binned rollup.  The runtime column times the
    planner call alone; workload setup, swarm construction, and static
    cost tables shared between the two static routers stay outside the
    timed region.
    """
    if spec is None:
        base = DroneSpec()
        spec = replace(base, inflight_share_rate=cfg.share_rate,
                       pad_charge_rate=base.battery_capacity / cfg.pad_minutes)
    model = EnergyModel(spec, table)
    diameter = network_diameter(net)
    combos = sweep_configurations(cfg)
    share_by = {
        s: ShareConfig(s, cfg.gamma, cfg.delta_frac, cfg.quantum)
        for s in SHARING_STRATEGIES if s in cfg.strategies
    }
    needs_static = any(s in cfg.strategies for s in ("dijkstra", "floyd"))

    rows: list[dict] = []
    for done, req in enumerate(requests):
        tree = shortest_path_tree(net, req.destination)
        distance = tree.distance(req.source)
        if not math.isfinite(distance):
            for strategy, pos in combos:
                rows.append({
                    "request_id": req.id, "strategy": strategy, "positioning": pos,
                    "status": "unreachable", "distance_m": math.inf,
                    "dt_min": 0.0, "tt_min": 0.0, "nt_min": 0.0,
                    "energy_shared_mAh": 0.0, "runtime_ms": 0.0,
                })
            if on_progress:
                on_progress(done + 1, len(requests))
            continue

        path = tree.path_to_root(req.source)
        swarm_kwargs = dict(
            route_wind=route_average_wind(net, path),
            route_heading=net.heading(req.source, req.destination),
            route_distance_m=distance,
            diameter_m=diameter,
            failure_scale=cfg.failure_scale,
        )
        plain_swarm = build_swarm(req, model, positioning="location-aware",
                                  include_support=False, **swarm_kwargs)
        static_costs = static_edge_costs(plain_swarm, net, model) if needs_static else None

        for strategy, pos in combos:
            if strategy in SHARING_STRATEGIES:
                swarm = build_swarm(req, model, positioning=pos,
                                    include_support=True, **swarm_kwargs)
                t0 = time.perf_counter()
                plan = compose(swarm, net, req, model, share=share_by[strategy],
                               tree=tree)
            elif strategy == "baseline":
                t0 = time.perf_counter()
                plan = compose(plain_swarm, net, req, model, tree=tree)
            elif strategy == "dijkstra":
                t0 = time.perf_counter()
                plan = dijkstra_baseline(plain_swarm, net, req, model,
                                         costs=static_costs)
            else:
                t0 = time.perf_counter()
                plan = floyd_warshall_baseline(plain_swarm, net, req, model,
                                               costs=static_costs)
            runtime_ms = (time.perf_counter() - t0) * 1000.0
            rows.append({
                "request_id": req.id, "strategy": strategy, "positioning": pos,
                "status": plan.status, "distance_m": distance,
                "dt_min": plan.dt, "tt_min": plan.tt_total, "nt_min": plan.nt_total,
                "energy_shared_mAh": plan.energy_shared, "runtime_ms": runtime_ms,
            })
        if on_progress:
            on_progress(done + 1, len(requests))

    rows.sort(key=lambda r: (r["request_id"], r["strategy"], r["positioning"]))
    return rows, bin_metrics(rows, cfg.bin_width_km)


def _fmt(value) -> str:
    if isinstance(value, float):
        return NAN_SENTINEL if math.isnan(value) else repr(value)
    return str(value)


def write_results(rows, path) -> None:
    """Per-request rows; floats as repr so reloading loses nothing."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in RESULT_COLUMNS])


def write_summary(metrics: MetricsTable, path) -> None:
    """One aggregate row per (strategy, positioning) group."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "positioning", "requests", "successes",
                         "mean_dt_min", "mean_nt_min", "mean_runtime_ms"])
        for (strategy, pos) in sorted(metrics.groups):
            g = metrics.groups[(strategy, pos)]
            writer.writerow([strategy, pos, g.rows, g.successes,
                             _fmt(g.mean_dt), _fmt(g.mean_nt),
                             _fmt(g.mean_runtime_ms)])


def write_plot_data(metrics: MetricsTable, path) -> None:
    """Tidy long-format per-bin rows for external plotting tools."""
    w = metrics.bin_width_km
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "positioning", "bin_lo_km", "bin_hi_km",
                         "requests", "successes", "mean_dt_min", "mean_nt_min"])
        for (strategy, pos) in sorted(metrics.groups):
            g = metrics.groups[(strategy, pos)]
            for k in sorted(g.bins):
                b = g.bins[k]
                writer.writerow([strategy, pos, _fmt(k * w), _fmt((k + 1) * w),
                                 b.rows, b.successes,
                                 _fmt(b.mean_dt), _fmt(b.mean_nt)])
