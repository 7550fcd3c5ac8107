"""Which swarmway functions the traced run wraps, and its per-layer metrics.

Every public function of the seven layer modules is wrapped, plus the two
``Formation`` methods the sharing composers call most.  ``cli`` only parses
flags and calls ``run_experiment``, so it is not a measured layer.  A
function that no longer exists is simply not wrapped: its metrics are left
out and a note says so.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from tracer import Tracer

LAYER_MODULES = ("network", "formations", "energy", "preflight", "sharing",
                 "planner", "bench")
METHODS = (("formations", "Formation", "neighbors"),
           ("formations", "Formation", "adjacent"))

# span name -> which per-layer metrics it feeds
CALLS_AND_SELF = (
    "sharing.fb_compose", "sharing.pb_compose", "sharing.reorder_fixed",
    "formations.Formation.neighbors", "planner.feasible_leg", "planner.compose",
    "energy.consumption_rate", "energy.pad_schedule", "planner.static_edge_costs",
    "planner.floyd_warshall_tables", "planner.static_dijkstra",
    "network.shortest_path_tree", "preflight.build_swarm",
)
CALLS_ONLY = ("formations.Formation.adjacent",)
SELF_ONLY = ("planner.floyd_warshall_baseline", "planner.dijkstra_baseline",
             "preflight.network_diameter", "bench.run_experiment")


def _count_allocations(tracer, args, kwargs, result):
    tracer.count("sharing.allocations", len(result.plan.allocations))


def _count_swap(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("sharing.reorder_fixed.swaps")


def _count_leg(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("planner.feasible_leg.ok")
    if kwargs.get("share") is not None:
        tracer.count("planner.feasible_leg.shared")


def _count_pad_search(tracer, args, kwargs, result):
    times = tuple(args[0] if args else kwargs["charge_times"])
    pads = args[1] if len(args) > 1 else kwargs["pads"]
    tracer.see("energy.pad_schedule.inputs", (times, pads))
    # exact comparison: an early exit in the code would test the same floats
    bound = max(max(times), sum(times) / pads) if times else 0.0
    if result.node_time <= bound:
        tracer.count("energy.pad_schedule.at_bound")


PROBES = {
    "sharing.fb_compose": _count_allocations,
    "sharing.pb_compose": _count_allocations,
    "sharing.reorder_fixed": _count_swap,
    "planner.feasible_leg": _count_leg,
    "energy.pad_schedule": _count_pad_search,
}


def install() -> Tracer:
    """Wrap the layer functions in every loaded swarmway module."""
    targets = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"swarmway.{short}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                targets[f"{short}.{name}"] = (module, name)
    tracer = Tracer()
    for short, cls, method in METHODS:
        owner = getattr(importlib.import_module(f"swarmway.{short}"), cls, None)
        if owner is None:
            tracer.notes.append(f"{short}.{cls}: not found, its metrics are absent")
        else:
            targets[f"{short}.{cls}.{method}"] = (owner, method)
    call_sites = [m for name, m in sorted(sys.modules.items())
                  if name == "swarmway" or name.startswith("swarmway.")]
    tracer.install(targets, call_sites, PROBES)
    return tracer


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics as ``name -> {"value", "unit", "n"}``.

    ``n`` is the sample count behind the value: calls for counts and self
    time, the denominator for ratios.  A ratio over zero calls reads 0.
    """
    totals = tracer.layer_totals()
    counters = tracer.counters
    out: dict[str, dict] = {}

    def put(name, value, unit, n):
        out[name] = {"value": value, "unit": unit, "n": n}

    def traced(span):
        if span in totals:
            return True
        tracer.notes.append(f"{span}: not wrapped at this commit, its metrics are absent")
        return False

    for span in CALLS_AND_SELF + CALLS_ONLY + SELF_ONLY:
        if not traced(span):
            continue
        calls = totals[span]["calls"]
        if span not in SELF_ONLY:
            put(f"{span}.calls", calls, "count", calls)
        if span not in CALLS_ONLY:
            put(f"{span}.self_ms", totals[span]["self_ms"], "ms", calls)

    broken = set(tracer.broken_probes)
    for span in sorted(broken):
        tracer.notes.append(f"{span}: probe failed ({tracer.broken_probes[span]}), "
                            "its ratios are absent")

    composers = [s for s in ("sharing.fb_compose", "sharing.pb_compose") if s in totals]
    if composers and not broken & set(composers):
        calls = sum(totals[s]["calls"] for s in composers)
        put("sharing.allocations_per_call",
            _ratio(counters.get("sharing.allocations", 0), calls), "alloc/call", calls)
    if "sharing.reorder_fixed" in totals and "sharing.reorder_fixed" not in broken:
        calls = totals["sharing.reorder_fixed"]["calls"]
        put("sharing.reorder_fixed.swap_frac",
            _ratio(counters.get("sharing.reorder_fixed.swaps", 0), calls), "ratio", calls)
    if "planner.feasible_leg" in totals and "planner.feasible_leg" not in broken:
        calls = totals["planner.feasible_leg"]["calls"]
        put("planner.feasible_leg.ok_frac",
            _ratio(counters.get("planner.feasible_leg.ok", 0), calls), "ratio", calls)
        put("planner.feasible_leg.shared_frac",
            _ratio(counters.get("planner.feasible_leg.shared", 0), calls), "ratio", calls)
    if "energy.pad_schedule" in totals and "energy.pad_schedule" not in broken:
        calls = totals["energy.pad_schedule"]["calls"]
        distinct = len(tracer.distinct.get("energy.pad_schedule.inputs", ()))
        put("energy.pad_schedule.distinct_frac", _ratio(distinct, calls), "ratio", calls)
        put("energy.pad_schedule.at_bound_frac",
            _ratio(counters.get("energy.pad_schedule.at_bound", 0), calls), "ratio", calls)
    return out
