"""In-memory span tracer that wraps a program's public functions from outside.

``Tracer.install`` replaces each public function of the target modules with
a wrapper that records one span per call: name, start, end, parent span
and request id.  ``from .x import y`` copies the binding into the calling
module, so every module namespace that holds the original object gets the
wrapper, not only the defining one.  Probes read a call's arguments and
result to count outcomes (swaps made, legs flown, ...) where the work
happens.  Spans stay in memory until ``save``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

NO_PARENT = -1
NO_REQUEST = -1


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children may overlap each other or spill past their parent; the
    covered part is the union of the children's intervals clipped to the
    parent's.
    """
    n = len(starts)
    covered = [0.0] * n
    reach: dict[int, float] = {}  # parent -> end of the union swept so far
    for i in sorted(range(n), key=lambda k: starts[k]):
        p = parents[i]
        if p == NO_PARENT:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.request_ids = array("q")
        self._stack: list[int] = []
        self._request_stack: list[int] = [NO_REQUEST]
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.broken_probes: dict[str, str] = {}  # span name -> first probe error
        self.notes: list[str] = []

    # -- installation --------------------------------------------------

    def install(self, targets, call_sites, probes=None) -> None:
        """Wrap ``targets`` and rebind them in every module of ``call_sites``.

        ``targets`` maps a span name ("planner.feasible_leg",
        "formations.Formation.neighbors") to its (owner, attribute) pair,
        where the owner is a module or a class.  ``probes`` maps a span
        name to ``probe(tracer, args, kwargs, result)``.
        """
        probes = probes or {}
        for span_name, (owner, attr) in targets.items():
            original = inspect.getattr_static(owner, attr, None)
            if not inspect.isfunction(original):
                self.notes.append(f"{span_name}: not found, its metrics are absent")
                continue
            wrapper = self.wrap(span_name, original, probes.get(span_name))
            setattr(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for module in call_sites:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def wrap(self, span_name, fn, probe=None):
        """``fn`` recording one span per call, and calling ``probe`` after it."""
        name_id = len(self.names)
        self.names.append(span_name)
        params = list(inspect.signature(fn).parameters)
        request_pos = params.index("request") if "request" in params else None
        stack, request_stack = self._stack, self._request_stack
        name_of, starts, ends = self.name_of, self.starts, self.ends
        parents, request_ids = self.parents, self.request_ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request_id = request_stack[-1]
            if request_pos is not None:
                req = args[request_pos] if len(args) > request_pos else kwargs.get("request")
                request_id = getattr(req, "id", request_id)
            idx = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else NO_PARENT)
            request_ids.append(request_id)
            ends.append(0.0)
            stack.append(idx)
            request_stack.append(request_id)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                request_stack.pop()
            if probe is not None and span_name not in self.broken_probes:
                try:
                    probe(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # the program changed shape; its ratios go, the run goes on
                    self.broken_probes[span_name] = repr(exc)
            return result

        return wrapper

    # -- probe helpers -------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def see(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    # -- results -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time in ms."""
        own = self_times(self.starts, self.ends, self.parents)
        totals = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for name_id, t in zip(self.name_of, own):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["self_ms"] += t * 1000.0
        return totals

    def save(self, path) -> None:
        """Write every span (compressed numpy arrays plus the name table)."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request_id=np.frombuffer(self.request_ids, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )
