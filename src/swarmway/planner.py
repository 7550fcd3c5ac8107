"""Route composition over the skyway network.

The main entry point, ``compose``, walks a swarm from source to
destination: it flies the remaining shortest path in one go when the
batteries allow it (with in-flight sharing if enabled), and otherwise
hops to the cheapest adjacent node, recharges everyone fully, and tries
again.  Two static routers (Dijkstra and Floyd-Warshall over fixed
per-segment costs) serve as comparison baselines; they pick their whole
path up front and succeed only if every leg happens to be flyable.

Battery feasibility is judged on an integer-minute grid: a leg fails
iff some drone's battery is negative at any whole minute or at the leg
end, with transfers credited over their allocation intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    PAD_EXHAUSTIVE_CAP,
    Drone,
    DroneSpec,
    EnergyModel,
    _first_optimum,
    consumption_rate,
    pad_candidates,
    pad_schedule,
    travel_time,
)
from .formations import (
    FORMATION_KINDS,
    WIND_SECTORS,
    CoefficientTable,
    make_formation,
    wind_sector,
)
from .network import DeliveryRequest, PathTree, SkywayNetwork, shortest_path_tree
from .preflight import POSITIONING_SETTINGS, Swarm, assign_positions, redundancy_count
from .sharing import (
    EnergyOffer,
    ShareContext,
    SharingPlan,
    SwapPlan,
    _fb_idle,
    _pb_idle,
    fb_compose,
    pb_compose,
    reorder_fixed,
)

FLOOR_TOLERANCE = 1e-9
MAX_NODE_VISITS = 2


@dataclass(frozen=True)
class ShareConfig:
    """Knobs for in-flight sharing during composition."""

    strategy: str  # "pb" or "fb"
    gamma: float = 0.8  # request threshold as a fraction of capacity
    delta_frac: float = 0.2  # provider reserve as a fraction of its capacity
    quantum: float = 2240.0  # fb per-turn grant, mAh

    def __post_init__(self):
        if self.strategy not in ("pb", "fb"):
            raise ValueError(f"unknown sharing strategy {self.strategy!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if not 0.0 <= self.delta_frac < 1.0:
            raise ValueError(f"delta_frac {self.delta_frac} outside [0, 1)")
        if not 0 < self.quantum < math.inf:
            raise ValueError(f"quantum must be finite and > 0, got {self.quantum}")


@dataclass
class LegOutcome:
    """One segment traversal: energy spent, energy moved, state after."""

    u: int
    v: int
    distance_m: float
    tt: float
    sector: str
    consumed: dict[int, float]
    batteries_before: dict[int, float]
    batteries_after: dict[int, float]
    plan: SharingPlan | None
    traces: dict[int, list[tuple[float, float]]] = field(repr=False, default_factory=dict)

    @property
    def shared(self) -> float:
        return self.plan.total_shared if self.plan else 0.0


@dataclass
class NodeVisit:
    """A recharge stop: every drone refills fully before the next leg."""

    node: int
    nt: float
    queues: tuple[tuple[int, ...], ...]


@dataclass
class DeliveryPlan:
    request_id: int
    strategy: str
    status: str  # "success", "stuck", or "unreachable"
    path: list[int]
    legs: list[LegOutcome]
    visits: list[NodeVisit]
    stuck_node: int | None = None
    static_cost: float | None = None  # static routers: their path's planned cost
    positioning: str = ""

    @property
    def tt_total(self) -> float:
        return sum(leg.tt for leg in self.legs)

    @property
    def nt_total(self) -> float:
        return sum(v.nt for v in self.visits)

    @property
    def dt(self) -> float:
        return self.tt_total + self.nt_total

    @property
    def energy_shared(self) -> float:
        return sum(leg.shared for leg in self.legs)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "strategy": self.strategy,
            "positioning": self.positioning,
            "status": self.status,
            "stuck_node": self.stuck_node,
            "path": self.path,
            "dt_min": self.dt,
            "tt_min": self.tt_total,
            "nt_min": self.nt_total,
            "energy_shared_mAh": self.energy_shared,
            "legs": [
                {
                    "u": leg.u,
                    "v": leg.v,
                    "distance_m": leg.distance_m,
                    "tt_min": leg.tt,
                    "sector": leg.sector,
                    "consumed_mAh": leg.consumed,
                    "shared_mAh": leg.shared,
                }
                for leg in self.legs
            ],
            "visits": [{"node": v.node, "nt_min": v.nt} for v in self.visits],
        }


@dataclass(frozen=True)
class _Block:
    """A support drone and the contiguous run of delivery drones it serves."""

    provider: int
    consumers: list[int]
    ids: list[int]  # provider first, then its consumers in slot order
    capacities: dict[int, float]


class _RateCache:
    """Per-sector drain rates, swap tables and pad candidates at the swarm's
    standing slots, and its provider blocks.  One lives for one compose:
    sharing it would move work between the timed regions of pb and fb."""

    def __init__(self, swarm: Swarm, model: EnergyModel):
        self.swarm = swarm
        self.model = model
        self._by_sector: dict[str, dict[int, float]] = {}
        self._swaps_by_sector: dict[str, dict[int, SwapPlan | None]] = {}
        self._candidates: dict[tuple[str, int], list] = {}
        self.blocks = _provider_blocks(swarm)

    def _rate(self, drone, slot: int, sector: str) -> float:
        return consumption_rate(self.model, drone.payload, self.swarm.formation,
                                slot, sector)

    def rates(self, sector: str) -> dict[int, float]:
        if sector not in self._by_sector:
            self._by_sector[sector] = {
                d.id: self._rate(d, d.position, sector) for d in self.swarm.drones
            }
        return self._by_sector[sector]

    def pad_candidates(self, sector: str, pads: int) -> list:
        """``energy.pad_candidates`` on the sector's rates, in swarm order."""
        key = (sector, pads)
        if key not in self._candidates:
            self._candidates[key] = pad_candidates(tuple(self.rates(sector).values()),
                                                   pads)
        return self._candidates[key]

    def swaps(self, sector: str) -> dict[int, SwapPlan | None]:
        """Each consumer's swap toward its block's provider, None if adjacent.

        Rates while swapped cover the consumer and a partner from the same
        block; a partner from another block keeps its standing rate there,
        since that block composes independently.
        """
        if sector not in self._swaps_by_sector:
            by_id = {d.id: d for d in self.swarm.drones}
            table: dict[int, SwapPlan | None] = {}
            for block in self.blocks:
                for cid in block.consumers:
                    rec = reorder_fixed(self.swarm, cid, block.provider)
                    if rec is None:
                        table[cid] = None
                        continue
                    rates = {cid: self._rate(by_id[cid], rec.partner_slot, sector)}
                    if rec.partner_id in block.consumers:
                        partner = by_id[rec.partner_id]
                        rates[partner.id] = self._rate(partner, rec.consumer_slot, sector)
                    table[cid] = ((rec.consumer_slot, rec.partner_slot), rates)
            self._swaps_by_sector[sector] = table
        return self._swaps_by_sector[sector]


def _provider_blocks(swarm: Swarm) -> list[_Block]:
    """Split delivery drones into contiguous slot blocks, one per provider.

    A swarm without support or without delivery drones has no blocks.
    """
    providers = sorted(swarm.support_drones(), key=lambda d: d.position)
    consumers = sorted(swarm.delivery_drones(), key=lambda d: d.position)
    if not providers or not consumers:
        return []
    blocks = []
    base, extra = divmod(len(consumers), len(providers))
    at = 0
    for i, provider in enumerate(providers):
        size = base + (1 if i < extra else 0)
        members = [provider] + consumers[at:at + size]
        ids = [d.id for d in members]
        blocks.append(_Block(provider.id, ids[1:], ids,
                             {d.id: d.capacity for d in members}))
        at += size
    return blocks


def check_support_spacing(table: CoefficientTable) -> None:
    """Raise ValueError when the table can shape a swarm whose support
    drones cluster, so that a provider finds no delivery drone beside it
    to swap with: every kind, every swarm size up to its slots with each
    support count ``redundancy_count`` can give, both positionings and
    every wind sector."""
    model = EnergyModel(DroneSpec(), table)
    for kind in FORMATION_KINDS:
        for size in range(2, table.max_slots(kind) + 1):
            for n in range(1, size):
                if size - n not in {redundancy_count(float(p), n) for p in range(101)}:
                    continue
                roles = ["delivery"] * n + ["support"] * (size - n)
                swarm = Swarm([Drone(i, role, 0.0, 1.0, 1.0, i)
                               for i, role in enumerate(roles)], make_formation(kind, size))
                for setting in POSITIONING_SETTINGS:
                    for sector in WIND_SECTORS:
                        assign_positions(swarm, setting, sector, model)
                        try:
                            _RateCache(swarm, model).swaps(sector)
                        except ValueError as exc:
                            raise ValueError(
                                f"{kind} formation of {n} delivery and {size - n} "
                                f"support drones, {setting}, {sector} wind: {exc}"
                            ) from None


def _grid_feasible(traces: dict[int, list[tuple[float, float]]], tt: float) -> bool:
    """True when every trace stays non-negative at whole minutes and at tt.

    A grid point g reads the trace piece (t1, b1)-(t2, b2) with
    t1 < g <= t2 (the first piece also takes every g <= its t2) as
    b1 + (b2 - b1) * (g - t1) / (t2 - t1), or b2 when t2 == t1; past the
    last point it reads the last battery.  Each step of that expression
    is monotone in g under IEEE rounding: subtract the constant t1,
    multiply by the constant b2 - b1, divide by the positive constant
    t2 - t1, add the constant b1.  So the lowest value a piece takes on
    the grid is at its first or its last grid point, and only those two
    are evaluated.
    """
    whole = math.floor(tt)  # the last whole minute on the grid
    for points in traces.values():
        lo = 0  # the first whole minute no piece has read yet
        tt_open = whole != tt  # tt is a grid point of its own, not read yet
        t1, b1 = points[0]
        for t2, b2 in points[1:]:
            # this piece reads minutes lo..hi, then tt if tt <= t2
            hi = math.floor(t2)
            if hi > whole:
                hi = whole
            if tt_open and tt <= t2:
                last, tt_open = tt, False
            elif lo <= hi:
                last = hi
            else:  # no grid point falls on this piece
                t1, b1 = t2, b2
                continue
            first = lo if lo <= hi else last
            if t2 == t1:
                if b2 < -FLOOR_TOLERANCE:
                    return False
            else:
                rise, run = b2 - b1, t2 - t1
                if (b1 + rise * (first - t1) / run < -FLOOR_TOLERANCE
                        or b1 + rise * (last - t1) / run < -FLOOR_TOLERANCE):
                    return False
            lo = hi + 1
            t1, b1 = t2, b2
        if (lo <= whole or tt_open) and points[-1][1] < -FLOOR_TOLERANCE:
            return False
    return True


def _share_block(block, before, rates, tt, share, model, swaps):
    """Compose one provider block over a leg; None if the composer would
    grant nothing, in which case the block just drains."""
    p = block.provider
    ae = max(0.0, before[p] - rates[p] * tt)
    reserve = share.delta_frac * block.capacities[p]
    if (_pb_idle(before, block.capacities, block.consumers, share.gamma)
            if share.strategy == "pb" else
            _fb_idle(before, block.capacities, block.consumers, ae, reserve)):
        return None
    ctx = ShareContext(
        batteries={i: before[i] for i in block.ids},
        capacities=block.capacities,
        rates={i: rates[i] for i in block.ids},
        consumer_ids=block.consumers,
        share_rate=model.spec.inflight_share_rate,
    )
    offer = EnergyOffer(p, ae, 0.0, tt)
    if share.strategy == "pb":
        return pb_compose(ctx, offer, (0.0, tt), share.gamma, swaps=swaps)
    return fb_compose(ctx, offer, (0.0, tt), share.quantum, reserve, swaps=swaps)


def feasible_leg(
    swarm: Swarm,
    net: SkywayNetwork,
    u: int,
    v: int,
    model: EnergyModel,
    *,
    batteries: dict[int, float] | None = None,
    share: ShareConfig | None = None,
    rate_cache: _RateCache | None = None,
) -> LegOutcome | None:
    """Traverse one segment if the batteries survive it; None otherwise.

    With sharing enabled, each support drone independently serves its
    contiguous block of delivery drones, offering whatever its battery
    holds beyond its own projected drain for the leg.  A block whose
    composer would grant nothing (and every drone when sharing is off)
    drains in closed form, exactly as the composer's trace would.
    """
    seg = net.segment(u, v)
    if seg.wind is None:
        raise ValueError(f"segment ({u}, {v}) has no wind data")
    sector = wind_sector(net.heading(u, v), seg.wind)
    tt = travel_time(seg.distance_m, model.spec.cruise_speed)
    cache = rate_cache or _RateCache(swarm, model)
    rates = cache.rates(sector)
    before = dict(batteries) if batteries is not None else {d.id: d.battery for d in swarm.drones}

    blocks = cache.blocks if share is not None else []
    plan = SharingPlan() if blocks else None
    swaps = cache.swaps(sector) if blocks else None
    after, consumed, traces = {}, {}, {}
    for block in blocks or [None]:
        result = None
        if block is not None:
            plan.provider_given[block.provider] = 0.0
            plan.consumer_gained.update(dict.fromkeys(block.consumers, 0.0))
            result = _share_block(block, before, rates, tt, share, model, swaps)
        if result is None:
            for i in block.ids if block else rates:  # rates: every drone, in order
                spent = rates[i] * tt
                consumed[i] = spent
                after[i] = left = before[i] - spent
                traces[i] = [(0.0, before[i]), (tt, left)]
            continue
        after.update(result.batteries_after)
        consumed.update(result.consumed)
        traces.update(result.traces)
        plan.allocations.extend(result.plan.allocations)
        plan.swaps.extend(result.plan.swaps)
        plan.provider_given.update(result.plan.provider_given)
        plan.consumer_gained.update(result.plan.consumer_gained)

    if not _grid_feasible(traces, tt):
        return None
    return LegOutcome(u, v, seg.distance_m, tt, sector, consumed, before, after,
                      plan, traces)


def _fly_through(swarm, net, path, model, batteries, share, cache):
    """Fly consecutive segments without stopping; None if any leg fails."""
    legs = []
    state = dict(batteries)
    for a, b in zip(path, path[1:]):
        leg = feasible_leg(swarm, net, a, b, model, batteries=state,
                           share=share, rate_cache=cache)
        if leg is None:
            return None
        legs.append(leg)
        state = leg.batteries_after
    return legs


def _full_recharge(swarm, leg, node, model, cache):
    """Pad schedule for topping everyone up at this node's pads.

    After a leg that started full, the sector's pad candidates hold
    pad_schedule's optimum (see static_edge_costs); other stops search.
    """
    drains = [d.capacity - leg.batteries_after[d.id] for d in swarm.drones]
    times = [drain / model.spec.pad_charge_rate for drain in drains]
    if len(times) <= PAD_EXHAUSTIVE_CAP and all(
            leg.batteries_before[d.id] == d.capacity and drain >= d.capacity * 1e-6
            for d, drain in zip(swarm.drones, drains)):
        return NodeVisit(node.id, *_first_optimum(
            cache.pad_candidates(leg.sector, node.pads), times))
    sched = pad_schedule(times, node.pads)
    return NodeVisit(node.id, sched.node_time, sched.queues)


def compose(
    swarm: Swarm,
    net: SkywayNetwork,
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    share: ShareConfig | None = None,
    tree: PathTree | None = None,
) -> DeliveryPlan:
    """Walk the swarm toward the destination, recharging only when forced.

    Each round first tries to fly the remaining shortest path outright,
    then the same with in-flight sharing, and finally falls back to the
    feasible neighbor stop minimizing travel plus recharge time (ties to
    the smaller node id; arriving at the destination costs no recharge).
    A node accepts at most two visits per plan; running out of moves
    strands the plan as "stuck".
    """
    strategy = share.strategy if share else "baseline"
    if tree is None or tree.root != request.destination:
        tree = shortest_path_tree(net, request.destination)
    plan = DeliveryPlan(request.id, strategy, "stuck", [request.source], [], [])
    if tree.distance(request.source) == math.inf:
        plan.status = "unreachable"
        return plan
    cache = _RateCache(swarm, model)
    batteries = {d.id: d.battery for d in swarm.drones}
    current = request.source
    visit_count = {current: 1}

    while current != request.destination:
        remaining = tree.path_to_root(current)
        legs = _fly_through(swarm, net, remaining, model, batteries, None, cache)
        if legs is None and share is not None:
            legs = _fly_through(swarm, net, remaining, model, batteries, share, cache)
        if legs is not None:
            plan.legs.extend(legs)
            plan.path.extend(remaining[1:])
            current = request.destination
            break

        best = None
        for nb in net.neighbors(current):
            if visit_count.get(nb, 0) >= MAX_NODE_VISITS:
                continue
            if nb != request.destination and net.nodes[nb].pads < 1:
                continue
            leg = feasible_leg(swarm, net, current, nb, model, batteries=batteries,
                               share=share, rate_cache=cache)
            if leg is None:
                continue
            if nb == request.destination:
                visit, nt = None, 0.0
            else:
                visit = _full_recharge(swarm, leg, net.nodes[nb], model, cache)
                nt = visit.nt
            cost = leg.tt + nt
            if best is None or cost < best[0]:
                best = (cost, nb, leg, visit)
        if best is None:
            plan.stuck_node = current
            return plan

        _, nb, leg, visit = best
        plan.legs.append(leg)
        plan.path.append(nb)
        visit_count[nb] = visit_count.get(nb, 0) + 1
        if visit is not None:
            plan.visits.append(visit)
            batteries = {d.id: d.capacity for d in swarm.drones}
        else:
            batteries = leg.batteries_after
        current = nb

    plan.status = "success"
    return plan


def static_edge_costs(swarm: Swarm, net: SkywayNetwork, model: EnergyModel):
    """Directed cost tt + restore-time makespan at the head node.

    The restore time assumes the leg started on full batteries, which is
    how the static routers then simulate their chosen path.
    """
    cache = _RateCache(swarm, model)
    n = len(swarm.drones)
    # Drone d's restore time on an edge is rate_d(sector) * tt / pad rate,
    # so within one (sector, pad count) every edge scales the same rate
    # vector and one search over it serves them all.  pad_schedule's
    # node_time is the float minimum of the makespan over all assignments,
    # whatever its tie-break.  An assignment's float makespan on an edge's
    # times lies within (n+2)*2**-53 relative of tt / pad rate times its
    # real makespan on the rates, and its float makespan on the rates
    # within (n-1)*2**-53 of that real makespan.  So an assignment more
    # than 1e-9 relative above the optimum on the rates never gives the
    # minimum on an edge, and the minimum over the kept candidates is
    # node_time, bit for bit.  With a pad per drone that minimum is
    # max(times); above the exhaustive cap pad_schedule still decides.
    # A recharge stop after a leg that started full has times
    # (cap - (cap - s)) / pad rate with s = rate * tt.  The subtraction
    # cap - s rounds by at most half an ulp of cap, so each time carries a
    # relative error of at most cap/s * 2**-53 more; with s >= cap * 1e-6
    # that is below 1.2e-10, and the 1e-9 band still holds every optimum.
    pad_rate = model.spec.pad_charge_rate
    costs: dict[tuple[int, int], float] = {}
    for seg in net.segments:
        if seg.wind is None:
            raise ValueError(f"segment ({seg.u}, {seg.v}) has no wind data")
        tt = travel_time(seg.distance_m, model.spec.cruise_speed)
        for a, b in ((seg.u, seg.v), (seg.v, seg.u)):
            head = net.nodes[b]
            if head.pads < 1:
                costs[(a, b)] = math.inf
                continue
            sector = wind_sector(net.heading(a, b), seg.wind)
            times = [rate * tt / pad_rate for rate in cache.rates(sector).values()]
            if n > PAD_EXHAUSTIVE_CAP:
                node_time = pad_schedule(times, head.pads).node_time
            elif head.pads >= n:
                node_time = max(times)
            else:
                node_time, _ = _first_optimum(cache.pad_candidates(sector, head.pads),
                                              times)
            costs[(a, b)] = tt + node_time
    return costs


def static_dijkstra(net: SkywayNetwork, costs, source: int) -> PathTree:
    """Single-source shortest static costs; ties keep the first-found parent."""
    return shortest_path_tree(net, source, costs)


def floyd_warshall_tables(net: SkywayNetwork, costs):
    """All-pairs static costs and successor table, vectorized over nodes.

    Pivot ``k`` relaxes only the rows that reach ``k`` and the columns
    that ``k`` reaches; the tables equal the textbook triple loop's.
    """
    ids = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    nxt = np.full((n, n), -1, dtype=np.int64)
    nxt[np.diag_indices(n)] = np.arange(n)
    for (a, b), w in costs.items():
        if w < dist[index[a], index[b]]:
            dist[index[a], index[b]] = w
            nxt[index[a], index[b]] = index[b]
    cand = np.empty((n, n))
    mask = np.empty((n, n), dtype=bool)
    for k in range(n):
        # A cell whose row cannot reach k, or whose column k cannot reach,
        # has candidate inf (or nan), which never passes the strict <, so
        # skipping it changes nothing.  Column k does not change during
        # pivot k, so nxt[:, k] can be read while the pivot writes.
        # Below half the rows, gather that block and scatter what improves;
        # above it, the dense in-place pass is cheaper.
        rows = np.flatnonzero(dist[:, k] < np.inf)
        if 2 * len(rows) < n:
            cols = np.flatnonzero(dist[k] < np.inf)
            sub = dist[rows, k, None] + dist[k, cols]
            r, c = np.nonzero(sub < dist[np.ix_(rows, cols)])
            i, j = rows[r], cols[c]
            dist[i, j] = sub[r, c]
            nxt[i, j] = nxt[i, k]
        else:
            np.add(dist[:, k, None], dist[None, k, :], out=cand)
            np.less(cand, dist, out=mask)
            np.copyto(dist, cand, where=mask)
            np.copyto(nxt, nxt[:, k, None], where=mask)
    return ids, dist, nxt


def _simulate_static_path(swarm, net, path, model, request_id, strategy, static_cost):
    """Fly a fixed path with full recharges at the intermediate stops."""
    plan = DeliveryPlan(request_id, strategy, "stuck", list(path), [], [],
                        static_cost=static_cost)
    cache = _RateCache(swarm, model)
    batteries = {d.id: d.battery for d in swarm.drones}
    for i, (a, b) in enumerate(zip(path, path[1:])):
        leg = feasible_leg(swarm, net, a, b, model, batteries=batteries,
                           rate_cache=cache)
        if leg is None:
            plan.stuck_node = a
            plan.path = list(path[: i + 1])
            return plan
        plan.legs.append(leg)
        if b != path[-1]:
            visit = _full_recharge(swarm, leg, net.nodes[b], model, cache)
            plan.visits.append(visit)
            batteries = {d.id: d.capacity for d in swarm.drones}
        else:
            batteries = leg.batteries_after
    plan.status = "success"
    return plan


def dijkstra_baseline(
    swarm: Swarm,
    net: SkywayNetwork,
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    costs=None,
) -> DeliveryPlan:
    """Route on static costs with Dijkstra, then fly that path as-is."""
    if costs is None:
        costs = static_edge_costs(swarm, net, model)
    tree = static_dijkstra(net, costs, request.source)
    if request.destination not in tree.dist:
        return DeliveryPlan(request.id, "dijkstra", "unreachable",
                            [request.source], [], [])
    path = tree.path_to_root(request.destination)[::-1]
    return _simulate_static_path(swarm, net, path, model, request.id, "dijkstra",
                                 tree.dist[request.destination])


def floyd_warshall_baseline(
    swarm: Swarm,
    net: SkywayNetwork,
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    costs=None,
) -> DeliveryPlan:
    """Route on static costs with Floyd-Warshall, then fly that path as-is."""
    if costs is None:
        costs = static_edge_costs(swarm, net, model)
    ids, dist, nxt = floyd_warshall_tables(net, costs)
    index = {nid: i for i, nid in enumerate(ids)}
    si, di = index[request.source], index[request.destination]
    if not np.isfinite(dist[si, di]):
        return DeliveryPlan(request.id, "floyd", "unreachable",
                            [request.source], [], [])
    path = [request.source]
    at = si
    while at != di:
        at = int(nxt[at, di])
        path.append(ids[at])
    return _simulate_static_path(swarm, net, path, model, request.id, "floyd",
                                 float(dist[si, di]))
