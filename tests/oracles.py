"""Independent reference implementations the tests compare against.

Everything here is deliberately brute force and structured differently
from the library code (closed-form battery evaluation instead of
incremental state, raw enumeration instead of pruned search), so that
agreement between the two is meaningful.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right


def brute_shortest(net, a: int, b: int) -> float:
    """Minimal a->b distance by enumerating every simple path."""
    if a == b:
        return 0.0
    best = math.inf

    def walk(node, seen, total):
        nonlocal best
        if total >= best:
            return
        for nb in net.neighbors(node):
            if nb == b:
                best = min(best, total + net.segment(node, nb).distance_m)
            elif nb not in seen:
                walk(nb, seen | {nb}, total + net.segment(node, nb).distance_m)

    walk(a, {a}, 0.0)
    return best


def static_dijkstra_reference(net, costs, source: int):
    """Single-source shortest static costs; ties keep the first-found parent.

    The static router's own Dijkstra before it was folded into
    ``shortest_path_tree``, kept as written: ``(dist, parent)`` dicts.
    """
    dist = {source: 0.0}
    parent: dict[int, int | None] = {source: None}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        for nb in net.neighbors(cur):
            w = costs[(cur, nb)]
            if w == math.inf:
                continue
            nd = d + w
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                parent[nb] = cur
                heapq.heappush(heap, (nd, nb))
    return dist, parent


def diameter_every_root(net) -> float:
    """Largest finite shortest-path distance, from a Dijkstra at every node.

    ``preflight.network_diameter`` as it was before it pruned roots by
    eccentricity bounds, kept as written.
    """
    from swarmway.network import shortest_path_tree

    best = 0.0
    for nid in sorted(net.nodes):
        tree = shortest_path_tree(net, nid)
        best = max(best, max(tree.dist.values()))
    return best


def largest_component_as_written(net):
    """``largest_connected_component`` as it was before it found each
    component through ``shortest_path_tree``, kept as written: a depth-first
    walk over the adjacency index from each unseen node in id order, the
    strict > keeping the component of the smallest id on size ties."""
    from swarmway.network import SkywayNetwork

    if not net.nodes:
        raise ValueError("empty network has no components")
    seen: set[int] = set()
    best: set[int] = set()
    for start in sorted(net.nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nb in net._adj[cur]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        if len(comp) > len(best):
            best = comp
    nodes = [net.nodes[nid] for nid in sorted(best)]
    segs = [s for s in net.segments if s.u in best and s.v in best]
    return SkywayNetwork(nodes, segs)


def nearest_links_full_sort(nodes) -> set[tuple[int, int]]:
    """Each node's links to its 3 nearest others within 6 km, ties by id.

    ``synthesize_network``'s link step as it was before it looked only at
    the grid cells around each node, kept as written: a sort of all n - 1
    other nodes per node.
    """

    def dist(a, b) -> float:
        return math.hypot(a.x - b.x, a.y - b.y)

    pairs: set[tuple[int, int]] = set()
    for node in nodes:
        ranked = sorted(
            (other for other in nodes if other.id != node.id),
            key=lambda o: (dist(node, o), o.id),
        )
        taken = 0
        for other in ranked:
            if taken >= 3 or dist(node, other) > 6000.0:
                break
            pairs.add((min(node.id, other.id), max(node.id, other.id)))
            taken += 1
    return pairs


def nearest_links_grid_as_written(nodes, reach: float, k: int) -> set[tuple[int, int]]:
    """Pairs joining each node to its ``k`` nearest others within ``reach``,
    nearest first and ties to the smaller id, found through a grid of cells.

    ``synthesize_network``'s link step as it was before the ring search,
    kept as written: it measures every node in the 3x3 block of cells a
    hair wider than ``reach`` around each node, so it is exact but grows as
    n**2 in a fixed square.  Faster than ``nearest_links_full_sort`` for
    whole worlds.

    A cell is a hair wider than ``reach``, so a node two cells away is more
    than ``reach`` off along one axis even after rounding in the subtraction
    and the division, and ``hypot(dx, dy)`` is never below ``max(|dx|, |dy|)``.
    """
    cell = reach * (1 + 1e-9)
    grid: dict = {}
    for node in nodes:
        grid.setdefault((int(node.x // cell), int(node.y // cell)), []).append(node)
    pairs: set[tuple[int, int]] = set()
    for node in nodes:
        gx, gy = int(node.x // cell), int(node.y // cell)
        near = []
        for cx in (gx - 1, gx, gx + 1):
            for cy in (gy - 1, gy, gy + 1):
                for other in grid.get((cx, cy), ()):
                    d = math.hypot(node.x - other.x, node.y - other.y)
                    if d <= reach and other.id != node.id:
                        near.append((d, other.id))
        for _, oid in heapq.nsmallest(k, near):
            pairs.add((min(node.id, oid), max(node.id, oid)))
    return pairs


def brute_pad_makespan(times, pads: int) -> float:
    """Minimal makespan over every pad assignment (tiny inputs only)."""
    if not times:
        return 0.0
    best = math.inf
    for assign in itertools.product(range(pads), repeat=len(times)):
        loads = [0.0] * pads
        for i, p in enumerate(assign):
            loads[p] += times[i]
        best = min(best, max(loads))
    return best


def _canonical_assignments(n: int, pads: int):
    """Every pad assignment with labels in first-use order, lexicographically."""
    if n == 0:
        yield ()
        return
    for head in _canonical_assignments(n - 1, pads):
        used = max(head, default=-1) + 1
        for pad in range(min(used + 1, pads)):
            yield head + (pad,)


def _float_makespan(times, assign, pads: int) -> float:
    """Largest pad load, each pad summing its times in input order."""
    loads = [0.0] * pads
    for i, p in enumerate(assign):
        loads[p] += times[i]
    return max(loads)


def _as_queues(assign, pads: int):
    return tuple(tuple(i for i, p in enumerate(assign) if p == q) for q in range(pads))


def brute_pad_assignment(times, pads: int):
    """(makespan, queues) of the lexicographically smallest canonical
    assignment whose float makespan is the least of all (tiny inputs only)."""
    best = None
    for assign in _canonical_assignments(len(times), pads):
        span = _float_makespan(times, assign, pads)
        if best is None or span < best[0]:
            best = (span, assign)
    return best[0], _as_queues(best[1], pads)


def near_optimal_queues_reference(times, pads: int):
    """Queues of every canonical assignment within a relative 1e-9 of the
    optimum, lexicographically, by a branch and bound with no wasted-room cut.

    Its limit starts at 1 + 1e-9 times the LPT makespan and drops to
    1 + 1e-9 times the best makespan found; only a partial makespan above
    the limit cuts a branch.
    """
    n = len(times)
    band = 1.0 + 1e-9
    assign = [0] * n
    loads = [0.0] * pads
    for i in sorted(range(n), key=lambda k: (-times[k], k)):
        pad = min(range(pads), key=lambda p: (loads[p], p))
        assign[i] = pad
        loads[pad] += times[i]
    limit = _float_makespan(times, assign, pads) * band
    loads = [0.0] * pads
    found = []

    def recurse(i, used, cur_max):
        nonlocal limit
        if cur_max > limit:
            return
        if i == n:
            found.append((cur_max, tuple(assign)))
            limit = min(limit, cur_max * band)
            return
        for pad in range(min(used + 1, pads)):
            assign[i] = pad
            prev = loads[pad]
            loads[pad] = prev + times[i]
            recurse(i + 1, max(used, pad + 1), max(cur_max, loads[pad]))
            loads[pad] = prev

    recurse(0, 0, 0.0)
    best = min(span for span, _ in found)
    return [_as_queues(a, pads) for span, a in found if span <= best * band]


def lpt_assignment_as_written(times: tuple[float, ...], pads: int) -> tuple[int, ...]:
    """``energy._greedy_assignment`` as it was, with its two lambdas."""
    loads = [0.0] * pads
    assign = [0] * len(times)
    for i in sorted(range(len(times)), key=lambda k: (-times[k], k)):
        pad = min(range(pads), key=lambda p: (loads[p], p))
        assign[i] = pad
        loads[pad] += times[i]
    return tuple(assign)


def pad_candidates_as_written(times, pads: int):
    """``energy.pad_candidates`` before its LPT order, its table of least
    sums and its branch loop were trimmed for speed, kept as written but
    for ``_as_queues`` in place of ``energy._queues``, which agree.

    Both searches cut the same branches, so their nested ``recurse`` runs
    are counted against each other as well as their answers compared.
    """
    n = len(times)
    if pads == 1 or not n:
        return [_as_queues((0,) * n, pads)]
    band = 1.0 + 1e-9
    lpt = [0.0] * pads  # the LPT loads, summed in input order as _makespan does
    for t, pad in zip(times, lpt_assignment_as_written(times, pads)):
        lpt[pad] += t
    limit = max(lpt) * band
    rest = [0.0] * (n + 1)  # rest[i]: total of times[i:]
    low = [math.inf] * (n + 1)  # low[i]: smallest of times[i:]
    # least[i][k - 1]: the k smallest of times[i:] summed, shrunk by 1 - 1e-12
    least = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        rest[i] = times[i] + rest[i + 1]
        low[i] = min(times[i], low[i + 1])
        total = 0.0
        for t in sorted(times[i:]):
            total += t
            least[i].append(total * (1.0 - 1e-12))
    assign = [0] * n
    loads = [0.0] * pads
    found = []

    def recurse(i: int, used: int, cur_max: float):
        nonlocal limit
        room = limit * (1.0 + 1e-12)
        spare = 0.0
        fits = 0
        for load in loads:
            if room - load >= low[i]:
                spare += room - load
                fits += bisect_right(least[i], room - load)
        if spare < rest[i] or fits < n - i:
            return
        for pad in range(min(used + 1, pads)):
            # save/restore instead of -=: float subtraction would not
            # exactly undo the addition and the drift corrupts pruning
            prev = loads[pad]
            load = prev + times[i]
            top = max(cur_max, load)
            if top > limit:
                continue
            assign[i] = pad
            if i + 1 == n:
                found.append((top, tuple(assign)))
                limit = min(limit, top * band)
                continue
            loads[pad] = load
            recurse(i + 1, max(used, pad + 1), top)
            loads[pad] = prev

    recurse(0, 0, 0.0)
    best = min(node_time for node_time, _ in found)
    return [_as_queues(assign, pads) for node_time, assign in found
            if node_time <= best * band]


class BatteryLedger:
    """Closed-form battery evaluation from a transfer record.

    Transfers are blended linearly across their interval, matching the
    piecewise-linear trace semantics of the composers.
    """

    def __init__(self, batteries, rates, t0=0.0):
        self.b0 = dict(batteries)
        self.rates = dict(rates)
        self.t0 = t0
        self.transfers = []  # (drone, start, end, signed amount)

    def record(self, consumer, provider, start, end, amount):
        self.transfers.append((consumer, start, end, amount))
        self.transfers.append((provider, start, end, -amount))

    def battery(self, drone, t):
        v = self.b0[drone] - self.rates.get(drone, 0.0) * (t - self.t0)
        for who, s, e, a in self.transfers:
            if who != drone:
                continue
            if t >= e:
                v += a
            elif t > s:
                v += a * (t - s) / (e - s)
        return v


def pb_oracle(batteries, capacities, rates, consumer_ids, provider_id,
              ae, share_rate, window, gamma):
    """Priority service replay: earliest start, then largest ask, served
    whole, one at a time, re-polling the fleet after each allocation."""
    w0, w1 = window
    ledger = BatteryLedger(batteries, rates, w0)
    pending = []  # [start, amount, consumer, seq]
    seq = 0

    def refile(now):
        nonlocal seq
        open_ids = {p[2] for p in pending}
        for c in sorted(consumer_ids):
            if c in open_ids:
                continue
            b = ledger.battery(c, now)
            # a refill under a millionth of capacity is not filed
            if b < gamma * capacities[c] and capacities[c] - b >= capacities[c] * 1e-6:
                pending.append([now, capacities[c] - b, c, seq])
                seq += 1

    refile(w0)
    free = w0
    remaining = ae
    while True:
        pending.sort(key=lambda p: (p[0], -p[1], p[3]))
        pick = None
        for p in pending:
            # requests filed here always close at the window end, so the
            # only timing gate is starting before w1
            if max(p[0], free) < w1 and p[1] <= remaining:
                pick = p
                break
        if pick is None:
            break
        pending.remove(pick)
        start = max(pick[0], free)
        end = start + pick[1] / share_rate
        amount = pick[1]
        if end > w1:
            end = w1
            amount = share_rate * (end - start)
        ledger.record(pick[2], provider_id, start, end, amount)
        remaining -= amount
        free = end
        refile(end)
    final = {i: ledger.battery(i, w1) for i in batteries}
    return final, ae - remaining


def fb_oracle(batteries, capacities, rates, consumer_ids, provider_id,
              ae, share_rate, window, quantum, reserve):
    """Round-robin replay: fixed quantum by ascending id, full drones
    free, a turn may begin while time and non-reserve energy remain."""
    w0, w1 = window
    ledger = BatteryLedger(batteries, rates, w0)
    turn = quantum / share_rate
    ct = w0
    remaining = ae
    while ct < w1 and remaining > reserve:
        granted = False
        for c in sorted(consumer_ids):
            if ct >= w1 or remaining <= reserve:
                break
            room = capacities[c] - ledger.battery(c, ct)
            if room <= 0:
                continue
            amount = min(quantum, room, remaining)
            start = ct
            end = min(ct + turn, w1)
            ct = ct + turn
            ledger.record(c, provider_id, start, end, amount)
            remaining -= amount
            granted = True
        if not granted:
            break
    final = {i: ledger.battery(i, w1) for i in batteries}
    return final, ae - remaining


def leg_grid_feasible(batteries, rates, allocations, tt, tol=1e-9) -> bool:
    """Whole-minute battery floor check from first principles.

    ``allocations`` carry (provider, consumer, start, duration, amount);
    rates must be constant over the leg, so instances with mid-leg slot
    swaps are out of scope here.
    """
    ledger = BatteryLedger(batteries, rates, 0.0)
    for a in allocations:
        ledger.record(a.consumer, a.provider, a.start, a.start + a.duration,
                      a.amount)
    grid = [float(m) for m in range(int(math.floor(tt)) + 1)]
    if grid[-1] != tt:
        grid.append(tt)
    for drone in batteries:
        for t in grid:
            if ledger.battery(drone, t) < -tol:
                return False
    return True


def grid_scan_feasible(traces, tt, tol=1e-9) -> bool:
    """The per-minute floor check on piecewise-linear traces, point by point.

    Every whole minute up to tt, and tt itself, reads the trace piece
    (t1, b1)-(t2, b2) with t1 < t <= t2 (the first piece also takes every
    t <= its t2), or the last battery past the last point.
    """
    grid = [float(m) for m in range(int(math.floor(tt)) + 1)]
    if grid[-1] != tt:
        grid.append(tt)
    for points in traces.values():
        idx = 0
        for t in grid:
            while idx + 1 < len(points) and points[idx + 1][0] < t:
                idx += 1
            t1, b1 = points[idx]
            if idx + 1 < len(points):
                t2, b2 = points[idx + 1]
                value = b2 if t2 == t1 else b1 + (b2 - b1) * (t - t1) / (t2 - t1)
            else:
                value = b1
            if value < -tol:
                return False
    return True


def walk_every_round(swarm, net, request, model, *, share=None, tree=None):
    """``planner.compose`` with no memory across rounds: every round flies
    the rest of the path, plain and then shared, and probes every neighbor
    again, even at a node it has planned from before.

    The walker's round loop before it kept each node's stops, as written.
    """
    from swarmway import planner
    from swarmway.network import shortest_path_tree

    strategy = share.strategy if share else "baseline"
    if tree is None or tree.root != request.destination:
        tree = shortest_path_tree(net, request.destination)
    plan = planner.DeliveryPlan(request.id, strategy, "stuck", request.source, [], [])
    if tree.distance(request.source) == math.inf:
        plan.status = "unreachable"
        return plan
    cache = planner._RateCache(swarm, model)
    batteries = {d.id: d.capacity for d in swarm.drones}
    current = request.source
    visit_count = {current: 1}

    while current != request.destination:
        remaining = tree.path_to_root(current)
        legs = planner._flight(net, remaining, model, batteries, None, cache)
        if legs is None and share is not None and not planner._sharing_cannot_save(
                net, remaining, model, batteries, share, cache):
            legs = planner._flight(net, remaining, model, batteries, share, cache)
        if legs is not None:
            plan.legs.extend(legs)
            current = request.destination
            break

        best = None
        for nb in net.neighbors(current):
            if visit_count.get(nb, 0) >= planner.MAX_NODE_VISITS:
                continue
            if nb != request.destination and net.nodes[nb].pads < 1:
                continue
            legs = planner._flight(net, [current, nb], model, batteries, share, cache)
            if legs is None:
                continue
            [leg] = legs
            if nb == request.destination:
                visit, nt = None, 0.0
            else:
                after = leg.batteries_after
                drains = [d.capacity - after[d.id] for d in swarm.drones]
                visit = full_recharge_as_written(swarm, net.nodes[nb], leg.sector, drains,
                                                 model, cache)
                nt = visit.nt
            cost = leg.tt + nt
            if best is None or cost < best[0]:
                best = (cost, nb, leg, visit)
        if best is None:
            return plan

        _, nb, leg, visit = best
        plan.legs.append(leg)
        visit_count[nb] = visit_count.get(nb, 0) + 1
        if visit is not None:
            plan.visits.append(visit)
            batteries = {d.id: d.capacity for d in swarm.drones}
        else:
            batteries = leg.batteries_after
        current = nb

    plan.status = "success"
    return plan


def best_walk(swarm, net, request, model, *, share=None, tree=None):
    """The best plan the walker's own moves make: Dijkstra over nodes on
    ``planner._moves``, where ``compose`` takes the cheapest next move.

    Every move starts on full batteries, so a node is the whole state, and
    move costs are >= 0, so a settled node is never worth revisiting: the
    settled set is ``_moves``' closed set, and no visit cap is needed.
    Heap ties go by (cost, node id), and a node keeps the first move that
    reaches it at its least cost.  The plan is rebuilt as ``compose``
    builds one: a fly-through's legs, or the leg of each stop taken and
    its visit.  A request the moves cannot deliver is "stuck" with no
    legs.
    """
    from swarmway import planner
    from swarmway.network import shortest_path_tree

    strategy = share.strategy if share else "baseline"
    if tree is None or tree.root != request.destination:
        tree = shortest_path_tree(net, request.destination)
    plan = planner.DeliveryPlan(request.id, strategy, "stuck", request.source, [], [])
    if tree.distance(request.source) == math.inf:
        plan.status = "unreachable"
        return plan
    cache = planner._RateCache(swarm, model)
    full = {d.id: d.capacity for d in swarm.drones}
    cost = {request.source: 0.0}
    came = {}  # node -> (node before it, the step taken)
    settled = set()
    heap = [(0.0, request.source)]
    while heap:
        at, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == request.destination:
            break
        for move_cost, nb, step in planner._moves(net, node, request.destination, tree,
                                                  model, share, cache, full, settled):
            if nb not in cost or at + move_cost < cost[nb]:
                cost[nb] = at + move_cost
                came[nb] = (node, step)
                heapq.heappush(heap, (at + move_cost, nb))
    if request.destination not in settled:
        return plan

    hops = []
    node = request.destination
    while node != request.source:
        hops.append((came[node][0], node, came[node][1]))
        node = came[node][0]
    for u, v, step in reversed(hops):
        if isinstance(step, list):
            plan.legs.extend(step)
            continue
        plan.legs += planner._flight(net, [u, v], model, full, share, cache)
        if step is not None:
            plan.visits.append(step)
    plan.status = "success"
    return plan


def feasible_leg_as_written(swarm, net, u, v, model, *, batteries=None, share=None,
                            rate_cache=None):
    """``planner.feasible_leg`` before it judged each provider block as it
    was built, as written: every block is built, then one grid check reads
    every trace."""
    from swarmway.planner import (
        LegOutcome,
        SharingPlan,
        _grid_feasible,
        _RateCache,
        _share_block,
    )

    cache = rate_cache or _RateCache(swarm, model)
    seg, sector, tt = cache.leg(net, u, v)
    rates = cache.rates(sector)
    before = dict(batteries) if batteries is not None else {d.id: d.capacity for d in swarm.drones}

    blocks = cache.blocks if share is not None else []
    plan = SharingPlan() if blocks else None
    swaps = cache.swaps(sector) if blocks else None
    consumed, traces = {}, {}
    for block in blocks or [None]:
        result = None
        if block is not None:
            result = _share_block(block, before, rates, tt, share, model, swaps)
        if result is None:
            for i in block.ids if block else rates:  # rates: every drone, in order
                spent = rates[i] * tt
                consumed[i] = spent
                traces[i] = [(0.0, before[i]), (tt, before[i] - spent)]
            continue
        consumed.update(result.consumed)
        traces.update(result.traces)
        plan.allocations.extend(result.plan.allocations)
        plan.swaps.extend(result.plan.swaps)

    if not _grid_feasible(traces, tt):
        return None
    return LegOutcome(u, v, seg.distance_m, tt, sector, consumed, plan, traces)


def sharing_cannot_save_as_written(net, path, model, batteries, share, cache) -> bool:
    """``planner._sharing_cannot_save`` before it kept needs in lists and
    skipped the supply arithmetic on legs without a deficit, as written."""
    from swarmway.planner import FLOOR_TOLERANCE, LEAST_FILING, _pool

    legs = []
    for a, b in zip(path, path[1:]):
        _, sector, tt = cache.leg(net, a, b)
        try:
            least = cache.least_rates(sector)
        except ValueError:
            break
        legs.append((tt, least, cache.rates(sector)))
    if not legs:
        return False
    share_rate = model.spec.inflight_share_rate
    fb = share.strategy == "fb"
    turn = share.quantum / share_rate
    tt1, _, rates1 = legs[0]
    for block in cache.blocks:
        if not block.consumers:
            continue
        least_transfer = LEAST_FILING * min(block.capacities[c] for c in block.consumers)
        if not fb and least_transfer == 0:
            continue  # zero capacities bound no transfer count
        p, n = block.provider, len(block.consumers)
        reserve = share.delta_frac * block.capacities[p]
        pool = _pool(batteries[p], rates1[p] * tt1, reserve, share)
        top = {c: max(block.capacities[c], batteries[c]) for c in block.consumers}
        held = sum(abs(batteries[i]) for i in block.ids) + sum(top.values())
        need = dict.fromkeys(block.consumers, 0.0)
        elapsed = drained = 0.0
        for k, (tt, least, rates) in enumerate(legs, 1):
            elapsed += tt
            drained += rates[p] * tt
            deficit = 0.0
            for c in block.consumers:
                need[c] += least[c] * tt
                if need[c] > batteries[c]:
                    deficit += need[c] - batteries[c]
            spare = batteries[p] - drained + FLOOR_TOLERANCE
            if fb:
                supply = min(share_rate * elapsed + share.quantum * k, pool, spare)
                steps = 2 * (elapsed / turn + k) + k
            else:
                supply = min(share_rate * elapsed, pool, spare)
                steps = max(supply, 0.0) / least_transfer + 2 * k
            scale = held + pool + deficit + abs(supply) + drained
            margin = (n * FLOOR_TOLERANCE + 1e-6
                      + ((n + 2) * (steps + 1) * 2.0 ** -50 + 1e-9) * scale)
            if deficit > supply + margin:
                return True
        # lo: the least leg after which every consumer could fly the rest
        # unaided; ``drained`` becomes p's drain over legs 1..lo
        lo, tail = len(legs), dict.fromkeys(block.consumers, 0.0)
        while lo > 1 and deficit > margin:
            tt, least, rates = legs[lo - 1]
            if any(tail[c] + least[c] * tt > top[c] + margin for c in tail):
                break
            for c in tail:
                tail[c] += least[c] * tt
            drained -= rates[p] * tt
            lo -= 1
        if deficit > _pool(batteries[p], drained, reserve, share) + margin:
            return True
    return False


def plain_drain_as_written(before, rates, tt, ids):
    """``planner._plain_drain`` before ``feasible_leg`` took it in, as
    written: end batteries a = b - rate * tt by id, in ``ids`` order, of
    drones that drain over a leg; None at the first that fails it."""
    from swarmway.planner import FLOOR_TOLERANCE

    after = {}
    for i in ids:
        b = before[i]
        after[i] = a = b - rates[i] * tt
        if b + (a - b) * tt / tt < -FLOOR_TOLERANCE:
            return None
    return after


def plain_fails_as_written(net, path, batteries, cache) -> bool:
    """Whether flying ``path`` without sharing fails, as the plain check
    before ``planner._flight`` judged one drone at a time, as written:
    every drone leg by leg through ``plain_drain_as_written``."""
    state = batteries
    for u, v in zip(path, path[1:]):
        _, sector, tt = cache.leg(net, u, v)
        rates = cache.rates(sector)
        state = plain_drain_as_written(state, rates, tt, rates)
        if state is None:
            return True
    return False


def price_stop_as_written(swarm, net, u, v, destination, full, model, cache):
    """``planner._price_stop`` before it read the leg's rates in one pass
    with no dict of end batteries, as written."""
    _, sector, tt = cache.leg(net, u, v)
    rates = cache.rates(sector)
    after = plain_drain_as_written(full, rates, tt, rates)
    if after is None:
        return None
    if v == destination:
        return tt, None
    visit = full_recharge_as_written(swarm, net.nodes[v], sector,
                                     [full[i] - a for i, a in after.items()], model, cache)
    return tt + visit.nt, visit


def full_recharge_as_written(swarm, node, sector, drains, model, cache):
    """``planner._full_recharge``, the stop's pad schedule from the drones'
    ``drains`` in swarm order, before ``_price_stop`` took it in, as
    written."""
    from swarmway.energy import PAD_EXHAUSTIVE_CAP, _first_optimum, pad_schedule
    from swarmway.planner import NodeVisit

    times = [drain / model.spec.pad_charge_rate for drain in drains]
    if len(times) <= PAD_EXHAUSTIVE_CAP and all(
            drain >= d.capacity * 1e-6 for d, drain in zip(swarm.drones, drains)):
        return NodeVisit(node.id, *_first_optimum(
            cache.pad_candidates(sector, node.pads), times))
    sched = pad_schedule(times, node.pads)
    return NodeVisit(node.id, sched.node_time, sched.queues)


def fly_legs_as_written(swarm, net, path, model, batteries, share, cache):
    """``planner._flight`` before it flew one provider block at a time,
    as written: leg by leg, each leg judging its blocks in order as they
    are built and ending at the first that fails."""
    from swarmway.planner import (
        FLOOR_TOLERANCE,
        LegOutcome,
        SharingPlan,
        _grid_feasible,
        _share_block,
    )

    legs, state = [], dict(batteries)
    for u, v in zip(path, path[1:]):
        seg, sector, tt, rates, _ = cache.row(net, u, v)
        blocks = cache.blocks if share is not None else []
        plan = SharingPlan() if blocks else None
        swaps = cache.swaps(sector) if blocks else None
        consumed, traces = {}, {}
        for block in blocks or [None]:
            result = None
            if block is not None:
                result = _share_block(block, state, rates, tt, share, model, swaps)
            if result is None:
                for i in block.ids if block else rates:  # rates: every drone, in order
                    b = state[i]
                    consumed[i] = spent = rates[i] * tt
                    a = b - spent
                    if b + (a - b) * tt / tt < -FLOOR_TOLERANCE:
                        return None
                    traces[i] = [(0.0, b), (tt, a)]
                continue
            if not _grid_feasible(result.traces, tt):
                return None
            consumed.update(result.consumed)
            traces.update(result.traces)
            plan.allocations.extend(result.plan.allocations)
            plan.swaps.extend(result.plan.swaps)
        leg = LegOutcome(u, v, seg.distance_m, tt, sector, consumed, plan, traces)
        legs.append(leg)
        state = leg.batteries_after
    return legs


def fly_through_as_written(swarm, net, path, model, batteries, share, cache):
    """A fly-through before ``planner._flight`` flew one provider block at
    a time, as written: ``plain_fails_as_written`` or the sharing bound,
    then ``fly_legs_as_written``."""
    from swarmway.planner import _sharing_cannot_save

    if (plain_fails_as_written(net, path, batteries, cache) if share is None
            else _sharing_cannot_save(net, path, model, batteries, share, cache)):
        return None
    return fly_legs_as_written(swarm, net, path, model, batteries, share, cache)
