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
    LEAST_FILING,
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
            raise ValueError(f"gamma: {self.gamma} outside [0, 1]")
        if not 0.0 <= self.delta_frac < 1.0:
            raise ValueError(f"delta_frac: {self.delta_frac} outside [0, 1)")
        if not 0 < self.quantum < math.inf:
            raise ValueError("quantum: must be finite and > 0")


@dataclass
class LegOutcome:
    """One segment traversal: energy spent, energy moved, state after."""

    u: int
    v: int
    distance_m: float
    tt: float
    sector: str
    consumed: dict[int, float]
    plan: SharingPlan | None
    traces: dict[int, list[tuple[float, float]]] = field(repr=False)

    @property
    def batteries_after(self) -> dict[int, float]:
        return {i: points[-1][1] for i, points in self.traces.items()}

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
    source: int
    legs: list[LegOutcome]
    visits: list[NodeVisit]

    @property
    def path(self) -> list[int]:
        return [self.source] + [leg.v for leg in self.legs]

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


@dataclass(frozen=True)
class _Block:
    """A support drone and the contiguous run of delivery drones it serves."""

    provider: int
    consumers: list[int]
    ids: list[int]  # provider first, then its consumers in slot order
    capacities: dict[int, float]


def segment_time(seg, cruise_speed: float) -> float:
    """Minutes to fly ``seg`` at ``cruise_speed``; ValueError naming the
    segment unless that is finite and > 0."""
    tt = travel_time(seg.distance_m, cruise_speed)
    if not 0 < tt < math.inf:
        raise ValueError(f"segment ({seg.u}, {seg.v}): {seg.distance_m} m "
                         f"takes {tt} min at {cruise_speed:g} km/h; need > 0")
    return tt


class _RateCache:
    """Per-sector drain rates, swap tables and pad candidates at the swarm's
    standing slots, each directed leg's segment, sector and travel time and
    its rates, and the swarm's provider blocks.  One lives for one compose:
    sharing it would move work between the timed regions of pb and fb.

    ``failed`` is the swarm index of the drone that failed the last
    ``_flight`` flown drone by drone, and ``failed_block`` the index in
    ``blocks`` of the block that failed the last flown block by block:
    the next flight of that kind flies it first."""

    def __init__(self, swarm: Swarm, model: EnergyModel):
        self.swarm = swarm
        self.model = model
        self.ids = tuple(d.id for d in swarm.drones)
        self.caps = tuple(d.capacity for d in swarm.drones)
        self.floors = tuple(cap * 1e-6 for cap in self.caps)
        self.failed = self.failed_block = 0
        self._legs: dict[tuple[int, int], tuple] = {}
        self._rows: dict[tuple[int, int], tuple] = {}
        self._by_sector: dict[str, dict[int, float]] = {}
        self._swaps_by_sector: dict[str, dict[int, SwapPlan | None]] = {}
        self._least_by_sector: dict[str, dict[int, float]] = {}
        self._candidates: dict[tuple[str, int], list] = {}
        self.blocks = _provider_blocks(swarm)

    def _rate(self, drone, slot: int, sector: str) -> float:
        return consumption_rate(self.model, drone.payload, self.swarm.formation,
                                slot, sector)

    def leg(self, net: SkywayNetwork, u: int, v: int):
        """(segment, wind sector, travel time) of the leg u -> v."""
        hit = self._legs.get((u, v))
        if hit is None:
            seg = net.segment(u, v)
            hit = self._legs[(u, v)] = (
                seg, wind_sector(net.heading(u, v), seg.wind),
                segment_time(seg, self.model.spec.cruise_speed))
        return hit

    def row(self, net: SkywayNetwork, u: int, v: int):
        """(segment, wind sector, travel time, rates by id, the same rates
        in swarm order) of the leg u -> v."""
        hit = self._rows.get((u, v))
        if hit is None:
            seg, sector, tt = self.leg(net, u, v)
            rates = self.rates(sector)
            hit = self._rows[(u, v)] = (seg, sector, tt, rates, tuple(rates.values()))
        return hit

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
                    partner = reorder_fixed(self.swarm, cid, block.provider)
                    if partner is None:
                        table[cid] = None
                        continue
                    consumer = by_id[cid]
                    rates = {cid: self._rate(consumer, partner.position, sector)}
                    if partner.id in block.consumers:
                        rates[partner.id] = self._rate(partner, consumer.position, sector)
                    table[cid] = ((consumer.position, partner.position), rates)
            self._swaps_by_sector[sector] = table
        return self._swaps_by_sector[sector]

    def least_rates(self, sector: str) -> dict[int, float]:
        """Each consumer's lowest drain rate on a shared leg in the sector:
        its standing rate, or a rate ``swaps`` gives it while swapped, as
        the consumer or as a same-block partner."""
        if sector not in self._least_by_sector:
            rates = self.rates(sector)
            least = {c: rates[c] for block in self.blocks for c in block.consumers}
            for swap in self.swaps(sector).values():
                if swap is not None:
                    for i, rate in swap[1].items():
                        least[i] = min(least[i], rate)
            self._least_by_sector[sector] = least
        return self._least_by_sector[sector]


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
                swarm = Swarm([Drone(i, role, 0.0, 1.0, i)
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
        provider_id=p,
        offer=ae,
    )
    if share.strategy == "pb":
        return pb_compose(ctx, tt, share.gamma, swaps=swaps)
    return fb_compose(ctx, tt, share.quantum, reserve, swaps=swaps)


def feasible_leg(
    swarm: Swarm,
    net: SkywayNetwork,
    u: int,
    v: int,
    model: EnergyModel,
    *,
    batteries: dict[int, float] | None = None,
    share: ShareConfig | None = None,
) -> LegOutcome | None:
    """Traverse one segment if the batteries survive it; None otherwise.
    ``batteries`` defaults to full ones.  This is ``_flight`` on the path
    [u, v]: the leg's segment, rates and swap table are read before any
    group flies it, so a leg that cannot build them raises first."""
    before = batteries if batteries is not None else {d.id: d.capacity for d in swarm.drones}
    legs = _flight(net, [u, v], model, before, share, _RateCache(swarm, model))
    return legs[0] if legs else None


def _flight(net, path, model, batteries, share, cache):
    """Fly ``path`` from ``batteries`` without stopping: its legs, or None
    if a drone fails one.

    With sharing, each support drone serves its contiguous block of
    delivery drones, offering what its battery holds beyond its own drain
    for the leg; a block whose composer would grant nothing drains in
    closed form, exactly as the composer's trace would.  Without sharing
    or without blocks each drone drains on its own.

    A group, a block or else a drone, reads only its own drones'
    batteries, rates and swaps, so each flies the whole path alone and
    the first leg it fails ends the flight.  The first group flown is the
    one that failed the last flight of its kind (``cache.failed_block`` or
    ``cache.failed``), which most often fails this one too.  A composed
    block is judged by ``_grid_feasible`` on its traces; a draining drone
    by b + (a - b) * tt / tt < -FLOOR_TOLERANCE, a = b - rate * tt: that
    is ``_grid_feasible``'s read at tt on its trace (0, b) -> (tt, a), the
    lowest of its reads as rates are positive.  a alone does not decide:
    at some legs that end at the floor the two differ by an ulp.

    A leg's row and swap table are read when the first group reaches it.
    The first leg that cannot build them (a ValueError from its segment,
    the coefficients or the swap table) ends the legs later groups fly,
    and raises only if no group fails a leg before it.  Only a flight that
    succeeds builds its legs, in ``_legs``, from the blocks it composed.
    """
    blocks = cache.blocks if share is not None else []
    groups = [block.ids for block in blocks] or [(i,) for i in cache.ids]
    first = cache.failed_block if blocks else cache.failed
    rows, swaps, composed = [], [], {}  # of the legs read; (leg, block) -> result
    end, error = len(path) - 1, None
    state = dict(batteries)  # each group moves only its own drones on
    for g in (first, *range(first), *range(first + 1, len(groups))):
        block = blocks[g] if blocks else None
        for j in range(end):
            if j == len(rows):
                try:
                    row = cache.row(net, path[j], path[j + 1])
                    swaps.append(cache.swaps(row[1]) if blocks else None)
                except ValueError as exc:
                    end, error = j, exc
                    break
                rows.append(row)
            _, _, tt, rates, _ = rows[j]
            result = block and _share_block(block, state, rates, tt, share, model, swaps[j])
            if result is None:
                for i in groups[g]:
                    b = state[i]
                    state[i] = a = b - rates[i] * tt
                    if b + (a - b) * tt / tt < -FLOOR_TOLERANCE:
                        break
                else:  # every drone of the group flies the leg
                    continue
            elif _grid_feasible(result.traces, tt):
                composed[j, g] = result
                for i, points in result.traces.items():
                    state[i] = points[-1][1]
                continue
            if blocks:
                cache.failed_block = g
            else:
                cache.failed = g
            return None
    if error is not None:
        try:
            raise error
        finally:  # the traceback holds this frame: let go of the error
            error = None
    return _legs(path, rows, composed, batteries, blocks, cache)


def _legs(path, rows, composed, batteries, blocks, cache):
    """The legs of a flight along ``path`` that every group survives, from
    each leg's row and the results ``composed`` by (leg, block index);
    every other drone drains by ``_flight``'s expressions.  Keyed and with
    plans in block order, or in swarm order without ``blocks``."""
    groups = [block.ids for block in blocks] or [cache.ids]
    state, legs = dict(batteries), []
    for j, (seg, sector, tt, rates, _) in enumerate(rows):
        consumed, traces = {}, {}
        plan = SharingPlan() if blocks else None
        for g, ids in enumerate(groups):
            result = composed.get((j, g))
            if result is None:
                for i in ids:
                    b = state[i]
                    consumed[i] = spent = rates[i] * tt
                    state[i] = a = b - spent
                    traces[i] = [(0.0, b), (tt, a)]
                continue
            consumed.update(result.consumed)
            traces.update(result.traces)
            plan.allocations.extend(result.plan.allocations)
            plan.swaps.extend(result.plan.swaps)
            for i, points in result.traces.items():
                state[i] = points[-1][1]
        legs.append(LegOutcome(path[j], path[j + 1], seg.distance_m, tt, sector,
                               consumed, plan, traces))
    return legs


def _pool(battery, drained, reserve, share) -> float:
    """The most a support drone holding ``battery`` gives in all, if it
    gives nothing after the leg by which it has drained ``drained``: its
    offer on that leg, under fb less its reserve plus one quantum."""
    ae = max(0.0, battery - drained)
    if share.strategy == "pb":
        return ae
    return max(0.0, min(ae, ae - reserve + share.quantum))


def _sharing_cannot_save(net, path, model, batteries, share, cache) -> bool:
    """True when an energy balance proves that flying ``path`` from
    ``batteries`` with sharing fails, so it need not be composed.

    Sharing moves energy and creates none.  Take one provider block, p
    and its consumers C, over the first k legs.  Consumer c drains at
    least its ``least_rates`` rate times tt on each leg.  A leg end is a
    grid point, so if every leg up to k passed, c ended leg k at or above
    -FLOOR_TOLERANCE and so received at least
    max(0, sum over legs j <= k of least_c * tt_j - b_c) - FLOOR_TOLERANCE.
    ``deficit`` sums that over C.  What C receives, p gives:

    * pb serves one transfer at a time at share_rate and cuts it at the
      end of the leg, so a leg gives at most share_rate * tt.  An fb turn
      takes quantum / share_rate minutes and grants at most a quantum, and
      only a leg's last turn runs past its end, so a leg gives at most
      share_rate * tt + quantum.
    * Neither composer gives more than its offer, p's battery less p's
      drain over the leg, and p never swaps, so what later legs give
      comes out of leg 1's offer ``ae``.  fb stops once the offer left is
      at or below the reserve, so all legs give at most
      ae - reserve + quantum.
    * p drains at its standing ``rates`` rate on every leg: a swap's
      rates cover only the consumer and a delivery drone beside p, and
      an idle block drains at the standing rates.  p ended leg k at or
      above -FLOOR_TOLERANCE too, after its own drain and all it gave, so
      legs 1..k give at most b_p - ``drained`` + FLOOR_TOLERANCE, where
      ``drained`` sums p's rate times tt over them.  That bound may be
      negative: with no deficit it then rules out a path p cannot fly
      even alone.

    ``supply`` is the least of these bounds.  So if every leg up to k
    passed, ``deficit`` is at most ``supply`` plus |C| * FLOOR_TOLERANCE.

    The pool can be taken at a later leg.  Let i be the last leg on
    which p gives anything; if ``deficit`` is positive there is one.  No
    consumer ends a leg above top_c = max(cap_c, b_c): fb grants at most
    the room at the start of a turn, pb fills at most the amount it
    filed, and every drain is positive.  After leg i no consumer
    receives anything, so if every leg up to k passed, each c drained at
    most top_c + FLOOR_TOLERANCE over legs i+1..k.  So i is at least
    ``lo``, the least leg after which no c's least drain over the legs
    left exceeds top_c plus ``margin``.  fb grants only while its offer
    less what it gave exceeds the reserve, and at most a quantum a turn,
    so on leg i its offer less what it gave stays above
    reserve - quantum; pb gives at most its offer.  p only loses energy,
    so legs 1..k gave at most ``_pool`` at leg i, on max(0, b_p - p's
    drain over legs 1..i) in place of ``ae``.  That does not rise with
    i, so its value at ``lo`` bounds the supply too; at leg 1 it is
    ``pool``.  The bound takes it at the last leg read, where
    ``deficit`` is largest and ``lo`` latest, and skips it when there is
    no deficit.

    Rounding: suppose every leg up to k passed.  A consumer then holds
    at most its start plus what it received, and drained at most that
    plus the floor; p holds at most its start and drained at most that
    plus the floor.  So every battery, drain and transfer of the block
    lies within ``scale``: the block's starting batteries plus ``pool``,
    ``deficit``, |``supply``|, ``drained`` and the tops.  A trace step
    rounds a battery at most four times (the step's length, the drain,
    the subtraction, the credit), each by at most 2**-53 of a value
    within scale, and the transfer sizes and fb's turn clock err no
    more.  Up to leg k a drone takes at most ``steps`` trace steps: fb
    grants at most elapsed / turn + k turns of two steps each; pb files
    no refill under LEAST_FILING of a capacity, so each transfer but a
    leg's last moves at least ``least_transfer``, which allows
    max(0, supply) / least_transfer + k transfers of one step each; both
    take one more step per leg.  So the balance of the |C| + 1 drones
    errs by less than (|C| + 1) * (steps + 1) * 2**-50 * scale.
    ``drained`` takes k products and k sums, each within 2**-53 * scale,
    which one more (steps + 1) * 2**-50 * scale covers, and so it does
    the k products and k differences that take p's drain back to leg
    ``lo``; the margin adds 1e-9 * scale + 1e-6 mAh of slack to that.
    The test for ``lo`` takes the same margin.  A consumer that receives
    nothing after leg i ends it at most a few roundings above its top,
    and from there its battery only falls, so each of its trace steps up
    to leg k, and each of the k products and sums of its least drain,
    errs by at most 2**-53 * scale; margin covers those and
    FLOOR_TOLERANCE.

    A leg before the last with no ``deficit`` and a ``spare`` >= 0 is
    not priced: there ``supply`` >= 0 and ``margin`` > 0, so the test
    cannot fire.  The last leg always is, since ``lo`` starts from its
    ``deficit`` and ``margin``.

    The legs are read up to the first one whose rates cannot be built
    (a ValueError from the coefficients or the swap table);
    ``_flight`` raises there if no block fails a leg before it.
    Leg 1's swap table is built first, as the composition builds it.
    """
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
        start = [batteries[c] for c in block.consumers]
        need = [0.0] * n  # by consumer position, as ``start``
        elapsed = drained = 0.0
        for k, (tt, least, rates) in enumerate(legs, 1):
            elapsed += tt
            drained += rates[p] * tt
            deficit = 0.0
            for j, c in enumerate(block.consumers):
                need[j] = got = need[j] + least[c] * tt
                if got > start[j]:
                    deficit += got - start[j]
            spare = batteries[p] - drained + FLOOR_TOLERANCE
            if not deficit and spare >= 0 and k < len(legs):
                continue  # the test cannot fire here
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


def _price_stop(net, u, v, destination, cache):
    """(tt + nt, visit) of flying u -> v from full batteries and recharging
    everyone at v, or (tt, None) at the ``destination``; None when a drone
    cannot fly the leg.  From full both composers are idle on one leg, so it
    drains as ``_flight`` reads a draining drone, with sharing or
    without, and no leg is built: a stop taken builds its leg in ``_legs``
    from the same row, with no block composed.

    One pass over the leg's rates judges each drone and takes its drain
    cap - (cap - rate * tt), the leg's own end battery taken back from
    full, and its restore time.  The sector's pad candidates hold
    pad_schedule's optimum on these times (see static_edge_costs), except
    above the exhaustive cap or for a drain under a millionth of a
    capacity, where pad_schedule searches.
    """
    _, sector, tt, _, row = cache.row(net, u, v)
    pad_rate = cache.model.spec.pad_charge_rate
    times, search = [], len(row) > PAD_EXHAUSTIVE_CAP
    for cap, floor, rate in zip(cache.caps, cache.floors, row):
        a = cap - rate * tt
        if cap + (a - cap) * tt / tt < -FLOOR_TOLERANCE:
            return None
        drain = cap - a
        if drain < floor:
            search = True
        times.append(drain / pad_rate)
    if v == destination:
        return tt, None
    node = net.nodes[v]
    if search:
        sched = pad_schedule(times, node.pads)
        visit = NodeVisit(node.id, sched.node_time, sched.queues)
    else:
        visit = NodeVisit(node.id, *_first_optimum(cache.pad_candidates(sector, node.pads),
                                                   times))
    return tt + visit.nt, visit


def _moves(net, node, destination, tree, model, share, cache, full, closed):
    """The walker's moves from ``node`` on full batteries, (cost, next
    node, step): the rest of ``tree``'s path flown through, plain and then
    shared unless ``_sharing_cannot_save`` rules that out, alone when that
    works, its cost its legs' tt and its step the legs; else each feasible
    stop in neighbor order, its cost tt + nt and its step the visit (None
    at the ``destination``).  Neighbors in ``closed``, and padless ones but
    the destination, are not priced."""
    remaining = tree.path_to_root(node)
    legs = _flight(net, remaining, model, full, None, cache)
    if (legs is None and share is not None
            and not _sharing_cannot_save(net, remaining, model, full, share, cache)):
        legs = _flight(net, remaining, model, full, share, cache)
    if legs is not None:
        return [(sum(leg.tt for leg in legs), destination, legs)]
    moves = []
    for nb in net.neighbors(node):
        if nb in closed or (nb != destination and net.nodes[nb].pads < 1):
            continue
        stop = _price_stop(net, node, nb, destination, cache)
        if stop is not None:
            moves.append((stop[0], nb, stop[1]))
    return moves


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

    Each round greedily takes the cheapest of ``_moves``, ties to the
    first: the remaining shortest path flown outright, plainly or else
    with in-flight sharing, when that works; otherwise the neighbor stop
    minimizing travel plus recharge time (none at the destination).  A
    node accepts at most two visits per plan, then is closed; running out
    of moves strands the plan as "stuck".

    Every round starts on full batteries: at the source and after each
    recharge, so ``_price_stop`` judges and prices each neighbor without
    building its leg; only the stop taken builds one, in ``_legs`` from the
    row it was judged on, without judging it again.  A round's moves are
    then a pure function of its node, so the first round at a node keeps
    them and a later one picks from them, less the nodes closed since.
    A plan that repeats a stop holds the same visit object twice.
    """
    strategy = share.strategy if share else "baseline"
    if tree is None or tree.root != request.destination:
        tree = shortest_path_tree(net, request.destination)
    plan = DeliveryPlan(request.id, strategy, "stuck", request.source, [], [])
    if tree.distance(request.source) == math.inf:
        plan.status = "unreachable"
        return plan
    cache = _RateCache(swarm, model)
    blocks = cache.blocks if share is not None else []
    full = {d.id: d.capacity for d in swarm.drones}
    current = request.source
    visit_count = {current: 1}
    closed: set[int] = set()  # nodes at their visit cap
    moves_at: dict[int, list] = {}  # node -> its moves

    while current != request.destination:
        moves = moves_at.get(current)
        if moves is None:
            moves = moves_at[current] = _moves(net, current, request.destination, tree,
                                               model, share, cache, full, closed)
        best = None
        for move in moves:
            if move[1] not in closed and (best is None or move[0] < best[0]):
                best = move
        if best is None:
            return plan

        _, nb, step = best
        if isinstance(step, list):  # the fly-through's legs
            plan.legs.extend(step)
        else:
            plan.legs += _legs([current, nb], [cache.row(net, current, nb)], {}, full,
                               blocks, cache)
            if step is not None:
                plan.visits.append(step)
        visit_count[nb] = count = visit_count.get(nb, 0) + 1
        if count >= MAX_NODE_VISITS:
            closed.add(nb)
        current = nb

    plan.status = "success"
    return plan


def static_edges(net: SkywayNetwork, cruise_speed: float):
    """Edge keys in segment order (u->v, then v->u), and the edges into
    padded heads as ``groups[(wind sector, pads)] = (edges, tts array)``.
    None of it depends on the swarm: one value prices a sweep's swarms."""
    keys = []
    groups: dict[tuple[str, int], tuple[list, list]] = {}
    for seg in net.segments:
        tt = segment_time(seg, cruise_speed)
        for a, b in ((seg.u, seg.v), (seg.v, seg.u)):
            keys.append((a, b))
            pads = net.nodes[b].pads
            if pads >= 1:
                edges, tts = groups.setdefault(
                    (wind_sector(net.heading(a, b), seg.wind), pads), ([], []))
                edges.append((a, b))
                tts.append(tt)
    return keys, {key: (edges, np.array(tts)) for key, (edges, tts) in groups.items()}


def static_edge_costs(swarm: Swarm, edges, model: EnergyModel):
    """Directed cost tt + restore-time makespan at the head node.

    ``edges`` is ``static_edges(net, model.spec.cruise_speed)``.  The
    restore time assumes the leg started on full batteries, which is
    how the static routers then simulate their chosen path.
    """
    keys, groups = edges
    cache = _RateCache(swarm, model)
    n = len(swarm.drones)
    # Drone d's restore time on an edge is rate_d(sector) * tt / pad rate,
    # so within one (sector, pad count) every edge scales the same rate
    # vector: static_edges groups the edges, and each group is priced as one
    # array, an edge per row, from one search over the rates.  Each row
    # sums every queue's times in queue order from 0.0 and takes the
    # largest sum, then the least over the candidates: _makespan's and
    # _first_optimum's float operations, row by row.  pad_schedule's
    # node_time is the float minimum of the makespan over all assignments,
    # whatever its tie-break.  An assignment's float makespan on an edge's
    # times lies within (n+2)*2**-53 relative of tt / pad rate times its
    # real makespan on the rates, and its float makespan on the rates
    # within (n-1)*2**-53 of that real makespan.  So an assignment more
    # than 1e-9 relative above the optimum on the rates never gives the
    # minimum on an edge, and the minimum over the kept candidates is
    # node_time, bit for bit.  With a pad per drone that minimum is the
    # row's max; above the exhaustive cap pad_schedule still decides.
    # A recharge stop after a leg that started full has times
    # (cap - (cap - s)) / pad rate with s = rate * tt.  The subtraction
    # cap - s rounds by at most half an ulp of cap, so each time carries a
    # relative error of at most cap/s * 2**-53 more; with s >= cap * 1e-6
    # that is below 1.2e-10, and the 1e-9 band still holds every optimum.
    pad_rate = model.spec.pad_charge_rate
    costs = dict.fromkeys(keys, math.inf)  # padless heads keep it
    for (sector, pads), (group, tts) in groups.items():
        rates = np.array(list(cache.rates(sector).values()))
        times = rates[None, :] * tts[:, None] / pad_rate
        if n > PAD_EXHAUSTIVE_CAP:
            node_times = np.array([pad_schedule(row, pads).node_time
                                   for row in times.tolist()])
        elif pads >= n:
            node_times = times.max(axis=1)
        else:
            node_times = np.full(len(tts), np.inf)
            for queues in cache.pad_candidates(sector, pads):
                span = np.zeros(len(tts))
                for queue in queues:
                    clock = sum((times[:, d] for d in queue), np.zeros(len(tts)))
                    np.maximum(span, clock, out=span)
                np.minimum(node_times, span, out=node_times)
        for edge, cost in zip(group, (tts + node_times).tolist()):
            costs[edge] = cost
    return costs


def static_dijkstra(net: SkywayNetwork, costs, source: int,
                    target: int | None = None) -> PathTree:
    """Shortest static costs from ``source``, stopping once ``target``
    settles; ties keep the first-found parent."""
    return shortest_path_tree(net, source, costs, target)


def floyd_warshall_tables(net: SkywayNetwork, costs):
    """All-pairs static costs and successor table, vectorized over nodes.

    Pivot ``k`` relaxes only the rows that reach ``k`` and the columns
    that ``k`` reaches; for costs >= 0 or inf the tables equal the
    textbook triple loop's.
    """
    ids = sorted(net.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    nxt = np.full((n, n), -1, dtype=np.int64)
    nxt[np.diag_indices(n)] = np.arange(n)
    # Each key names one cell, so one masked assignment is the edge loop.
    tails = np.fromiter((index[a] for a, _ in costs), np.intp, len(costs))
    heads = np.fromiter((index[b] for _, b in costs), np.intp, len(costs))
    weights = np.fromiter(costs.values(), float, len(costs))
    bad = (~(weights >= 0.0)).nonzero()[0]
    if len(bad):
        edge = list(costs)[bad[0]]
        raise ValueError(f"edge {edge}: cost {weights[bad[0]]} must be >= 0 or inf")
    keep = weights < dist[tails, heads]
    tails, heads = tails[keep], heads[keep]
    dist[tails, heads] = weights[keep]
    nxt[tails, heads] = heads
    flat, nflat = dist.reshape(-1), nxt.reshape(-1)
    cand = np.empty((n, n))
    mask = np.empty((n, n), dtype=bool)
    # cand = lhs @ rhs with lhs = [col, 1] and rhs = [1; row]: each cell is
    # col[i]*1.0 + 1.0*row[j], two exact products and one rounding, so it
    # equals col[i] + row[j] bit for bit in any order, with or without FMA.
    # numpy's broadcast add runs its inner loop once per row; the product
    # writes the table in one BLAS call, about 3x faster at n = 263.
    lhs, rhs = np.ones((n, 2)), np.ones((2, n))
    for k in range(n):
        # A cell whose row cannot reach k, or whose column k cannot reach,
        # has candidate inf, which never passes the strict <, so skipping
        # it changes nothing.  Column k does not change during pivot k
        # (dist[k, k] stays 0.0), so nxt[:, k] can be read while it writes.
        # Below half the rows, gather that block and scatter what improves;
        # above it, compare every cell and scatter only those that improve
        # (about 6% on the CLI world), far cheaper than masked copies.
        # Both scatter by flat cell index: the compare's own mask picks the
        # cells and their candidates, so no (row, column) pair is built.
        col, row = dist[:, k], dist[k]
        rows = (col < np.inf).nonzero()[0]
        if 2 * len(rows) < n:
            cols = (row < np.inf).nonzero()[0]
            sub = col[rows][:, None] + row[cols]
            cells = (rows * n)[:, None] + cols
            better = sub < flat[cells]
            idx = cells[better]
            flat[idx] = sub[better]
        else:
            lhs[:, 0], rhs[1] = col, row
            # Costs are >= 0 or inf, so no stored cell forms inf - inf.  But
            # OpenBLAS pads a tail (n % 8 != 0) with zeros and raises the
            # invalid flag for inf * 0 in lanes it never stores; numpy would
            # report that as a RuntimeWarning, which the tests make an error.
            with np.errstate(invalid="ignore"):
                np.matmul(lhs, rhs, out=cand)
            np.less(cand, dist, out=mask)
            idx = mask.reshape(-1).nonzero()[0]
            flat[idx] = cand.reshape(-1)[idx]
        nflat[idx] = nxt[:, k][idx // n]
    return ids, dist, nxt


def _simulate_static_path(swarm, net, request, path, model, strategy):
    """Fly a fixed ``path`` from the request's source to its destination,
    with full recharges at the intermediate stops, each judged, priced and
    built as ``compose`` takes a stop; an empty path is unreachable."""
    plan = DeliveryPlan(request.id, strategy, "stuck", request.source, [], [])
    if not path:
        plan.status = "unreachable"
        return plan
    cache = _RateCache(swarm, model)
    full = {d.id: d.capacity for d in swarm.drones}
    for a, b in zip(path, path[1:]):
        stop = _price_stop(net, a, b, request.destination, cache)
        if stop is None:
            return plan
        plan.legs += _legs([a, b], [cache.row(net, a, b)], {}, full, [], cache)
        if stop[1] is not None:
            plan.visits.append(stop[1])
    plan.status = "success"
    return plan


def dijkstra_baseline(
    swarm: Swarm,
    net: SkywayNetwork,
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    costs,
) -> DeliveryPlan:
    """Route on static costs with Dijkstra, then fly that path as-is."""
    tree = static_dijkstra(net, costs, request.source, request.destination)
    path = tree.path_to_root(request.destination)
    return _simulate_static_path(swarm, net, request, path[::-1], model, "dijkstra")


def floyd_warshall_baseline(
    swarm: Swarm,
    net: SkywayNetwork,
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    costs,
) -> DeliveryPlan:
    """Route on static costs with Floyd-Warshall, then fly that path as-is."""
    ids, dist, nxt = floyd_warshall_tables(net, costs)
    at, to = ids.index(request.source), ids.index(request.destination)
    path = [request.source] if np.isfinite(dist[at, to]) else []
    while path and at != to:
        at = int(nxt[at, to])
        path.append(ids[at])
    return _simulate_static_path(swarm, net, request, path, model, "floyd")
