"""In-flight energy transfer between support and delivery drones.

While a swarm crosses a segment, a support drone (the provider) can top
up delivery drones that fall below a battery threshold.  Transfers run
one consumer at a time and require the consumer to sit next to the
provider, so each allocation may transiently swap the consumer with one
of the provider's formation neighbors.  Every swap is undone when its
transfer ends, so the swarm sits in its standing slot assignment at the
start of each allocation and the swap a consumer needs is known before
the segment starts: the composers take it as a ``swaps`` table and never
touch the swarm.

Two composition policies are provided:

* ``pb_compose`` serves whole requests, neediest first.  It files them
  itself: whenever the provider is free, each delivery drone below the
  gamma threshold without an open request asks for a full refill, if
  that refill is at least a millionth of its capacity.
  Requests sort by filing time, then descending amount, then drone id,
  and each one is delivered in full (truncated only by the segment end).
* ``fb_compose`` has no requests: it cycles in id order over every
  delivery drone that has room, granting a fixed quantum per turn while
  the provider keeps a reserve; a turn may start any time before the
  leg ends and its transfer then completes even if the recorded
  interval is clipped.

All times are minutes from the start of the leg, which lasts ``tt``
minutes.  Batteries may go negative in the returned state; judging
feasibility is the planner's job.  The plan records only the
allocations and swaps; what a drone gave or gained is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .energy import Drone


class Allocation(NamedTuple):
    provider: int
    consumer: int
    start: float
    duration: float
    amount: float


class SwapEvent(NamedTuple):
    """Two slots exchanged occupants at ``time`` (applied again to swap back)."""

    time: float
    slot_a: int
    slot_b: int


# a consumer's (slot, partner slot) exchange and the drain rates while swapped
SwapPlan = tuple[tuple[int, int], dict[int, float]]


@dataclass
class SharingPlan:
    allocations: list[Allocation] = field(default_factory=list)
    swaps: list[SwapEvent] = field(default_factory=list)

    @property
    def total_shared(self) -> float:
        return sum(a.amount for a in self.allocations)


@dataclass
class ShareContext:
    """Flight state a composer needs: who flies, how charged, how thirsty,
    and how much the provider can spare.

    ``batteries``/``capacities`` cover the provider as well as the
    consumers, and ``rates`` every drone with a battery; ``consumer_ids``
    names the delivery drones eligible to receive, and ``offer`` is the
    most ``provider_id`` gives over the leg.
    """

    batteries: dict[int, float]
    capacities: dict[int, float]
    rates: dict[int, float]
    consumer_ids: list[int]
    share_rate: float
    provider_id: int
    offer: float

    def __post_init__(self):
        if not 0 < self.share_rate < math.inf:
            raise ValueError(f"share_rate must be finite and > 0, got {self.share_rate}")
        if not 0 <= self.offer < math.inf:
            raise ValueError(f"offer must be finite and >= 0, got {self.offer}")
        for i in (self.provider_id, *self.consumer_ids):
            if i not in self.batteries or i not in self.capacities:
                role = "provider" if i == self.provider_id else "consumer"
                raise ValueError(f"{role} {i} missing battery or capacity")
        for i in self.batteries:
            if i not in self.rates:
                raise ValueError(f"drone {i} has a battery but no rate")


@dataclass
class ShareResult:
    plan: SharingPlan
    consumed: dict[int, float]  # drain only; transfers are tracked in the plan
    traces: dict[int, list[tuple[float, float]]]  # piecewise-linear (t, battery)

    @property
    def batteries_after(self) -> dict[int, float]:
        return {i: points[-1][1] for i, points in self.traces.items()}


class _LegState:
    """Steps batteries forward between events; linear between breakpoints."""

    def __init__(self, ctx: ShareContext):
        self.t = 0.0
        self.b = dict(ctx.batteries)
        self.rates = ctx.rates
        self.consumed = {i: 0.0 for i in self.b}
        self.traces = {i: [(0.0, self.b[i])] for i in self.b}

    def advance(self, t2: float, deltas: dict[int, float] | None = None,
                overrides: dict[int, float] | None = None):
        """Drain to ``t2`` (at ``overrides`` rates where given), then credit ``deltas``."""
        dt = t2 - self.t
        if dt < 0:
            raise ValueError("time cannot move backwards")
        if dt == 0 and not deltas:
            return
        rates = {**self.rates, **overrides} if overrides else self.rates
        for i in self.b:
            drained = rates[i] * dt
            self.consumed[i] += drained
            b2 = self.b[i] - drained
            if deltas and i in deltas:
                b2 += deltas[i]
            self.b[i] = b2
            self.traces[i].append((t2, b2))
        self.t = t2


# A pb refill smaller than this fraction of the drone's capacity is not
# filed.  At gamma 1 a drone refilled in full drains during its own
# transfer and would file again at once, for ever smaller refills; below
# gamma 1 every filing is at least (1 - gamma) of capacity anyway.
LEAST_FILING = 1e-6


def _wants_topup(battery: float, capacity: float, gamma: float) -> bool:
    return battery < gamma * capacity and capacity - battery >= capacity * LEAST_FILING


def _pb_idle(batteries, capacities, consumer_ids, gamma: float) -> bool:
    """True when pb_compose files no request at the start of the leg.

    pb_compose then grants nothing and the block simply drains.
    """
    return not any(_wants_topup(batteries[c], capacities[c], gamma)
                   for c in consumer_ids)


def _fb_idle(batteries, capacities, consumer_ids, offer_energy: float,
             reserve: float) -> bool:
    """True when fb_compose's first pass grants nothing.

    That is when the offer holds no more than the reserve or every
    consumer is full; the block then simply drains.
    """
    return (offer_energy - 0.0 <= reserve
            or all(capacities[c] - batteries[c] <= 0 for c in consumer_ids))


def _transfer(state, plan, swaps, provider_id, consumer_id, amount, start, end):
    """Step from ``start`` to ``end`` while ``amount`` flows to the consumer,
    and log the allocation.

    A consumer listed in ``swaps`` flies the transfer in its partner's
    slot at the table's rates, logged as one exchange at each end.
    """
    plan.allocations.append(
        Allocation(provider_id, consumer_id, start, end - start, amount))
    deltas = {consumer_id: amount, provider_id: -amount}
    swap = swaps.get(consumer_id) if swaps else None
    if swap is None:
        state.advance(end, deltas)
        return
    (slot_a, slot_b), rates = swap
    plan.swaps.append(SwapEvent(start, slot_a, slot_b))
    state.advance(end, deltas, rates)
    # the same slot pair exchanges back
    plan.swaps.append(SwapEvent(end, slot_a, slot_b))


def pb_compose(
    ctx: ShareContext,
    tt: float,
    gamma: float,
    *,
    swaps: dict[int, SwapPlan | None] | None = None,
) -> ShareResult:
    """Serve requests fully, earliest filed first, then largest amount.

    Whenever the provider is free, every delivery drone strictly below
    ``gamma`` of its capacity without an open request files one for a
    full refill as of that moment, scanning drones in id order, unless
    that refill is under ``LEAST_FILING`` of its capacity.  The
    provider serves one request at a time, the first in order whose
    full amount still fits the offer; a request keeps the amount it was
    filed with while it waits.  A service running into the end of the
    leg, ``tt`` minutes in, is cut there with a proportional amount.
    ``swaps`` maps a consumer to the slot swap its transfers need.

    Requests are plain ``(filed at, amount, drone id)`` tuples:

    * every filing happens at ``free``, the end of the last transfer, so
      service always starts at ``free`` and the end of the leg is the
      only time gate;
    * the battery state already stands at ``free`` when a transfer
      starts, so no drain step comes before it;
    * filings are appended in filing order and each scans drones in id
      order, so a stable sort on (filed at, -amount) breaks ties in
      filing order, lowest drone id first within one filing.
    """
    if not 0 < tt < math.inf:
        raise ValueError(f"leg length tt must be finite and > 0, got {tt}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    state = _LegState(ctx)
    plan = SharingPlan()
    caps = ctx.capacities
    order = sorted(set(ctx.consumer_ids))
    pending = []  # (filed at, amount, drone id)
    given = 0.0
    free = 0.0
    while free < tt:
        filed = {drone for _, _, drone in pending}
        for c in order:
            if c not in filed and _wants_topup(state.b[c], caps[c], gamma):
                pending.append((free, caps[c] - state.b[c], c))
        pending.sort(key=lambda r: (r[0], -r[1]))
        pick = next((i for i, r in enumerate(pending)
                     if not r[1] > ctx.offer - given), None)
        if pick is None:
            break
        _, amount, drone = pending.pop(pick)
        start = free
        end = start + amount / ctx.share_rate
        if end > tt:
            end = tt
            amount = ctx.share_rate * (end - start)
        _transfer(state, plan, swaps, ctx.provider_id, drone, amount, start, end)
        given += amount
        free = end
    state.advance(tt)
    return ShareResult(plan, state.consumed, state.traces)


def fb_compose(
    ctx: ShareContext,
    tt: float,
    quantum: float,
    reserve: float,
    *,
    swaps: dict[int, SwapPlan | None] | None = None,
) -> ShareResult:
    """Round-robin a fixed quantum to every non-full delivery drone.

    Each granted turn costs quantum / share_rate minutes of the leg
    regardless of how much actually flows (grants clamp to the room left
    in the battery and to the energy left in the offer).  A turn may
    begin whenever time remains and the provider still holds strictly
    more than ``reserve``; the final turn's transfer completes in full
    but its recorded interval stops at the end of the leg, ``tt``
    minutes in.  Full drones cost nothing, and a pass that grants
    nothing ends the rotation.  ``swaps`` maps a consumer to the slot
    swap its turns need.
    """
    if not 0 < tt < math.inf:
        raise ValueError(f"leg length tt must be finite and > 0, got {tt}")
    if not 0 < quantum < math.inf:
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    if not 0 <= reserve < math.inf:
        raise ValueError(f"reserve must be finite and >= 0, got {reserve}")
    turn_time = quantum / ctx.share_rate
    state = _LegState(ctx)
    plan = SharingPlan()
    given = 0.0
    ct = 0.0
    order = sorted(ctx.consumer_ids)
    while ct < tt and ctx.offer - given > reserve:
        progressed = False
        for cid in order:
            if ct >= tt or ctx.offer - given <= reserve:
                break
            state.advance(ct)
            room = ctx.capacities[cid] - state.b[cid]
            if room <= 0:
                continue
            amount = min(quantum, room, ctx.offer - given)
            start = ct
            end_recorded = min(ct + turn_time, tt)
            ct += turn_time
            _transfer(state, plan, swaps, ctx.provider_id, cid, amount,
                      start, end_recorded)
            given += amount
            progressed = True
        if not progressed:
            break  # everyone full; nothing left to rotate over
    state.advance(tt)
    return ShareResult(plan, state.consumed, state.traces)


def reorder_fixed(swarm, consumer_id: int, provider_id: int) -> Drone | None:
    """Bring a consumer next to its provider without moving any support drone.

    Returns None when they are already adjacent; otherwise the partner,
    the delivery drone in the provider's lowest-numbered adjacent slot,
    whose slot the consumer takes for a transfer.  The swarm is left as
    it is: the swap costs nothing and only lasts one transfer, so the
    composers apply it through their ``swaps`` table.
    """
    by_id = {d.id: d for d in swarm.drones}
    by_slot = {d.position: d for d in swarm.drones}
    consumer, provider = by_id[consumer_id], by_id[provider_id]
    if consumer.role != "delivery":
        raise ValueError(f"consumer {consumer_id} is not a delivery drone")
    if provider.role != "support":
        raise ValueError(f"provider {provider_id} is not a support drone")
    if swarm.formation.adjacent(consumer.position, provider.position):
        return None
    for slot in sorted(swarm.formation.neighbors(provider.position)):
        partner = by_slot[slot]
        if partner.role == "delivery":
            return partner
    raise ValueError(
        f"provider {provider_id} has no delivery drone in an adjacent slot; "
        "positioning should never cluster support drones together"
    )
