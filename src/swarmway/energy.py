"""Battery, consumption, and recharge-pad timing models.

All energy is in mAh and all times in minutes.  Consumption for a drone
flying one segment is

    base_rate * (1 + payload_gain * payload / max_payload) * C(kind, slot, sector)

where C comes from the coefficient table and the sector is the wind
direction quantized relative to travel.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate

from .formations import CoefficientTable, Formation

SUPPORT_CAPACITY_FACTOR = 4  # a support drone flies with 3 spare batteries
SPARE_BATTERY_WEIGHT_KG = 0.365  # weight of one spare battery pack
PAD_EXHAUSTIVE_CAP = 12


@dataclass(frozen=True)
class DroneSpec:
    """Hardware profile shared by every drone in a swarm.

    Defaults model a small quadcopter: 4480 mAh battery, 1.4 kg payload
    ceiling, 30 km/h cruise.  The base consumption rate is 3% of battery
    per minute; the pad rate refills a delivery battery in one hour.
    """

    battery_capacity: float = 4480.0
    max_payload: float = 1.4
    cruise_speed: float = 30.0
    inflight_share_rate: float = 5.88
    pad_charge_rate: float = 4480.0 / 60.0
    base_consumption_rate: float = 0.03 * 4480.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")


@dataclass
class Drone:
    """One swarm member.  Every plan starts it on a full battery of
    ``capacity``; its slot is set when the swarm is built, and planning only reads it."""

    id: int
    role: str  # "delivery" or "support"
    payload: float
    capacity: float
    position: int = 0

    def __post_init__(self):
        if self.role not in ("delivery", "support"):
            raise ValueError(f"drone {self.id}: bad role {self.role!r}")
        if self.payload < 0:
            raise ValueError(f"drone {self.id}: negative payload")
        if not self.capacity >= 0:
            raise ValueError(f"drone {self.id}: capacity {self.capacity} must be >= 0")


def make_delivery_drone(drone_id: int, payload: float, spec: DroneSpec) -> Drone:
    if payload > spec.max_payload:
        raise ValueError(f"payload {payload} exceeds max {spec.max_payload}")
    return Drone(drone_id, "delivery", payload, spec.battery_capacity)


def make_support_drone(drone_id: int, spec: DroneSpec) -> Drone:
    cap = spec.battery_capacity * SUPPORT_CAPACITY_FACTOR
    payload = (SUPPORT_CAPACITY_FACTOR - 1) * SPARE_BATTERY_WEIGHT_KG
    return Drone(drone_id, "support", payload, cap)


@dataclass(frozen=True)
class EnergyModel:
    """DroneSpec plus the tuning shared by all consumption operations."""

    spec: DroneSpec
    coeffs: CoefficientTable
    payload_gain: float = 1.0  # sensitivity of consumption to relative payload

    def __post_init__(self):
        if self.payload_gain < 0:
            raise ValueError("payload_gain must be >= 0")


def travel_time(distance_m: float, speed_kmh: float) -> float:
    """Minutes to cover a distance at constant speed."""
    if speed_kmh <= 0:
        raise ValueError(f"speed must be > 0, got {speed_kmh}")
    if distance_m < 0:
        raise ValueError(f"distance must be >= 0, got {distance_m}")
    return (distance_m / 1000.0) / speed_kmh * 60.0


def consumption_rate(
    model: EnergyModel,
    payload: float,
    formation: Formation,
    slot: int,
    sector: str,
) -> float:
    """Per-minute draw of one drone at a formation slot under a wind sector."""
    spec = model.spec
    if payload < 0 or payload > spec.max_payload * SUPPORT_CAPACITY_FACTOR:
        raise ValueError(f"payload {payload} out of range")
    if not 0 <= slot < formation.size:
        raise ValueError(f"slot {slot} invalid for formation of size {formation.size}")
    coeff = model.coeffs.coefficient(formation.kind, slot, sector)
    payload_factor = 1.0 + model.payload_gain * payload / spec.max_payload
    return spec.base_consumption_rate * payload_factor * coeff


@dataclass
class PadSchedule:
    """Which pad each drone queues on, and when it charges."""

    queues: tuple[tuple[int, ...], ...]  # drone indices per pad, service order
    node_time: float  # makespan: time until the last drone is charged


def _greedy_assignment(times: tuple[float, ...], pads: int) -> tuple[int, ...]:
    """Longest-processing-time heuristic, ties to the first time and pad (a
    reverse sort is stable): the search's first bound, and the schedule
    above ``PAD_EXHAUSTIVE_CAP`` drones."""
    loads = [0.0] * pads
    assign = [0] * len(times)
    for i in sorted(range(len(times)), key=times.__getitem__, reverse=True):
        pad = loads.index(min(loads))  # the least loaded, ties to the first
        assign[i] = pad
        loads[pad] += times[i]
    return tuple(assign)


def _queues(assign: tuple[int, ...], pads: int) -> tuple[tuple[int, ...], ...]:
    """Drone indices per pad, in input order, for a pad assignment."""
    queues = [[] for _ in range(pads)]
    for i, pad in enumerate(assign):
        queues[pad].append(i)
    return tuple(map(tuple, queues))


def _makespan(queues, times) -> float:
    """Finish time of the last pad when each serves its queue in order from 0.0."""
    node_time = 0.0
    for queue in queues:
        clock = 0.0
        for drone in queue:
            clock += times[drone]
        node_time = max(node_time, clock)
    return node_time


def pad_candidates(times: tuple[float, ...],
                   pads: int) -> list[tuple[tuple[int, ...], ...]]:
    """Queues of every canonical pad assignment (labels in first-use order)
    whose makespan on ``times`` is within a relative 1e-9 of the optimum,
    in lexicographic order.

    One pad, or no times, has a single canonical assignment.  Otherwise a
    branch and bound in lexicographic order, under a limit of 1 + 1e-9
    times the LPT makespan, then times the best makespan found.  A child
    whose partial makespan exceeds the limit is not entered.  A pad's room
    is limit * (1 + 1e-12) less its load; only the pads (unused ones
    included) whose room fits the smallest remaining time count.  A branch
    is cut when their rooms sum to less than the remaining total (the room
    cut), or when their counts sum to fewer than the remaining times (the
    count cut); a pad's count is the largest k whose k smallest remaining
    times, summed and shrunk by 1 - 1e-12, fit its room.  Both cuts are
    exact: a completion within the limit puts on each pad a set of
    remaining times that fits its room, and such a set grows the pad by at
    least the smallest of them and has no more members than the count.
    Rounding in the loads and in the sums is a few (n + pads) * 2**-53
    relative, far below the 1e-12 slack in the room and in the shrink, so
    it can only raise a room sum or a count.
    """
    n = len(times)
    if pads == 1 or not n:
        return [_queues((0,) * n, pads)]
    band = 1.0 + 1e-9
    lpt = [0.0] * pads  # the LPT loads, summed in input order as _makespan does
    for t, pad in zip(times, _greedy_assignment(times, pads)):
        lpt[pad] += t
    limit = max(lpt) * band
    rest = [0.0] * (n + 1)  # rest[i]: total of times[i:]
    low = [math.inf] * (n + 1)  # low[i]: smallest of times[i:]
    # least[i][k - 1]: the k smallest of times[i:] summed, shrunk by 1 - 1e-12
    least = [None] * n
    suffix = []  # times[i:], sorted
    for i in range(n - 1, -1, -1):
        rest[i] = times[i] + rest[i + 1]
        low[i] = min(times[i], low[i + 1])
        insort(suffix, times[i])
        least[i] = [total * (1.0 - 1e-12) for total in accumulate(suffix)]
    assign = [0] * n
    loads = [0.0] * pads
    found = []

    def recurse(i: int, used: int, cur_max: float):
        nonlocal limit
        room = limit * (1.0 + 1e-12)
        smallest, sums = low[i], least[i]
        spare, fits = 0.0, 0
        for load in loads:
            free = room - load
            if free >= smallest:
                spare += free
                fits += bisect_right(sums, free)
        if spare < rest[i] or fits < n - i:
            return
        t = times[i]
        for pad in range(used + 1 if used < pads else pads):
            # save/restore instead of -=: float subtraction would not
            # exactly undo the addition and the drift corrupts pruning
            prev = loads[pad]
            load = prev + t
            top = load if load > cur_max else cur_max
            if top > limit:
                continue
            assign[i] = pad
            if i + 1 == n:
                found.append((top, tuple(assign)))
                limit = min(limit, top * band)
                continue
            loads[pad] = load
            recurse(i + 1, used if used > pad else pad + 1, top)
            loads[pad] = prev

    recurse(0, 0, 0.0)
    best = min(node_time for node_time, _ in found)
    return [_queues(assign, pads) for node_time, assign in found
            if node_time <= best * band]


def _first_optimum(candidates, times):
    """The least makespan of ``candidates`` on ``times``, and the first
    candidate that reaches it."""
    spans = [_makespan(queues, times) for queues in candidates]
    best = min(spans)
    return best, candidates[spans.index(best)]


def pad_schedule(charge_times: list[float], pads: int) -> PadSchedule:
    """Queue drones on identical pads so the last finish time is minimal.

    ``charge_times`` is indexed by drone; each pad serves its queue in
    input order.  Above ``PAD_EXHAUSTIVE_CAP`` drones the exact search is
    out of reach, and the LPT queues stand in for it.
    """
    if pads < 1:
        raise ValueError(f"pad count must be >= 1, got {pads}")
    for i, t in enumerate(charge_times):
        if not 0 <= t < math.inf:
            raise ValueError(
                f"charge time for drone {i} must be finite and >= 0, got {t}")
    times = tuple(charge_times)
    if len(times) <= PAD_EXHAUSTIVE_CAP:
        _, queues = _first_optimum(pad_candidates(times, pads), times)
    else:
        queues = _queues(_greedy_assignment(times, pads), pads)
    return PadSchedule(queues, _makespan(queues, times))
