"""Pre-departure swarm construction.

Before a swarm lifts off we fix everything that stays constant in
flight: how many support drones ride along, which formation shape the
swarm flies, and which drone takes which slot.  Sizing uses a failure
estimate built from normalized route factors; positioning trades
delivery-drone safety ("location-aware") against node recharge time
("energy-aware").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import (
    EnergyModel,
    consumption_rate,
    make_delivery_drone,
    make_support_drone,
)
from .formations import FORMATION_KINDS, Formation, make_formation, wind_sector
from .network import (
    MAX_WIND_SPEED,
    DeliveryRequest,
    SkywayNetwork,
    Wind,
    shortest_path_tree,
)

POSITIONING_SETTINGS = ("location-aware", "energy-aware")
DEFAULT_FAILURE_SCALE = 12.0


@dataclass
class Swarm:
    """Drones plus the formation they fly, each drone in its standing slot.

    Planning reads the drones and their slots and never changes them.
    """

    drones: list
    formation: Formation

    def __post_init__(self):
        if len(self.drones) != self.formation.size:
            raise ValueError(
                f"{len(self.drones)} drones cannot fill a "
                f"{self.formation.size}-slot formation"
            )
        slots = sorted(d.position for d in self.drones)
        if slots != list(range(self.formation.size)):
            raise ValueError("drone slots must be a permutation of formation slots")

    def delivery_drones(self) -> list:
        return [d for d in self.drones if d.role == "delivery"]

    def support_drones(self) -> list:
        return [d for d in self.drones if d.role == "support"]


def payload_ratio(weights: list[float], max_payload: float) -> float:
    """Mean package weight as a fraction of the payload ceiling."""
    if not weights:
        raise ValueError("weights must be non-empty")
    if max_payload <= 0:
        raise ValueError(f"max_payload must be > 0, got {max_payload}")
    for w in weights:
        if not 0 < w <= max_payload:
            raise ValueError(f"weight {w} outside (0, {max_payload}]")
    return (sum(weights) / max_payload) / len(weights)


@dataclass(frozen=True)
class FailureInputs:
    """Normalized route factors for the failure estimate."""

    payload: float  # mean payload fraction
    distance: float  # route length over network diameter
    capacity: float  # provider capacity multiplier over its maximum
    wind: float  # mean wind speed over the flight-safe bound

    def __post_init__(self):
        for name in ("payload", "distance", "capacity", "wind"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} factor {value} outside [0, 1]")


def route_failure_inputs(weights: list[float], max_payload: float, distance_m: float,
                         diameter_m: float, wind: Wind) -> FailureInputs:
    """Failure factors for one route, with support drones at full capacity."""
    return FailureInputs(
        payload=payload_ratio(weights, max_payload),
        distance=min(1.0, distance_m / diameter_m),
        capacity=1.0,
        wind=wind.speed / MAX_WIND_SPEED,
    )


def failure_probability(inputs: FailureInputs, scale: float = DEFAULT_FAILURE_SCALE) -> float:
    """Percent chance the swarm needs rescuing, from the factor product."""
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    product = 1.0
    for factor in (inputs.payload, inputs.distance, inputs.capacity, inputs.wind):
        product *= factor
    return 100.0 * min(1.0, scale * product)


def redundancy_count(probability: float, n_delivery: int) -> int:
    """Support drones to attach for a failure probability band.

    Bands widen in 20-point steps; at 80 or above the swarm doubles
    (one support per delivery drone).
    """
    if not 0.0 <= probability <= 100.0:
        raise ValueError(f"probability {probability} outside [0, 100]")
    if n_delivery < 1:
        raise ValueError(f"need at least one delivery drone, got {n_delivery}")
    if probability >= 80.0:
        return n_delivery
    return 1 + int(probability // 20.0)


def select_formation(
    swarm_size: int,
    avg_wind: Wind,
    heading_deg: float,
    model: EnergyModel,
) -> Formation:
    """Cheapest formation for the expected wind, by neutral-payload swarm draw.

    A single drone has no formation effect and defaults to a column.
    Ties go to the earlier kind in declaration order.
    """
    if swarm_size < 1:
        raise ValueError(f"swarm size must be >= 1, got {swarm_size}")
    if swarm_size == 1:
        return make_formation("column", 1)
    sector = wind_sector(heading_deg, avg_wind)
    best = None
    best_total = math.inf
    for kind in FORMATION_KINDS:
        formation = make_formation(kind, swarm_size)
        total = sum(
            consumption_rate(model, 0.0, formation, slot, sector)
            for slot in range(swarm_size)
        )
        if total < best_total:
            best, best_total = formation, total
    return best


def assign_positions(
    swarm: Swarm,
    setting: str,
    sector: str,
    model: EnergyModel,
) -> dict[int, int]:
    """Map drone ids to formation slots under a positioning policy.

    location-aware: delivery drones take the cheapest slots (heaviest
    payload first) and support drones absorb the dearest ones.
    energy-aware: support drones fly the cheapest slots so they arrive
    at nodes fuller; delivery drones fill the rest by payload.
    Ties always fall back to ascending drone id.
    """
    if setting not in POSITIONING_SETTINGS:
        raise ValueError(f"unknown positioning {setting!r}")
    order = model.coeffs.slot_order(swarm.formation.kind, sector, swarm.formation.size)
    delivery = sorted(swarm.delivery_drones(), key=lambda d: (-d.payload, d.id))
    support = sorted(swarm.support_drones(), key=lambda d: d.id)
    assignment: dict[int, int] = {}
    if setting == "location-aware":
        for drone, slot in zip(delivery, order):
            assignment[drone.id] = slot
        for drone, slot in zip(support, reversed(order[len(delivery):])):
            assignment[drone.id] = slot
    else:
        for drone, slot in zip(support, order):
            assignment[drone.id] = slot
        for drone, slot in zip(delivery, order[len(support):]):
            assignment[drone.id] = slot
    for drone in swarm.drones:
        drone.position = assignment[drone.id]
    return assignment


def route_average_wind(net: SkywayNetwork, path: list[int]) -> Wind:
    """Mean wind over a node path: arithmetic speed, circular direction."""
    if len(path) < 2:
        raise ValueError("path needs at least one segment")
    speeds = []
    vx = vy = 0.0
    for u, v in zip(path, path[1:]):
        wind = net.segment(u, v).wind
        speeds.append(wind.speed)
        vx += math.cos(math.radians(wind.direction))
        vy += math.sin(math.radians(wind.direction))
    direction = math.degrees(math.atan2(vy, vx)) % 360.0 if (vx or vy) else 0.0
    return Wind(sum(speeds) / len(speeds), direction)


def network_diameter(net: SkywayNetwork) -> float:
    """Largest finite shortest-path distance between any node pair.

    The float a Dijkstra from every node gives, from a few of them.  On
    undirected lengths ecc(x) <= ecc(v) + d(v, x), so a tree from v whose
    largest distance is M(v) bounds M(x) by up[x] = M(v) + dist[x].  The
    next root is the open node with the largest bound, ties to the smaller
    id; a node whose bound times 1 + 1e-9 is below the best M so far is
    dropped.  Each float distance is the least left-to-right float sum over
    paths of at most |nodes| hops, so within |nodes| * 2**-53 of the real
    one, relative.  Up to a million nodes the slack covers the errors of
    M(v), dist[x] and M(x), so a dropped node could not have raised the
    maximum.  Other components keep up = inf and get a root of their own.
    """
    best = 0.0
    up = dict.fromkeys(net.nodes, math.inf)
    while up:
        root = min(up, key=lambda x: (-up[x], x))
        dist = shortest_path_tree(net, root).dist
        ecc = max(dist.values())
        best = max(best, ecc)
        del up[root]
        for x, d in dist.items():
            if x in up:
                up[x] = min(up[x], ecc + d)
        up = {x: b for x, b in up.items() if not b * (1.0 + 1e-9) < best}
    return best


def build_swarm(
    request: DeliveryRequest,
    model: EnergyModel,
    *,
    positioning: str = "location-aware",
    include_support: bool = True,
    route_wind: Wind,
    route_heading: float,
    route_distance_m: float,
    diameter_m: float,
    failure_scale: float = DEFAULT_FAILURE_SCALE,
) -> Swarm:
    """Size, shape, and position a fresh fully-charged swarm for one request."""
    n = len(request.package_weights)
    drones = [
        make_delivery_drone(i, w, model.spec)
        for i, w in enumerate(request.package_weights)
    ]
    if include_support:
        inputs = route_failure_inputs(request.package_weights, model.spec.max_payload,
                                      route_distance_m, diameter_m, route_wind)
        probability = failure_probability(inputs, failure_scale)
        for k in range(redundancy_count(probability, n)):
            drones.append(make_support_drone(n + k, model.spec))
    formation = select_formation(len(drones), route_wind, route_heading, model)
    for slot, drone in enumerate(drones):
        drone.position = slot
    swarm = Swarm(drones, formation)
    assign_positions(swarm, positioning, wind_sector(route_heading, route_wind), model)
    return swarm
