"""Swarm drone delivery planning over skyway networks.

Drone swarms carry multi-package deliveries across a graph of
recharging-pad nodes.  Support drones can transfer energy to delivery
drones mid-flight, which lets a swarm skip recharge stops; the planner
composes routes leg by leg, falling back to pad stops only when the
batteries (even with sharing) cannot cover the remaining shortest path.
"""

from .energy import (
    Drone,
    DroneSpec,
    EnergyModel,
    PadSchedule,
    consumption_rate,
    make_delivery_drone,
    make_support_drone,
    pad_schedule,
    travel_time,
)
from .formations import (
    CoefficientTable,
    Formation,
    default_table,
    load_coefficients,
    make_formation,
    wind_sector,
)
from .network import (
    DeliveryRequest,
    NetworkFormatError,
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    largest_connected_component,
    load_network,
    load_requests,
    save_network,
    shortest_path_tree,
    synthesize_network,
    synthesize_requests,
)
from .planner import (
    DeliveryPlan,
    LegOutcome,
    ShareConfig,
    compose,
    dijkstra_baseline,
    feasible_leg,
    floyd_warshall_baseline,
)
from .preflight import (
    FailureInputs,
    Swarm,
    assign_positions,
    build_swarm,
    failure_probability,
    redundancy_count,
    select_formation,
)
from .sharing import (
    SharingPlan,
    fb_compose,
    pb_compose,
)

__version__ = "0.1.0"
