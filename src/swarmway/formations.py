"""Flight formations and the consumption coefficient table.

Five formation shapes are supported.  A formation instance is built for a
specific swarm size; slot 0 leads and the remaining slots trail it at
1 m spacing, which keeps every slot within the 1.2 m energy-transfer
range of at least one other slot.

Per-slot consumption multipliers come from a coefficient table keyed by
(formation kind, slot, wind sector).  The shipped default table is
synthetic but deliberately structured:

* under head wind the vee is the cheapest shape overall, and its lead
  slot is the single most expensive place to fly (coefficient 1.2);
* under side wind the diamond is cheapest;
* within one (kind, sector) all slot coefficients are distinct, so
  "best slot" and "worst slot" are well defined;
* the cheapest-k and most-expensive-k slot groups are never mutually
  adjacent, so a support drone parked at either extreme always has a
  delivery drone next to it to swap with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import NetworkFormatError, Wind, read_rows

FORMATION_KINDS = ("column", "front", "echelon", "vee", "diamond")
WIND_SECTORS = ("head", "tail", "left", "right")
SHARING_RANGE_M = 1.2
TABLE_SLOTS = 12  # slots covered by the default coefficient table

_S = math.sqrt(0.5)  # diagonal step that keeps neighbor spacing at 1 m


@dataclass(frozen=True)
class Formation:
    """Slot geometry for one swarm size. Offsets are meters, +y is ahead."""

    kind: str
    slots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in FORMATION_KINDS:
            raise ValueError(f"unknown formation kind {self.kind!r}")
        if not self.slots:
            raise ValueError("formation needs at least one slot")

    @property
    def size(self) -> int:
        return len(self.slots)

    def neighbors(self, slot: int) -> list[int]:
        """Slots within energy-transfer range of ``slot``."""
        sx, sy = self.slots[slot]
        out = []
        for j, (x, y) in enumerate(self.slots):
            if j != slot and math.hypot(x - sx, y - sy) <= SHARING_RANGE_M:
                out.append(j)
        return out

    def adjacent(self, a: int, b: int) -> bool:
        ax, ay = self.slots[a]
        bx, by = self.slots[b]
        return math.hypot(ax - bx, ay - by) <= SHARING_RANGE_M


def _slot_offset(kind: str, i: int) -> tuple[float, float]:
    if kind == "column":
        return (0.0, -float(i))
    if kind == "front":
        return (float(i), 0.0)
    if kind == "echelon":
        return (i * _S, -i * _S)
    if kind == "vee":
        if i == 0:
            return (0.0, 0.0)
        depth = (i + 1) // 2
        side = -1.0 if i % 2 else 1.0
        return (side * depth * _S, -depth * _S)
    # diamond: 4-slot cell, then a single-file tail hanging off slot 3
    if i == 0:
        return (0.0, 0.0)
    if i == 1:
        return (-_S, -_S)
    if i == 2:
        return (_S, -_S)
    if i == 3:
        return (0.0, -2 * _S)
    return (0.0, -2 * _S - (i - 3))


def make_formation(kind: str, size: int) -> Formation:
    if size < 1:
        raise ValueError(f"formation size must be >= 1, got {size}")
    return Formation(kind, tuple(_slot_offset(kind, i) for i in range(size)))


def wind_sector(heading_deg: float, wind: Wind) -> str:
    """Quantize wind relative to a travel heading.

    ``tail`` means the air moves with travel, ``head`` against it;
    ``left``/``right`` name the side the wind comes from.
    """
    rel = (wind.direction - heading_deg) % 360.0
    if rel < 45.0 or rel >= 315.0:
        return "tail"
    if rel < 135.0:
        return "right"
    if rel < 225.0:
        return "head"
    return "left"


class CoefficientTable:
    """Lookup of consumption multipliers by (formation kind, slot, sector)."""

    def __init__(self, values: dict[tuple[str, int, str], float]):
        if not values:
            raise ValueError("coefficient table is empty")
        for (kind, slot, sector), coeff in values.items():
            if kind not in FORMATION_KINDS:
                raise ValueError(f"unknown formation kind {kind!r}")
            if sector not in WIND_SECTORS:
                raise ValueError(f"unknown wind sector {sector!r}")
            if slot < 0:
                raise ValueError(f"negative slot {slot}")
            if not 0 < coeff < math.inf:
                raise ValueError(f"coefficient for {(kind, slot, sector)} must be "
                                 f"finite and > 0, got {coeff}")
        self._values = dict(values)

    def coefficient(self, kind: str, slot: int, sector: str) -> float:
        try:
            return self._values[(kind, slot, sector)]
        except KeyError:
            raise ValueError(
                f"no coefficient for formation {kind!r} slot {slot} sector {sector!r}"
            ) from None

    def max_slots(self, kind: str) -> int:
        slots = [s for (k, s, _), _ in self._values.items() if k == kind]
        return max(slots) + 1 if slots else 0

    def slot_order(self, kind: str, sector: str, size: int) -> list[int]:
        """Occupied slots 0..size-1 sorted cheapest first (slot index breaks ties)."""
        return sorted(range(size), key=lambda s: (self.coefficient(kind, s, sector), s))


# Per-sector cost level of each shape; slot spread is added on top.
_SECTOR_BASE = {
    "head": {"column": 1.01, "front": 1.05, "echelon": 0.99, "vee": 0.95, "diamond": 1.03},
    "tail": {"column": 0.92, "front": 1.02, "echelon": 0.96, "vee": 0.98, "diamond": 1.00},
    "left": {"column": 1.08, "front": 1.02, "echelon": 1.04, "vee": 1.06, "diamond": 0.94},
    "right": {"column": 1.08, "front": 1.02, "echelon": 1.04, "vee": 1.06, "diamond": 0.94},
}
_SECTOR_SPREAD = {"head": (-0.15, 0.25), "tail": (-0.10, 0.10),
                  "left": (-0.12, 0.12), "right": (-0.12, 0.12)}

# Slot ranking from cheapest to dearest.  Within each list the cheap half
# and the expensive half are each pairwise non-adjacent in the geometry,
# and the lead slot is always ranked worst.
_RANK_ORDER = {
    "column": (1, 3, 5, 7, 9, 11, 10, 8, 6, 4, 2, 0),
    "front": (1, 3, 5, 7, 9, 11, 10, 8, 6, 4, 2, 0),
    "echelon": (1, 3, 5, 7, 9, 11, 10, 8, 6, 4, 2, 0),
    "vee": (1, 2, 5, 6, 9, 10, 3, 4, 7, 8, 11, 0),
    "diamond": (1, 2, 4, 6, 8, 10, 5, 7, 9, 11, 3, 0),
}


def default_table() -> CoefficientTable:
    """The shipped coefficient table (values in [0.8, 1.3], see module docstring)."""
    values = {}
    for kind in FORMATION_KINDS:
        ranks = {slot: r for r, slot in enumerate(_RANK_ORDER[kind])}
        for sector in WIND_SECTORS:
            base = _SECTOR_BASE[sector][kind]
            lo, hi = _SECTOR_SPREAD[sector]
            for slot in range(TABLE_SLOTS):
                frac = ranks[slot] / (TABLE_SLOTS - 1)
                values[(kind, slot, sector)] = round(base + lo + (hi - lo) * frac, 6)
    return CoefficientTable(values)


def load_coefficients(path) -> CoefficientTable:
    """Read ``formation,slot,wind_sector,coefficient`` rows.

    Every kind in the file must cover every wind sector for each slot
    below its ``max_slots``; the first gap is named.
    """
    values = {}

    def parse(row, lineno):
        if row[0] == "formation":
            return
        if len(row) != 4:
            raise ValueError(f"expected 4 fields, got {len(row)}")
        values[(row[0], int(row[1]), row[2])] = float(row[3])

    read_rows(path, parse)
    try:
        table = CoefficientTable(values)
        for kind in FORMATION_KINDS:
            for slot in range(table.max_slots(kind)):
                for sector in WIND_SECTORS:
                    table.coefficient(kind, slot, sector)
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    return table
