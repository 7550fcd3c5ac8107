"""Skyway network model: recharging-pad nodes joined by wind-bearing segments.

A network is loaded from (or saved to) a two-section CSV file and stays
immutable afterwards.  Every segment carries its wind.  Requests and whole
synthetic networks, wind included, can be generated deterministically from
a seed.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from collections.abc import Container
from dataclasses import dataclass, field

MAX_WIND_SPEED = 13.8  # m/s, flight-safe bound (exclusive)


class NetworkFormatError(ValueError):
    """Raised when a network, request or coefficient file cannot be parsed."""


@dataclass(frozen=True)
class Wind:
    """Wind over one segment.

    ``direction`` is the bearing the air moves toward, in degrees
    counterclockwise from the +x axis.  It wraps modulo 360 on construction.
    """

    speed: float
    direction: float

    def __post_init__(self):
        if not 0.0 <= self.speed < MAX_WIND_SPEED:
            raise ValueError(
                f"wind speed {self.speed} outside [0, {MAX_WIND_SPEED})"
            )
        if not math.isfinite(self.direction):
            raise ValueError(f"wind direction must be finite, got {self.direction}")
        object.__setattr__(self, "direction", self.direction % 360.0)


@dataclass(frozen=True)
class Node:
    """A skyway stop: coordinates in meters plus its recharging pad count."""

    id: int
    x: float
    y: float
    pads: int

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"node {self.id}: coordinates must be finite, got ({self.x}, {self.y})"
            )
        if self.pads < 0:
            raise ValueError(f"node {self.id}: pads must be >= 0, got {self.pads}")


@dataclass(frozen=True)
class Segment:
    """Undirected link between two nodes, with its wind; stored once per pair."""

    u: int
    v: int
    distance_m: float
    wind: Wind

    def __post_init__(self):
        if not isinstance(self.wind, Wind):
            raise TypeError(f"segment ({self.u}, {self.v}): wind must be a Wind, "
                            f"got {self.wind!r}")
        if self.u == self.v:
            raise ValueError(f"segment endpoints must differ, got {self.u}")
        if not 0 < self.distance_m < math.inf:
            raise ValueError(
                f"segment ({self.u}, {self.v}): distance must be finite and > 0, "
                f"got {self.distance_m}"
            )


@dataclass
class DeliveryRequest:
    """A package delivery order: one weight per package, one drone per package."""

    id: int
    source: int
    destination: int
    package_weights: list[float]

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError(f"request {self.id}: source equals destination")
        if not self.package_weights:
            raise ValueError(f"request {self.id}: needs at least one package")
        for w in self.package_weights:
            if not 0 < w < math.inf:
                raise ValueError(f"request {self.id}: weight {w} must be finite and > 0")


class SkywayNetwork:
    """Immutable node/segment store with an adjacency index."""

    def __init__(self, nodes: list[Node], segments: list[Segment]):
        self.nodes: dict[int, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node
        self.segments: list[Segment] = []
        self._adj: dict[int, dict[int, Segment]] = {nid: {} for nid in self.nodes}
        for seg in segments:
            for end in (seg.u, seg.v):
                if end not in self.nodes:
                    raise ValueError(
                        f"segment ({seg.u}, {seg.v}) references unknown node {end}"
                    )
            if seg.v in self._adj[seg.u]:
                raise ValueError(f"duplicate segment ({seg.u}, {seg.v})")
            self.segments.append(seg)
            self._adj[seg.u][seg.v] = seg
            self._adj[seg.v][seg.u] = seg

    def neighbors(self, node_id: int) -> list[int]:
        """Adjacent node ids, ascending."""
        return sorted(self._adj[node_id])

    def segment(self, u: int, v: int) -> Segment:
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"no segment between {u} and {v}") from None

    def heading(self, u: int, v: int) -> float:
        """Travel bearing u -> v in degrees CCW from +x."""
        a, b = self.nodes[u], self.nodes[v]
        return math.degrees(math.atan2(b.y - a.y, b.x - a.x)) % 360.0


def read_rows(path, parse) -> None:
    """Call ``parse(row, lineno)`` on each row of the CSV file at ``path``
    that is not blank; a ValueError it raises is re-raised as a
    NetworkFormatError that starts with the 1-based line number."""
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if row and (len(row) > 1 or row[0].strip()):
                try:
                    parse(row, lineno)
                except ValueError as exc:
                    raise NetworkFormatError(f"line {lineno}: {exc}") from None


def load_network(path) -> SkywayNetwork:
    """Parse the two-section ``nodes``/``segments`` CSV format.

    Node rows are ``id,x,y,pads``; segment rows are
    ``u,v,distance_m,wind_speed,wind_dir``, and a row without the wind is
    rejected.  Parse errors carry the 1-based line number.
    """
    nodes: list[Node] = []
    segments: list[Segment] = []
    section = None

    def parse(row, lineno):
        nonlocal section
        head = row[0].strip().lower()
        if head in ("nodes", "segments") and len(row) == 1:
            section = head
        elif section is None:
            raise ValueError("expected a 'nodes' section header first")
        elif section == "nodes":
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            nodes.append(Node(int(row[0]), float(row[1]), float(row[2]), int(row[3])))
        elif len(row) == 3:
            raise ValueError(
                f"segment ({int(row[0])}, {int(row[1])}) has no wind data; "
                "planning needs wind speed and direction on every segment"
            )
        elif len(row) != 5:
            raise ValueError(f"expected 5 fields, got {len(row)}")
        else:
            segments.append(Segment(int(row[0]), int(row[1]), float(row[2]),
                                    Wind(float(row[3]), float(row[4]))))

    read_rows(path, parse)
    try:
        return SkywayNetwork(nodes, segments)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from None


def save_network(net: SkywayNetwork, path) -> None:
    """Write a network in the format ``load_network`` reads; round-trips losslessly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nodes"])
        for nid in sorted(net.nodes):
            node = net.nodes[nid]
            writer.writerow([node.id, repr(node.x), repr(node.y), node.pads])
        writer.writerow(["segments"])
        for seg in sorted(net.segments, key=lambda s: (s.u, s.v)):
            writer.writerow([seg.u, seg.v, repr(seg.distance_m),
                             repr(seg.wind.speed), repr(seg.wind.direction)])


def load_requests(path, max_weight: float | None = None,
                  nodes: Container[int] | None = None) -> list[DeliveryRequest]:
    """Read request rows ``id,source,dest,w1;w2;...``, rejecting repeated
    ids, and packages over ``max_weight`` and node ids outside ``nodes``
    when those are given."""
    requests = []
    first_line: dict[int, int] = {}  # request id -> line that defined it

    def parse(row, lineno):
        if len(row) != 4:
            raise ValueError(f"expected 4 fields, got {len(row)}")
        weights = [float(w) for w in row[3].split(";") if w]
        req = DeliveryRequest(int(row[0]), int(row[1]), int(row[2]), weights)
        if max_weight is not None:
            for w in weights:
                if w > max_weight:
                    raise ValueError(f"request {req.id}: weight {w} exceeds {max_weight}")
        for nid in (req.source, req.destination):
            if nodes is not None and nid not in nodes:
                raise ValueError(f"request {req.id}: unknown node {nid}")
        if req.id in first_line:
            raise ValueError(f"request id {req.id} repeats line {first_line[req.id]}")
        first_line[req.id] = lineno
        requests.append(req)

    read_rows(path, parse)
    return requests


def largest_connected_component(net: SkywayNetwork) -> SkywayNetwork:
    """Induced subgraph on the largest component, each component being the
    nodes a ``shortest_path_tree`` from its smallest id reaches.

    Size ties go to the component containing the smallest node id.
    """
    if not net.nodes:
        raise ValueError("empty network has no components")
    seen: set[int] = set()
    best: set[int] = set()
    for start in sorted(net.nodes):
        if start not in seen:
            comp = set(shortest_path_tree(net, start).dist)
            seen |= comp
            # strict > keeps the earlier (smaller-min-id) component on ties
            if len(comp) > len(best):
                best = comp
    nodes = [net.nodes[nid] for nid in sorted(best)]
    segs = [s for s in net.segments if s.u in best and s.v in best]
    return SkywayNetwork(nodes, segs)


def synthesize_requests(net: SkywayNetwork, n: int, seed: int) -> list[DeliveryRequest]:
    """Draw ``n`` delivery requests with distinct endpoints and per-package weights.

    Weights are uniform in (0, 1.4] kg; package counts uniform over 2..5.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n (the request count) must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"request count must be >= 0, got {n}")
    if len(net.nodes) < 2:
        raise ValueError("need at least 2 nodes to draw requests")
    rng = random.Random(seed)
    ids = sorted(net.nodes)
    requests = []
    for rid in range(n):
        src, dst = rng.sample(ids, 2)
        count = rng.randint(2, 5)
        # 1 - random() lies in (0, 1], keeping weights strictly positive
        weights = [1.4 * (1.0 - rng.random()) for _ in range(count)]
        requests.append(DeliveryRequest(rid, src, dst, weights))
    return requests


def synthesize_network(n_nodes: int, seed: int, *,
                       pads: tuple[int, int] = (1, 3)) -> SkywayNetwork:
    """Generate a clustered geometric skyway network.

    Nodes scatter around 8 randomly placed cluster centers in a 30 km
    square, clamped into it, and link to their 3 nearest neighbors within
    6 km (ties to the smaller id), so segment lengths stay mostly short
    while cluster-to-cluster bridges come out long.  The links come from a
    ring search over cells sized to the nodes' density (``_nearest_links``),
    so that step grows about as n, not n**2, in the fixed square.  Pad
    counts are uniform over the inclusive ``pads`` range.
    Each segment's wind is drawn from its own ``random.Random(seed)`` in
    (u, v) order: speed uniform in [0, 13.8) m/s, then direction uniform in
    [0, 360).  The result is usually disconnected; pass it through
    ``largest_connected_component``.
    """
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, int):
        raise ValueError(f"n_nodes must be an int, got {n_nodes!r}")
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if not (isinstance(pads, (tuple, list)) and len(pads) == 2
            and all(isinstance(p, int) for p in pads) and 0 <= pads[0] <= pads[1]):
        raise ValueError(f"pads must be two ints with 0 <= lo <= hi, got {pads!r}")
    rng = random.Random(seed)
    area = 30000.0
    centers = [(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(8)]
    nodes = []
    for nid in range(n_nodes):
        cx, cy = centers[rng.randrange(8)]
        x = min(max(rng.gauss(cx, 2000.0), 0.0), area)
        y = min(max(rng.gauss(cy, 2000.0), 0.0), area)
        nodes.append(Node(nid, x, y, rng.randint(*pads)))

    def dist(a: Node, b: Node) -> float:
        return math.hypot(a.x - b.x, a.y - b.y)

    pairs = _nearest_links(nodes, 6000.0, 3)
    # bridge each cluster toward its nearest distinct cluster so long
    # segments exist between dense regions
    for cx, cy in centers:
        members, others = [], []
        for n in nodes:
            r = math.hypot(n.x - cx, n.y - cy)
            if r < 4000.0:
                members.append(n)
            elif r >= 8000.0:
                others.append(n)
        if not members or not others:
            continue
        a = members[rng.randrange(len(members))]
        b = min(others, key=lambda o: (dist(a, o), o.id))
        pairs.add((min(a.id, b.id), max(a.id, b.id)))

    by_id = {n.id: n for n in nodes}
    wind_rng = random.Random(seed)
    segments = []
    for u, v in sorted(pairs):
        d = round(dist(by_id[u], by_id[v]), 1)
        # boundary clamping can co-locate nodes; no flyable segment there
        if d > 0:
            wind = Wind(wind_rng.uniform(0.0, MAX_WIND_SPEED),
                        wind_rng.uniform(0.0, 360.0))
            segments.append(Segment(u, v, d, wind))
    return SkywayNetwork(nodes, segments)


def _nearest_links(nodes: list[Node], reach: float, k: int) -> set[tuple[int, int]]:
    """Pairs joining each node to its ``k`` nearest others within ``reach``,
    nearest first and ties to the smaller id, found by a ring search.

    The nodes go into square cells of side about span / sqrt(n), one node a
    cell over their bounding square, clamped to [reach / 16, reach].  Each
    node scans the Chebyshev rings of cells 0, 1, 2, ... around its own,
    keeping the (distance, id) pairs within reach, and stops after ring r
    once ``limit < r * cell``: ``limit`` is the k-th smallest distance held,
    or ``reach`` while fewer than k are held.

    The stop is exact for ``synthesize_network``'s nodes, which lie in the
    30 km square, at its 6 km reach.  There x / cell is at most 80 at the
    375 m floor, so ``x // cell`` is the exact floor, and a node b in ring
    r + 1 or beyond is more than r * cell off node a along one axis.
    Rounding is monotone, so the computed offset is at least the float
    ``r * cell``, and a faithful ``hypot(dx, dy)`` is never below
    max(|dx|, |dy|): b is strictly farther than ``limit``, so it is out of
    reach or cannot displace a pair held.

    Without the floor, co-located nodes (clamping piles nodes on the
    square's edges), or a node with fewer than k others in reach, would
    scan about (reach / cell)**2 cells.  With it the reach is at most 16
    cells, so no node scans past ring 17.
    """
    pairs: set[tuple[int, int]] = set()
    if not nodes:
        return pairs
    xs = [node.x for node in nodes]
    ys = [node.y for node in nodes]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    cell = max(min(span / math.sqrt(len(nodes)), reach), reach / 16)
    grid: dict[tuple[int, int], list[Node]] = {}
    for node in nodes:
        grid.setdefault((int(node.x // cell), int(node.y // cell)), []).append(node)
    rings: list[list[tuple[int, int]]] = []
    for node in nodes:
        x, y = node.x, node.y
        gx, gy = int(x // cell), int(y // cell)
        near = []
        r = 0
        while True:
            if r == len(rings):
                side, edge = range(-r, r + 1), ((-r, r) if r else (0,))
                rings.append([(dx, dy) for dx in side for dy in edge]
                             + [(dx, dy) for dy in side[1:-1] for dx in edge])
            for dx, dy in rings[r]:
                for other in grid.get((gx + dx, gy + dy), ()):
                    d = math.hypot(x - other.x, y - other.y)
                    if d <= reach and other.id != node.id:
                        near.append((d, other.id))
            near.sort()
            limit = near[k - 1][0] if len(near) >= k else reach
            if limit < r * cell:
                break
            r += 1
        for _, oid in near[:k]:
            pairs.add((min(node.id, oid), max(node.id, oid)))
    return pairs


@dataclass
class PathTree:
    """Single-source shortest distances with parent pointers toward the root."""

    root: int
    dist: dict[int, float]
    parent: dict[int, int | None] = field(repr=False, default_factory=dict)

    def distance(self, node: int) -> float:
        return self.dist.get(node, math.inf)

    def path_to_root(self, node: int) -> list[int]:
        """Node sequence node -> ... -> root; empty when unreachable."""
        if node not in self.dist:
            return []
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path


def shortest_path_tree(net: SkywayNetwork, root: int, costs=None,
                       target: int | None = None) -> PathTree:
    """Dijkstra from ``root``; ties keep the first-found parent.

    Edges weigh their segment distance, or ``costs[(u, v)]`` for the
    directed step u -> v when ``costs`` is given; ``inf`` edges are skipped.
    Nodes settle in (distance, id) order while every edge lengthens the
    paths through it, so neither the result nor its ties depend on the
    order segments were added.  With a ``target`` the search stops once it
    settles, and the tree holds only the nodes settled so far: each edge
    costs >= 0 and a relax needs a strict <, so no later node can lower a
    settled node's distance or change its parent, and the target's route
    is the full tree's.  Nodes not yet settled read as unreached.
    """
    dist: dict[int, float] = {root: 0.0}  # tentative until settled
    parent: dict[int, int | None] = {root: None}
    settled: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, root)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in settled:
            continue
        settled[cur] = d
        if cur == target:
            break
        for nb, seg in net._adj[cur].items():
            w = seg.distance_m if costs is None else costs[(cur, nb)]
            if w == math.inf:
                continue
            nd = d + w
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                parent[nb] = cur
                heapq.heappush(heap, (nd, nb))
    return PathTree(root, settled, parent)
