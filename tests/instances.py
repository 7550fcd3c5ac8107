"""Random instance builders shared by the tests, and the sums over a
sharing plan's allocations.

In the sharing instances every quantity is a small dyadic rational
(multiples of 1/4 or finer on values, powers of two on rates), so composer
arithmetic and closed-form oracle arithmetic are both exact and results can
be compared with ==.
"""

import math
import random

from hypothesis import strategies as st

from swarmway.network import Node, Segment, SkywayNetwork, Wind

PROVIDER_ID = 100

# the wind of worlds that test only distances: a constant, not a draw
CALM = Wind(0.0, 0.0)


def dyadic_instance(rng: random.Random) -> dict:
    """One energy-sharing scenario: 1-4 consumers, one provider."""
    n = rng.randint(1, 4)
    consumer_ids = list(range(1, n + 1))
    batteries = {}
    capacities = {}
    rates = {}
    for cid in consumer_ids:
        cap = float(rng.randrange(2048, 16385, 256))
        batteries[cid] = rng.randrange(0, int(cap) * 4 + 1) / 4.0
        capacities[cid] = cap
        rates[cid] = rng.randrange(0, 257) / 4.0
    batteries[PROVIDER_ID] = float(rng.randrange(8192, 65537, 256))
    capacities[PROVIDER_ID] = 65536.0
    rates[PROVIDER_ID] = rng.randrange(0, 257) / 4.0
    return {
        "batteries": batteries,
        "capacities": capacities,
        "rates": rates,
        "consumer_ids": consumer_ids,
        "provider_id": PROVIDER_ID,
        "share_rate": float(rng.choice((4, 8, 16))),
        "tt": float(rng.randint(1, 200)),
        "gamma": rng.randrange(0, 17) / 16.0,
        "ae": rng.randrange(0, 131073) / 4.0,
        "quantum": rng.randrange(1, 65537) / 4.0,
        "reserve": rng.randrange(0, 65537) / 4.0,
    }


def transfer_sums(plan) -> tuple[dict[int, float], dict[int, float]]:
    """What each provider gave and each consumer gained, summed over the
    plan's allocations in order."""
    given, gained = {}, {}
    for a in plan.allocations:
        given[a.provider] = given.get(a.provider, 0.0) + a.amount
        gained[a.consumer] = gained.get(a.consumer, 0.0) + a.amount
    return given, gained


@st.composite
def directed_cost_worlds(draw):
    """A small graph, segments inserted in a drawn order, and directed
    costs that may be inf; lengths and costs are small integers (many
    ties) or free floats."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = draw(st.permutations([p for p, k in zip(pairs, keep) if k]))
    weight = (st.integers(1, 3).map(float) if draw(st.booleans())
              else st.floats(0.5, 50.0, allow_nan=False))
    segs = [Segment(u, v, draw(weight), CALM) for u, v in chosen]
    costs = {}
    for u, v in chosen:
        for a, b in ((u, v), (v, u)):
            costs[(a, b)] = draw(st.one_of(weight, st.just(math.inf)))
    return SkywayNetwork([Node(i, 0.0, 0.0, 1) for i in range(n)], segs), costs
