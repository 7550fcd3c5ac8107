"""Consumption math and recharge-pad scheduling."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmway.energy import (
    PAD_EXHAUSTIVE_CAP,
    SPARE_BATTERY_WEIGHT_KG,
    SUPPORT_CAPACITY_FACTOR,
    Drone,
    DroneSpec,
    EnergyModel,
    _greedy_assignment,
    _makespan,
    _queues,
    consumption_rate,
    make_delivery_drone,
    make_support_drone,
    pad_candidates,
    pad_schedule,
    travel_time,
)
from swarmway.formations import default_table, make_formation
from swarmway.network import Node, Segment, SkywayNetwork, Wind
from swarmway.planner import feasible_leg
from swarmway.preflight import Swarm

from oracles import (
    brute_pad_assignment,
    brute_pad_makespan,
    lpt_assignment_as_written,
    near_optimal_queues_reference,
    pad_candidates_as_written,
)


def model(payload_gain=1.0):
    return EnergyModel(DroneSpec(), default_table(), payload_gain)


class TestTravelTime:
    def test_basic(self):
        assert travel_time(1000.0, 60.0) == 1.0
        assert travel_time(0.0, 30.0) == 0.0
        assert travel_time(7500.0, 30.0) == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            travel_time(1000.0, 0.0)
        with pytest.raises(ValueError):
            travel_time(-1.0, 30.0)


class TestConsumptionRate:
    def test_formula(self):
        m = model()
        f = make_formation("vee", 3)
        rate = consumption_rate(m, 0.7, f, 1, "head")
        coeff = default_table().coefficient("vee", 1, "head")
        assert rate == m.spec.base_consumption_rate * 1.5 * coeff

    def test_zero_payload_is_base_times_coefficient(self):
        m = model()
        f = make_formation("column", 2)
        coeff = default_table().coefficient("column", 0, "tail")
        assert consumption_rate(m, 0.0, f, 0, "tail") == \
            m.spec.base_consumption_rate * coeff

    def test_payload_gain_scales_the_payload_term(self):
        f = make_formation("column", 2)
        lo = consumption_rate(model(0.5), 1.4, f, 0, "tail")
        hi = consumption_rate(model(2.0), 1.4, f, 0, "tail")
        coeff = default_table().coefficient("column", 0, "tail")
        base = DroneSpec().base_consumption_rate
        assert lo == base * 1.5 * coeff
        assert hi == base * 3.0 * coeff

    def test_support_payload_allowed(self):
        # spare batteries push supports past the delivery payload ceiling
        f = make_formation("column", 2)
        heavy = (SUPPORT_CAPACITY_FACTOR - 1) * SPARE_BATTERY_WEIGHT_KG
        assert consumption_rate(model(), heavy, f, 1, "left") > 0

    def test_validation(self):
        f = make_formation("column", 2)
        with pytest.raises(ValueError):
            consumption_rate(model(), -0.1, f, 0, "head")
        with pytest.raises(ValueError):
            consumption_rate(model(), 1.4 * SUPPORT_CAPACITY_FACTOR + 1, f, 0, "head")
        with pytest.raises(ValueError):
            consumption_rate(model(), 0.5, f, 2, "head")


class TestSegmentConsumption:
    """Per-drone drain over one segment, as ``feasible_leg`` charges it."""

    def net(self, wind):
        return SkywayNetwork(
            [Node(0, 0.0, 0.0, 2), Node(1, 1000.0, 0.0, 2)],
            [Segment(0, 1, 1000.0, wind)],
        )

    def swarm(self):
        spec = DroneSpec()
        d0 = make_delivery_drone(0, 0.7, spec)
        d1 = make_delivery_drone(1, 0.0, spec)
        d1.position = 1
        return Swarm([d0, d1], make_formation("column", 2))

    def test_per_drone_breakdown(self):
        net = self.net(Wind(5.0, 90.0))  # travel heading 0 -> right-side wind
        m = model()
        leg = feasible_leg(self.swarm(), net, 0, 1, m)
        assert leg.sector == "right"
        assert set(leg.consumed) == {0, 1}
        minutes = travel_time(1000.0, m.spec.cruise_speed)
        assert leg.tt == minutes
        for drone_id, slot, payload in ((0, 0, 0.7), (1, 1, 0.0)):
            payload_factor = 1.0 + payload / 1.4
            coeff = default_table().coefficient("column", slot, "right")
            rate = m.spec.base_consumption_rate * payload_factor * coeff
            assert leg.consumed[drone_id] == rate * minutes

    def test_direction_matters(self):
        net = self.net(Wind(5.0, 0.0))
        m = model()
        fwd = feasible_leg(self.swarm(), net, 0, 1, m)
        back = feasible_leg(self.swarm(), net, 1, 0, m)
        assert fwd.sector == "tail"
        assert back.sector == "head"
        assert back.consumed[0] > fwd.consumed[0]

    def test_windless_segment_rejected(self):
        # a leg cannot be asked of a segment without wind: none is built
        with pytest.raises(TypeError, match="wind must be a Wind"):
            self.net(None)


class TestPadSchedule:
    def test_reference_makespans(self):
        times = [60.0, 50.0, 40.0, 30.0, 20.0]
        assert pad_schedule(times, 1).node_time == 200.0
        assert pad_schedule(times, 3).node_time == 70.0
        assert pad_schedule(times, 5).node_time == 60.0

    def test_queues_serve_in_input_order(self):
        s = pad_schedule([5.0, 1.0, 5.0], 1)
        assert s.queues == ((0, 1, 2),)
        assert s.node_time == 11.0

    def test_ties_take_the_lexicographically_smallest_assignment(self):
        s = pad_schedule([10.0, 10.0], 2)
        assert s.queues == ((0,), (1,))

    def test_empty(self):
        s = pad_schedule([], 3)
        assert s.queues == ((), (), ())
        assert s.node_time == 0.0

    def test_zero_duration_entries(self):
        s = pad_schedule([0.0, 0.0, 6.0], 2)
        assert s.node_time == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pad_schedule([1.0], 0)
        with pytest.raises(ValueError):
            pad_schedule([-1.0], 1)

    @pytest.mark.parametrize("times, drone", [
        ([1.0, math.nan, 2.0], 1),
        ([math.nan, 1.0], 0),
        ([math.inf, 1.0], 0),
    ])
    def test_rejects_a_charge_time_that_is_not_finite(self, times, drone):
        with pytest.raises(ValueError,
                           match=f"charge time for drone {drone} must be finite"):
            pad_schedule(times, 2)

    def test_beyond_the_cap_takes_the_lpt_queues(self):
        # LPT loads 3+2+2 | 3+2; the optimum is 3+3 | 2+2+2 = 6
        times = (3.0, 3.0, 2.0, 2.0, 2.0) + (0.0,) * 8
        assert len(times) == PAD_EXHAUSTIVE_CAP + 1
        s = pad_schedule(list(times), 2)
        assert s.queues == _queues(_greedy_assignment(times, 2), 2)
        assert s.node_time == 7.0

    def test_matches_brute_force(self):
        import random

        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 7)
            pads = rng.randint(1, 4)
            times = [round(rng.uniform(0.5, 60.0), 3) for _ in range(n)]
            got = pad_schedule(times, pads).node_time
            want = brute_pad_makespan(times, pads)
            assert got == want, (times, pads)

    @given(
        times=st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=1, max_size=8),
        pads=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_greedy(self, times, pads):
        exact = pad_schedule(times, pads).node_time
        # the LPT queues, which pad_schedule takes above the cap
        times = tuple(times)
        greedy = _makespan(_queues(_greedy_assignment(times, pads), pads), times)
        assert exact <= greedy

    def test_deterministic(self):
        times = [13.25, 4.5, 22.0, 9.75, 13.25]
        a = pad_schedule(times, 3)
        b = pad_schedule(times, 3)
        assert a.queues == b.queues and a.node_time == b.node_time


BAND = 1.0 + 1e-9
EDGE = BAND - 1.0
# Two pads, where {0, 2}/{1, 3} lands within rounding of 1 + 1e-9 times the
# optimum: an unslackened room cut loses it.
BAND_EDGE_CASES = (
    ((3.070693863144389, 3.0706938692857775, 3.070693857003001, 3.070693863144389), 2),
    ((4.536864127939001, 4.5368641370127305, 4.53686414608646, 4.5368641370127305), 2),
)


@st.composite
def pad_inputs(draw):
    """Charge times and a pad count: free floats, identical times, zeros,
    integer ratios of one scale, sets at the edge of the 1e-9 band, and up
    to ten similar times on two or three pads, as the walker's swarms make."""
    pads = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("free", "identical", "zeros", "ratios", "band edge",
                                  "similar")))
    if shape == "free":
        times = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    elif shape == "identical":
        times = [draw(st.floats(0.0, 100.0))] * n
    elif shape == "zeros":
        times = draw(st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=n, max_size=n))
    elif shape == "ratios":  # 1:2:3:4:5 loads tie in several ways, each rounding its own
        scale = draw(st.floats(0.01, 100.0))
        times = [scale * k for k in draw(st.lists(st.integers(1, 5), min_size=n,
                                                  max_size=n))]
    elif shape == "band edge":
        scale = draw(st.floats(0.1, 10.0))
        times = [scale * x for x in draw(st.permutations([0.5, 0.5, 0.5 - EDGE,
                                                          0.5 + EDGE]))]
        pads = 2
    else:  # within 25% of one scale: rooms add up, yet few times fit each pad
        scale = draw(st.floats(0.1, 100.0))
        n = draw(st.integers(1, 10))
        times = [scale * x for x in draw(st.lists(st.floats(0.75, 1.25), min_size=n,
                                                  max_size=n))]
        pads = draw(st.integers(2, 3))
    return tuple(times), pads


def search_nodes(search, times, pads) -> int:
    """Branches a pad search enters: calls of its nested ``recurse``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "recurse":
            calls += 1

    sys.setprofile(count)
    try:
        search(times, pads)
    finally:
        sys.setprofile(None)
    return calls


class TestPadSearch:
    """The pruned search against brute force and against the search
    without the room and count cuts."""

    @given(pad_inputs())
    @example(((0.0, 0.0, 0.0), 2))
    @example(((2.0, 2.0, 2.0), 4))
    @example(BAND_EDGE_CASES[0])
    @settings(max_examples=200, deadline=None)
    def test_schedule_is_the_smallest_float_optimum(self, case):
        times, pads = case
        s = pad_schedule(list(times), pads)
        node_time, queues = brute_pad_assignment(times, pads)
        assert s.queues == queues
        assert repr(s.node_time) == repr(node_time)

    @given(pad_inputs())
    @example(((0.0, 0.0, 0.0), 2))
    @example(BAND_EDGE_CASES[0])
    @example(BAND_EDGE_CASES[1])
    @settings(max_examples=200, deadline=None)
    def test_candidates_match_the_search_without_the_room_cut(self, case):
        times, pads = case
        assert pad_candidates(times, pads) == near_optimal_queues_reference(times, pads)

    @pytest.mark.parametrize("times", [
        (0.25, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 3.0, 2.0, 9.0),
        (0.5, 20.0, 19.0, 18.0, 17.0, 16.0, 15.0, 14.0, 13.0, 12.0),
        (0.125, 1.5, 2.75, 3.5, 4.25, 5.0, 6.5, 7.75, 8.25, 9.5),
    ])
    def test_room_cut_reads_the_smallest_remaining_time(self, times):
        # a small first time fits any pad; the items after it must still cut
        pruned = search_nodes(pad_candidates, times, 3)
        assert 2 * pruned < search_nodes(near_optimal_queues_reference, times, 3)

    def test_count_cut_bites_on_similar_times(self):
        # like times leave rooms that hold the remaining total in branches
        # where too few of the remaining times fit: without the count cut
        # the search enters 499 branches, here 86
        times = tuple(20.0 - 0.75 * k for k in range(10))
        assert search_nodes(pad_candidates, times, 3) < 250
        assert pad_candidates(times, 3) == near_optimal_queues_reference(times, 3)

    @pytest.mark.parametrize("times, pads", [((), 1), ((), 3), ((3.0, 1.0, 2.0), 1)])
    def test_one_pad_or_no_times_open_no_branch(self, times, pads):
        assert search_nodes(pad_candidates, times, pads) == 0
        assert pad_candidates(times, pads) == near_optimal_queues_reference(times, pads)


@st.composite
def search_inputs(draw):
    """``pad_inputs``, or up to ten times drawn from signed zeros, tied
    values and free floats, on one to four pads."""
    if draw(st.booleans()):
        return draw(pad_inputs())
    n = draw(st.integers(1, 10))
    times = draw(st.lists(st.sampled_from((0.0, -0.0, 1.5, 3.0)) | st.floats(0.0, 10.0),
                          min_size=n, max_size=n))
    return tuple(times), draw(st.integers(1, 4))


class TestPadSearchAsWritten:
    """The search with its LPT order, least sums and branch loop trimmed
    against the search as it was written before: the same answers from
    the same branches."""

    @given(search_inputs())
    @example(BAND_EDGE_CASES[0])
    @example(BAND_EDGE_CASES[1])
    @example(((-0.0, 0.0, -0.0, 0.0), 2))
    @example(((0.0, -0.0, 3.0, 3.0, 1.5), 3))
    @example((tuple(20.0 - 0.75 * k for k in range(10)), 3))
    @settings(max_examples=400, deadline=None)
    def test_same_candidates_from_the_same_branches(self, case):
        times, pads = case
        assert _greedy_assignment(times, pads) == lpt_assignment_as_written(times, pads)
        assert pad_candidates(times, pads) == pad_candidates_as_written(times, pads)
        assert (search_nodes(pad_candidates, times, pads)
                == search_nodes(pad_candidates_as_written, times, pads))


class TestDroneTypes:
    def test_spec_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="cruise_speed"):
            DroneSpec(cruise_speed=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spec_rejects_nonfinite_fields(self, value):
        with pytest.raises(ValueError, match="inflight_share_rate"):
            DroneSpec(inflight_share_rate=value)

    def test_delivery_drone(self):
        spec = DroneSpec()
        d = make_delivery_drone(3, 1.1, spec)
        assert d.role == "delivery"
        assert d.capacity == spec.battery_capacity
        with pytest.raises(ValueError, match="exceeds"):
            make_delivery_drone(0, 1.5, spec)

    def test_support_drone(self):
        spec = DroneSpec()
        d = make_support_drone(9, spec)
        assert d.role == "support"
        assert d.capacity == 4 * spec.battery_capacity
        assert d.payload == pytest.approx(3 * SPARE_BATTERY_WEIGHT_KG)

    def test_drone_validation(self):
        with pytest.raises(ValueError):
            Drone(0, "scout", 0.0, 100.0)
        with pytest.raises(ValueError):
            Drone(0, "delivery", -0.1, 100.0)
        for capacity in (-1.0, math.nan):
            with pytest.raises(ValueError, match="capacity"):
                Drone(0, "delivery", 0.0, capacity)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(DroneSpec(), default_table(), -0.5)
