"""How pb_compose files its own requests, both sharing composers, and slot swaps."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmway.energy import DroneSpec, make_delivery_drone, make_support_drone
from swarmway.formations import make_formation
from swarmway.preflight import Swarm
from swarmway import sharing
from swarmway.sharing import (
    LEAST_FILING,
    Allocation,
    ShareContext,
    SharingPlan,
    SwapEvent,
    _fb_idle,
    _pb_idle,
    fb_compose,
    pb_compose,
    reorder_fixed,
)

from instances import PROVIDER_ID, dyadic_instance, transfer_sums
from oracles import fb_oracle, pb_oracle


def make_ctx(inst):
    return ShareContext(
        batteries=inst["batteries"],
        capacities=inst["capacities"],
        rates=inst["rates"],
        consumer_ids=inst["consumer_ids"],
        share_rate=inst["share_rate"],
        provider_id=inst["provider_id"],
        offer=inst["ae"],
    )


class TestGenerateRequests:
    """pb_compose files its own requests; these pin when and for how much."""

    def serve(self, batteries, gamma, *, rates=None, tt=10.0, share_rate=1024.0):
        ctx = ShareContext(
            batteries={**batteries, 9: 65536.0},
            capacities={1: 4096.0, 2: 4096.0, 9: 65536.0},
            rates={1: 0.0, 2: 0.0, 9: 0.0, **(rates or {})},
            consumer_ids=[1, 2],
            share_rate=share_rate,
            provider_id=9,
            offer=65536.0,
        )
        return pb_compose(ctx, tt, gamma)

    def test_threshold_is_strict(self):
        # 0.75 * 4096 = 3072 exactly in binary
        res = self.serve({1: 3071.5, 2: 3072.0}, 0.75)
        assert [(a.consumer, a.start, a.amount) for a in res.plan.allocations] == \
            [(1, 0.0, 4096.0 - 3071.5)]

    def test_full_battery_files_nothing(self):
        res = self.serve({1: 4096.0, 2: 4096.0}, 1.0)
        assert res.plan.allocations == []

    def test_open_requests_not_duplicated(self):
        # drone 1 waits through drone 2's larger refill; filing it again at
        # minute 3 would serve it a second time and overfill it
        res = self.serve({1: 2048.0, 2: 1024.0}, 0.75)
        got = [(a.consumer, a.start, a.amount) for a in res.plan.allocations]
        assert got == [(2, 0.0, 3072.0), (1, 3.0, 2048.0)]
        assert res.batteries_after[1] == 4096.0

    def test_closed_window_files_nothing(self):
        # drone 2 drains below 3072 by minute 8, when drone 1's refill ends
        # the leg; nothing is filed or served after that
        res = self.serve({1: 2048.0, 2: 3584.0}, 0.75, rates={2: 128.0},
                         tt=8.0, share_rate=256.0)
        assert [(a.consumer, a.start, a.duration, a.amount)
                for a in res.plan.allocations] == [(1, 0.0, 8.0, 2048.0)]
        assert res.batteries_after[2] == 3584.0 - 128.0 * 8.0

    def test_gamma_one_stops_at_the_least_filing(self, monkeypatch):
        # at gamma 1 a refilled drone drains during its own transfer and
        # files again at once, each refill 100/160 of the one before; with
        # no least filing the refills shrink to an ulp and never end, so
        # the count is capped here rather than left to run out of memory
        made = []

        def counted(*args):
            made.append(args)
            assert len(made) <= 1000, "pb_compose keeps refilling"
            return Allocation(*args)

        monkeypatch.setattr(sharing, "Allocation", counted)
        batteries = {0: 4000.0, 1: 10000.0}
        capacities = {0: 4480.0, 1: 10000.0}
        rates = {0: 100.0, 1: 0.0}
        ctx = ShareContext(batteries=batteries, capacities=capacities, rates=rates,
                           consumer_ids=[0], share_rate=160.0, provider_id=1,
                           offer=10000.0)
        res = pb_compose(ctx, 10.0, 1.0)
        amounts = [a.amount for a in res.plan.allocations]
        assert 20 <= len(amounts) <= 30
        assert min(amounts) >= 4480.0 * LEAST_FILING
        final, given = pb_oracle(batteries, capacities, rates, [0], 1, 10000.0,
                                 160.0, (0.0, 10.0), 1.0)
        assert given == pytest.approx(sum(amounts), rel=1e-9)
        assert final[0] == pytest.approx(res.batteries_after[0], rel=1e-9)

    def test_gamma_validation(self):
        for gamma in (1.5, -0.25):
            with pytest.raises(ValueError, match="gamma"):
                self.serve({1: 100.0, 2: 100.0}, gamma)

    def test_offer_validation(self):
        two = {1: 1.0, 0: 2.0}
        for offer in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="offer"):
                ShareContext(two, two, two, [1], 5.0, 0, offer)
        ShareContext(two, two, two, [1], 5.0, 0, 0.0)

    def test_context_validation(self):
        two = {1: 1.0, 0: 2.0}
        for share_rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="share_rate"):
                ShareContext(two, two, two, [1], share_rate, 0, 1.0)
        with pytest.raises(ValueError, match="consumer 2"):
            ShareContext(two, two, two, [1, 2], 5.0, 0, 1.0)
        # a provider the composer does not hold would grant energy from
        # nowhere: fb would give drone 1 300 mAh and debit no one
        for batteries, capacities in (({1: 1000.0}, {1: 4480.0, 9: 4480.0}),
                                      ({1: 1000.0, 9: 500.0}, {1: 4480.0})):
            with pytest.raises(ValueError, match="provider 9"):
                ShareContext(batteries, capacities, {1: 0.0, 9: 0.0}, [1], 10.0, 9, 500.0)
        # a drone without a rate would not drain
        for rates in ({9: 0.0}, {1: 0.0}):
            with pytest.raises(ValueError, match="no rate"):
                ShareContext({1: 1000.0, 9: 500.0}, {1: 4480.0, 9: 4480.0}, rates,
                             [1], 10.0, 9, 500.0)


class TestPriorityComposer:
    def ctx(self, batteries, rates=None, consumer_ids=(1, 2, 3), offer=1000.0):
        return ShareContext(
            batteries={1: 4480.0, 2: 4480.0, 3: 4480.0, **batteries, 9: 4000.0},
            capacities={1: 4480.0, 2: 4480.0, 3: 4480.0, 9: 4480.0},
            rates={1: 0.0, 2: 0.0, 3: 0.0, 9: 0.0, **(rates or {})},
            consumer_ids=list(consumer_ids),
            share_rate=10.0,
            provider_id=9,
            offer=offer,
        )

    def test_worked_example(self):
        # gamma 0.96 puts the threshold at 4300.8: drones 1 and 2 file at
        # minute 0, drone 3 drains past it and files 600 at minute 30, but
        # only 500 of the offer is left once drone 2 is served
        ctx = self.ctx({1: 4180.0, 2: 4280.0}, rates={3: 20.0})
        res = pb_compose(ctx, 100.0, 0.96)
        got = [(a.consumer, a.start, a.duration, a.amount)
               for a in res.plan.allocations]
        assert got == [(1, 0.0, 30.0, 300.0), (2, 30.0, 20.0, 200.0)]
        assert res.plan.total_shared == 500.0
        assert transfer_sums(res.plan) == ({9: 500.0}, {1: 300.0, 2: 200.0})
        assert res.batteries_after == {1: 4480.0, 2: 4480.0, 3: 2480.0, 9: 3500.0}

    def test_no_requests_means_untouched_batteries(self):
        # every drone sits above 0.8 * 4480 = 3584
        ctx = self.ctx({1: 4180.0, 2: 4280.0, 3: 3880.0})
        res = pb_compose(ctx, 100.0, 0.8)
        assert res.plan.allocations == []
        assert res.batteries_after == ctx.batteries

    def test_equal_start_serves_largest_first(self):
        ctx = self.ctx({1: 4280.0, 2: 4180.0})
        res = pb_compose(ctx, 100.0, 0.99)
        assert [a.consumer for a in res.plan.allocations] == [2, 1]

    def test_equal_deficits_serve_lowest_drone_id_first(self):
        ctx = self.ctx({3: 4280.0, 2: 4280.0}, consumer_ids=(3, 2, 1))
        res = pb_compose(ctx, 100.0, 0.99)
        assert [a.consumer for a in res.plan.allocations] == [2, 3]

    def test_truncation_at_window_end(self):
        res = pb_compose(self.ctx({1: 4180.0}), 10.0, 0.99)
        a = res.plan.allocations[0]
        assert (a.start, a.duration, a.amount) == (0.0, 10.0, 100.0)
        assert res.batteries_after[1] == 4180.0 + 100.0

    def test_regeneration_after_each_allocation(self):
        # c2 starts above the 0.75 threshold and drains past it while c1
        # is being served; the re-poll after that allocation picks it up
        ctx = ShareContext(
            batteries={1: 2048.0, 2: 3584.0, 7: 20000.0},
            capacities={1: 4096.0, 2: 4096.0, 7: 65536.0},
            rates={1: 0.0, 2: 64.0, 7: 0.0},
            consumer_ids=[1, 2],
            share_rate=128.0,
            provider_id=7,
            offer=4000.0,
        )
        res = pb_compose(ctx, 40.0, 0.75)
        got = [(a.consumer, a.start, a.duration, a.amount)
               for a in res.plan.allocations]
        assert got == [(1, 0.0, 16.0, 2048.0), (2, 16.0, 12.0, 1536.0)]
        assert res.batteries_after == {1: 4096.0, 2: 2560.0, 7: 16416.0}
        assert res.consumed == {1: 0.0, 2: 64.0 * 40.0, 7: 0.0}

    def test_unserved_request_keeps_its_filed_amount(self):
        # c2 files 1024 at minute 0 and drains 256 more while c1 is served;
        # it is still granted the 1024 it asked for, not its 1280 deficit
        ctx = ShareContext(
            batteries={1: 2048.0, 2: 3072.0, 7: 20000.0},
            capacities={1: 4096.0, 2: 4096.0, 7: 65536.0},
            rates={1: 0.0, 2: 16.0, 7: 0.0},
            consumer_ids=[1, 2],
            share_rate=128.0,
            provider_id=7,
            offer=4000.0,
        )
        res = pb_compose(ctx, 32.0, 0.9)
        got = [(a.consumer, a.start, a.duration, a.amount)
               for a in res.plan.allocations]
        assert got == [(1, 0.0, 16.0, 2048.0), (2, 16.0, 8.0, 1024.0)]
        assert res.batteries_after[2] == 3072.0 - 16.0 * 32.0 + 1024.0

    def test_unservable_request_skipped_not_fatal(self):
        # drone 1's 900 exceeds the offer
        ctx = self.ctx({1: 3580.0, 2: 4280.0}, offer=500.0)
        res = pb_compose(ctx, 100.0, 0.99)
        assert [a.consumer for a in res.plan.allocations] == [2]


class TestFairnessComposer:
    def ctx_two(self, b1=3980.0, b2=3980.0, r1=0.0, r2=0.0, offer=1000.0):
        return ShareContext(
            batteries={1: b1, 2: b2, 9: 18000.0},
            capacities={1: 4480.0, 2: 4480.0, 9: 17920.0},
            rates={1: r1, 2: r2, 9: 0.0},
            consumer_ids=[1, 2],
            share_rate=10.0,
            provider_id=9,
            offer=offer,
        )

    def test_worked_example_with_clipped_final_round(self):
        res = fb_compose(self.ctx_two(), 25.0, 100.0, 0.0)
        got = [(a.consumer, a.start, a.duration, a.amount)
               for a in res.plan.allocations]
        # the last turn starts at 20 (< 25) and its transfer completes in
        # full even though the recorded interval is clipped at the leg end
        assert got == [(1, 0.0, 10.0, 100.0), (2, 10.0, 10.0, 100.0),
                       (1, 20.0, 5.0, 100.0)]
        assert transfer_sums(res.plan) == ({9: 300.0}, {1: 200.0, 2: 100.0})
        assert res.batteries_after[1] == 3980.0 + 200.0
        assert res.batteries_after[2] == 3980.0 + 100.0
        assert res.batteries_after[9] == 18000.0 - 300.0

    def test_provider_at_reserve_grants_nothing(self):
        res = fb_compose(self.ctx_two(offer=3584.0), 25.0, 100.0, 3584.0)
        assert res.plan == SharingPlan()

    def test_full_drone_skipped_without_spending_time(self):
        res = fb_compose(self.ctx_two(b1=4480.0), 25.0, 100.0, 0.0)
        assert res.plan.allocations[0].consumer == 2
        assert res.plan.allocations[0].start == 0.0

    def test_everyone_full_terminates_with_empty_plan(self):
        res = fb_compose(self.ctx_two(b1=4480.0, b2=4480.0), 25.0, 100.0, 0.0)
        assert res.plan.allocations == []

    def test_grant_clamps_to_room_but_turn_costs_full_time(self):
        res = fb_compose(self.ctx_two(b1=4450.0), 25.0, 100.0, 0.0)
        first = res.plan.allocations[0]
        assert (first.consumer, first.amount) == (1, 30.0)
        second = res.plan.allocations[1]
        assert (second.consumer, second.start) == (2, 10.0)

    def test_grant_clamps_to_energy_left_in_offer(self):
        res = fb_compose(self.ctx_two(offer=150.0), 25.0, 100.0, 0.0)
        got = [(a.consumer, a.amount) for a in res.plan.allocations]
        assert got == [(1, 100.0), (2, 50.0)]
        assert res.plan.total_shared == 150.0

    def test_reserve_binding_keeps_pb_ahead_of_fb(self):
        ctx = ShareContext(
            batteries={1: 2048.0, 2: 2048.0, 9: 30000.0},
            capacities={1: 4096.0, 2: 4096.0, 9: 65536.0},
            rates={1: 0.0, 2: 0.0, 9: 0.0},
            consumer_ids=[1, 2],
            share_rate=64.0,
            provider_id=9,
            offer=8192.0,
        )
        pb = pb_compose(ctx, 100.0, 0.75)
        fb = fb_compose(ctx, 100.0, 512.0, 6144.0)
        assert pb.plan.total_shared == 4096.0
        assert fb.plan.total_shared == 2048.0
        assert pb.plan.total_shared >= fb.plan.total_shared

    def test_parameter_validation(self):
        ctx = self.ctx_two(offer=100.0)
        with pytest.raises(ValueError):
            fb_compose(ctx, 25.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fb_compose(ctx, 25.0, 100.0, -1.0)
        with pytest.raises(ValueError):
            fb_compose(ctx, 0.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            pb_compose(ctx, -25.0, 0.8)

    def test_non_finite_parameters_are_rejected(self):
        # unchecked, a nan quantum gives nan batteries, a nan reserve
        # grants nothing, and an infinite leg drains to -inf
        ctx = self.ctx_two(offer=100.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="quantum"):
                fb_compose(ctx, 25.0, bad, 0.0)
            with pytest.raises(ValueError, match="reserve"):
                fb_compose(ctx, 25.0, 100.0, bad)
            with pytest.raises(ValueError, match="leg length"):
                pb_compose(ctx, bad, 0.8)
            with pytest.raises(ValueError, match="leg length"):
                fb_compose(ctx, bad, 100.0, 0.0)


class TestComposerProperties:
    def run_pb(self, inst):
        return pb_compose(make_ctx(inst), inst["tt"], inst["gamma"])

    def run_fb(self, inst):
        return fb_compose(make_ctx(inst), inst["tt"], inst["quantum"], inst["reserve"])

    def check_plan_shape(self, inst, res):
        given = 0.0
        prev_end = 0.0
        for a in res.plan.allocations:
            assert a.provider == inst["provider_id"]
            assert a.consumer in inst["consumer_ids"]
            assert a.amount > 0.0 and a.duration > 0.0
            assert a.start >= prev_end - 1e-9  # one consumer at a time
            assert a.start >= 0.0 and a.start + a.duration <= inst["tt"] + 1e-9
            prev_end = a.start + a.duration
            given += a.amount
        assert res.plan.total_shared == given
        assert given <= inst["ae"] + 1e-9
        for cid in inst["consumer_ids"]:
            cap = inst["capacities"][cid]
            for t, b in res.traces[cid]:
                assert b <= cap + 1e-9

    def test_pb_matches_oracle_exactly(self):
        rng = random.Random(20260815)
        for _ in range(80):
            inst = dyadic_instance(rng)
            res = self.run_pb(inst)
            want, want_given = pb_oracle(
                inst["batteries"], inst["capacities"], inst["rates"],
                inst["consumer_ids"], inst["provider_id"], inst["ae"],
                inst["share_rate"], (0.0, inst["tt"]), inst["gamma"])
            assert res.batteries_after == want
            assert res.plan.total_shared == want_given
            self.check_plan_shape(inst, res)

    def test_fb_matches_oracle_exactly(self):
        rng = random.Random(814)
        for _ in range(80):
            inst = dyadic_instance(rng)
            res = self.run_fb(inst)
            want, want_given = fb_oracle(
                inst["batteries"], inst["capacities"], inst["rates"],
                inst["consumer_ids"], inst["provider_id"], inst["ae"],
                inst["share_rate"], (0.0, inst["tt"]), inst["quantum"],
                inst["reserve"])
            assert res.batteries_after == want
            assert res.plan.total_shared == want_given
            self.check_plan_shape(inst, res)

    def test_conservation_is_exact(self):
        rng = random.Random(99)
        for _ in range(40):
            inst = dyadic_instance(rng)
            for res in (self.run_pb(inst), self.run_fb(inst)):
                given, gained = transfer_sums(res.plan)
                for i, b0 in inst["batteries"].items():
                    moved = gained.get(i, 0.0) - given.get(i, 0.0)
                    assert res.batteries_after[i] == b0 - res.consumed[i] + moved

    def test_traces_start_and_end_on_the_window(self):
        inst = dyadic_instance(random.Random(5))
        res = self.run_pb(inst)
        for points in res.traces.values():
            assert points[0][0] == 0.0
            assert points[-1][0] == inst["tt"]


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def sharing_blocks(draw):
    """A provider and 1-4 consumers over a leg of tt minutes, in plain floats.

    Consumer batteries sit at, one ulp either side of, or anywhere below
    the pb threshold or the capacity, so blocks that cannot share are common.
    """
    gamma = draw(st.sampled_from([0.0, 0.8, 0.95, 1.0]) | st.floats(0.0, 1.0))
    tt = draw(st.floats(0.05, 40.0, **FINITE))
    batteries, capacities, rates = {}, {}, {}
    consumers = list(range(1, draw(st.integers(1, 4)) + 1))
    for cid in consumers:
        cap = draw(st.sampled_from([2240.0, 4480.0]) | st.floats(100.0, 20000.0, **FINITE))
        mark = draw(st.sampled_from([gamma * cap, cap]))
        batteries[cid] = draw(st.sampled_from([
            mark, math.nextafter(mark, -math.inf), math.nextafter(mark, math.inf),
        ]) | st.floats(0.0, cap, **FINITE))
        capacities[cid] = cap
        rates[cid] = draw(st.floats(0.1, 200.0, **FINITE))
    batteries[PROVIDER_ID] = draw(st.floats(0.0, 20000.0, **FINITE))
    capacities[PROVIDER_ID] = 20000.0
    rates[PROVIDER_ID] = draw(st.floats(0.1, 200.0, **FINITE))
    ae = max(0.0, batteries[PROVIDER_ID] - rates[PROVIDER_ID] * tt)
    reserve = draw(st.just(ae) | st.floats(0.0, 20000.0, **FINITE))
    return {
        "batteries": batteries, "capacities": capacities, "rates": rates,
        "consumer_ids": consumers, "provider_id": PROVIDER_ID,
        "share_rate": draw(st.floats(1.0, 200.0, **FINITE)), "tt": tt,
        "gamma": gamma, "ae": ae, "quantum": draw(st.floats(1.0, 3000.0, **FINITE)),
        "reserve": reserve,
    }


class TestIdleBlocks:
    """Blocks the idle tests pass over drain exactly as the composers would."""

    def assert_drains_in_closed_form(self, inst, res):
        tt = inst["tt"]
        assert res.plan == SharingPlan()
        for i, before in inst["batteries"].items():
            spent = inst["rates"][i] * tt
            assert res.consumed[i] == spent
            assert res.batteries_after[i] == before - spent
            assert res.traces[i] == [(0.0, before), (tt, before - spent)]

    @given(sharing_blocks())
    @settings(max_examples=300, deadline=None)
    def test_pb(self, inst):
        args = (inst["batteries"], inst["capacities"], inst["consumer_ids"])
        idle = _pb_idle(*args, inst["gamma"])
        oracle_args = (inst["batteries"], inst["capacities"], inst["rates"],
                       inst["consumer_ids"], PROVIDER_ID)
        # an offer covering the largest deficit serves the first request
        # filed at the start of the leg, so the oracle grants nothing only
        # if no request was filed there
        window = (0.0, inst["tt"])
        cover = max(0.0, *(inst["capacities"][c] - inst["batteries"][c]
                           for c in inst["consumer_ids"]))
        _, given = pb_oracle(*oracle_args, cover, inst["share_rate"], window,
                             inst["gamma"])
        assert idle == (given == 0.0)
        if idle:
            res = pb_compose(make_ctx(inst), inst["tt"], inst["gamma"])
            self.assert_drains_in_closed_form(inst, res)
            _, given = pb_oracle(*oracle_args, inst["ae"], inst["share_rate"],
                                 window, inst["gamma"])
            assert given == 0.0

    @given(sharing_blocks())
    @settings(max_examples=300, deadline=None)
    def test_fb(self, inst):
        args = (inst["batteries"], inst["capacities"], inst["consumer_ids"])
        idle = _fb_idle(*args, inst["ae"], inst["reserve"])
        res = fb_compose(make_ctx(inst), inst["tt"], inst["quantum"], inst["reserve"])
        _, given = fb_oracle(
            inst["batteries"], inst["capacities"], inst["rates"],
            inst["consumer_ids"], PROVIDER_ID, inst["ae"], inst["share_rate"],
            (0.0, inst["tt"]), inst["quantum"], inst["reserve"])
        # fb grants on its first turn unless the block is idle
        assert idle == (res.plan.allocations == [])
        if idle:
            self.assert_drains_in_closed_form(inst, res)
            assert given == 0.0

    def test_one_ulp_below_the_threshold_is_not_idle(self):
        caps = {1: 4480.0, 2: 4480.0}
        at = 0.95 * 4480.0
        assert _pb_idle({1: at, 2: 4480.0}, caps, [1, 2], 0.95)
        below = math.nextafter(at, -math.inf)
        assert not _pb_idle({1: below, 2: 4480.0}, caps, [1, 2], 0.95)

    def test_refill_under_the_least_filing_is_idle(self):
        caps = {1: 4480.0}
        least = 4480.0 * LEAST_FILING
        assert _pb_idle({1: 4480.0 - least / 2}, caps, [1], 1.0)
        assert not _pb_idle({1: 4480.0 - least * 2}, caps, [1], 1.0)

    def test_room_above_zero_is_not_idle(self):
        caps = {1: 4480.0, 2: 4480.0}
        full = {1: 4480.0, 2: 4480.0}
        assert _fb_idle(full, caps, [1, 2], 500.0, 100.0)
        short = {1: 4480.0, 2: math.nextafter(4480.0, -math.inf)}
        assert not _fb_idle(short, caps, [1, 2], 500.0, 100.0)
        # an offer at the reserve grants nothing, however empty the drones
        assert _fb_idle({1: 0.0, 2: 0.0}, caps, [1, 2], 100.0, 100.0)


@st.composite
def swapped_blocks(draw):
    """``sharing_blocks`` with or without a swap table, whose swaps give a
    consumer, and maybe a partner consumer, drawn rates; some consumers
    start above their capacity."""
    inst = draw(sharing_blocks())
    consumers = inst["consumer_ids"]
    for cid in consumers:
        if draw(st.booleans()):
            inst["batteries"][cid] += draw(st.floats(0.0, 500.0, **FINITE))
    swaps = None
    if draw(st.booleans()):
        swaps = {}
        for cid in consumers:
            if draw(st.booleans()):
                rates = {cid: draw(st.floats(0.1, 200.0, **FINITE))}
                partner = draw(st.sampled_from(consumers))
                if partner != cid:
                    rates[partner] = draw(st.floats(0.1, 200.0, **FINITE))
                swaps[cid] = ((cid, 0), rates)
            else:
                swaps[cid] = None
    inst["swaps"] = swaps
    return inst


class TestComposerBounds:
    """The facts the planner's shared fly-through bound takes from the
    composers (see ``planner._sharing_cannot_save``)."""

    @staticmethod
    def allowance(*values):
        # a few roundings, each within 2**-53 of the largest value in play
        return 2.0 ** -50 * max(abs(v) for v in values)

    def composed(self, inst):
        ctx = make_ctx(inst)
        yield pb_compose(ctx, inst["tt"], inst["gamma"], swaps=inst["swaps"])
        yield fb_compose(ctx, inst["tt"], inst["quantum"], inst["reserve"],
                         swaps=inst["swaps"])

    @given(swapped_blocks())
    @settings(max_examples=300, deadline=None)
    def test_no_consumer_rises_above_its_capacity_or_start(self, inst):
        # fb grants at most the room at a turn's start, pb fills at most the
        # amount it filed, and every drain is positive
        for res in self.composed(inst):
            for cid in inst["consumer_ids"]:
                top = max(inst["capacities"][cid], inst["batteries"][cid])
                points = [b for _, b in res.traces[cid]]
                assert max(points) <= top + self.allowance(top, *points)

    @given(swapped_blocks())
    @settings(max_examples=300, deadline=None)
    def test_fb_provider_that_gave_ends_above_its_reserve_less_a_quantum(self, inst):
        offer, reserve, quantum = inst["ae"], inst["reserve"], inst["quantum"]
        res = fb_compose(make_ctx(inst), inst["tt"], quantum, reserve,
                         swaps=inst["swaps"])
        given = res.plan.total_shared
        assert given <= offer
        if given > 0:
            assert offer - given > reserve - quantum

    @given(swapped_blocks())
    @settings(max_examples=300, deadline=None)
    def test_pb_gives_at_most_its_offer(self, inst):
        res = pb_compose(make_ctx(inst), inst["tt"], inst["gamma"], swaps=inst["swaps"])
        assert res.plan.total_shared <= inst["ae"]


class TestReorder:
    def column_swarm(self):
        spec = DroneSpec()
        drones = [make_delivery_drone(i, 0.5, spec) for i in range(3)]
        drones.append(make_support_drone(3, spec))
        for slot, d in enumerate(drones):
            d.position = slot
        return Swarm(drones, make_formation("column", 4))

    def test_adjacent_consumer_needs_no_swap(self):
        swarm = self.column_swarm()
        assert reorder_fixed(swarm, 2, 3) is None

    def test_distant_consumer_swaps_with_providers_neighbor(self):
        swarm = self.column_swarm()
        partner = reorder_fixed(swarm, 0, 3)
        assert partner is swarm.drones[2]
        assert (swarm.drones[0].position, partner.position) == (0, 2)
        # the swap is only described; the swarm keeps its standing slots
        assert [d.position for d in swarm.drones] == [0, 1, 2, 3]

    def test_role_validation(self):
        swarm = self.column_swarm()
        with pytest.raises(ValueError, match="not a delivery drone"):
            reorder_fixed(swarm, 3, 3)
        with pytest.raises(ValueError, match="not a support drone"):
            reorder_fixed(swarm, 0, 1)

    def test_clustered_supports_are_a_config_bug(self):
        spec = DroneSpec()
        drones = [make_delivery_drone(0, 0.5, spec)]
        drones += [make_support_drone(i, spec) for i in (1, 2, 3)]
        for slot, d in enumerate(drones):
            d.position = slot
        swarm = Swarm(drones, make_formation("column", 4))
        with pytest.raises(ValueError, match="never cluster"):
            reorder_fixed(swarm, 0, 2)


class TestSwapAccounting:
    def test_swap_table_changes_rates_and_logs_paired_swaps(self):
        ctx = ShareContext(
            batteries={1: 1024.0, 9: 8192.0},
            capacities={1: 4096.0, 9: 65536.0},
            rates={1: 16.0, 9: 8.0},
            consumer_ids=[1],
            share_rate=64.0,
            provider_id=9,
            offer=4096.0,
        )
        res = pb_compose(ctx, 64.0, 0.75, swaps={1: ((0, 2), {1: 32.0})})
        assert [(a.start, a.duration, a.amount) for a in res.plan.allocations] == \
            [(0.0, 48.0, 3072.0)]
        assert res.plan.swaps == [SwapEvent(0.0, 0, 2), SwapEvent(48.0, 0, 2)]
        # doubled draw for the 48 served minutes, normal for the rest
        assert res.consumed[1] == 32.0 * 48.0 + 16.0 * 16.0
        assert res.batteries_after[1] == 1024.0 - res.consumed[1] + 3072.0
        assert res.batteries_after[9] == 8192.0 - 8.0 * 64.0 - 3072.0

    def test_fb_turns_swap_only_listed_consumers(self):
        ctx = ShareContext(
            batteries={1: 1024.0, 2: 1024.0, 9: 8192.0},
            capacities={1: 4096.0, 2: 4096.0, 9: 65536.0},
            rates={1: 16.0, 2: 16.0, 9: 8.0},
            consumer_ids=[1, 2],
            share_rate=64.0,
            provider_id=9,
            offer=4096.0,
        )
        res = fb_compose(ctx, 64.0, 1024.0, 2048.0,
                         swaps={1: ((0, 2), {1: 32.0}), 2: None})
        assert [(a.consumer, a.start, a.amount) for a in res.plan.allocations] == \
            [(1, 0.0, 1024.0), (2, 16.0, 1024.0)]
        assert res.plan.swaps == [SwapEvent(0.0, 0, 2), SwapEvent(16.0, 0, 2)]
        assert res.consumed[1] == 32.0 * 16.0 + 16.0 * 48.0
        assert res.consumed[2] == 16.0 * 64.0


class TestPlanRecords:
    """Allocations and swap events are small immutable records: named
    fields in a fixed order, equal when their fields are, and hashable."""

    def test_fields_equality_and_immutability(self):
        a = Allocation(9, 1, 0.0, 1.5, 3.0)
        swap = SwapEvent(1.5, 0, 2)
        assert repr(a) == ("Allocation(provider=9, consumer=1, start=0.0, "
                           "duration=1.5, amount=3.0)")
        assert repr(swap) == "SwapEvent(time=1.5, slot_a=0, slot_b=2)"
        assert (a.provider, a.consumer, a.start, a.duration, a.amount) == \
            (9, 1, 0.0, 1.5, 3.0)
        assert a == Allocation(9, 1, 0.0, 1.5, 3.0) != Allocation(9, 1, 0.0, 1.5, 3.5)
        assert swap == SwapEvent(1.5, 0, 2) != SwapEvent(1.5, 2, 0)
        assert len({a, Allocation(9, 1, 0.0, 1.5, 3.0), swap}) == 2
        for record, name in ((a, "amount"), (swap, "time")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
