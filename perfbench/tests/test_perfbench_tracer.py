import types

import pytest

from tracer import NO_PARENT, NO_REQUEST, Tracer, self_times


class TestSelfTimes:
    def test_nested(self):
        # a [0, 10] > b [1, 4] > c [2, 3]
        got = self_times([0.0, 1.0, 2.0], [10.0, 4.0, 3.0], [NO_PARENT, 0, 1])
        assert got == pytest.approx([7.0, 2.0, 1.0])

    def test_disjoint_siblings(self):
        got = self_times([0.0, 1.0, 5.0], [10.0, 3.0, 6.0], [NO_PARENT, 0, 0])
        assert got == pytest.approx([7.0, 2.0, 1.0])

    def test_overlapping_siblings_count_once(self):
        # children [1, 4] and [3, 6] cover [1, 6]; recorded out of order
        got = self_times([0.0, 3.0, 1.0], [10.0, 6.0, 4.0], [NO_PARENT, 0, 0])
        assert got[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        got = self_times([0.0, 8.0], [10.0, 12.0], [NO_PARENT, 0])
        assert got == pytest.approx([8.0, 4.0])


def _fake_program():
    """Module ``lib`` defines ``step``; ``app`` imports it by name and calls it."""
    lib = types.ModuleType("lib")
    exec("def step(x):\n    return None if x < 0 else x\n", lib.__dict__)
    app = types.ModuleType("app")
    app.step = lib.step
    exec("def plan(request, xs):\n    return [step(x) for x in xs]\n", app.__dict__)
    return lib, app


class TestTracer:
    def test_rebinds_the_name_where_it_is_called(self):
        lib, app = _fake_program()
        tracer = Tracer()
        tracer.install({"lib.step": (lib, "step"), "app.plan": (app, "plan")},
                       [lib, app])
        app.plan(types.SimpleNamespace(id=7), [1, 2])
        totals = tracer.layer_totals()
        assert totals["lib.step"]["calls"] == 2
        assert totals["app.plan"]["calls"] == 1
        assert list(tracer.parents) == [NO_PARENT, 0, 0]
        assert list(tracer.request_ids) == [7, 7, 7]

    def test_spans_outside_a_request_have_no_request_id(self):
        lib, app = _fake_program()
        tracer = Tracer()
        tracer.install({"lib.step": (lib, "step")}, [lib, app])
        lib.step(1)
        assert list(tracer.request_ids) == [NO_REQUEST]

    def test_missing_name_is_a_note_not_a_crash(self):
        lib, app = _fake_program()
        tracer = Tracer()
        tracer.install({"lib.gone": (lib, "gone")}, [lib, app])
        assert tracer.notes == ["lib.gone: not found, its metrics are absent"]

    def test_probes_count_outcomes_and_a_broken_probe_is_dropped(self):
        lib, app = _fake_program()
        tracer = Tracer()

        def swaps(t, args, kwargs, result):
            if result is not None:
                t.count("swaps")

        def broken(t, args, kwargs, result):
            return result.plan

        tracer.install({"lib.step": (lib, "step"), "app.plan": (app, "plan")},
                       [lib, app], {"lib.step": swaps, "app.plan": broken})
        assert app.plan(None, [1, -1, 2]) == [1, None, 2]
        assert tracer.counters == {"swaps": 2}
        assert "app.plan" in tracer.broken_probes
