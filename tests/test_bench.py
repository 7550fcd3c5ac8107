"""Sweep plumbing, metric rollups, the CSV writers, and the CLI."""

import csv
import dataclasses
import math
import pickle
from types import SimpleNamespace

import pytest

from swarmway.bench import (
    MIN_FB_TURN,
    NAN_SENTINEL,
    RESULT_COLUMNS,
    STRATEGIES,
    ExperimentConfig,
    bin_metrics,
    run_experiment,
    sweep_configurations,
    write_plot_data,
    write_results,
    write_summary,
)
from swarmway import bench, cli
from swarmway.cli import main
from swarmway.energy import DroneSpec
from swarmway.formations import (
    FORMATION_KINDS,
    WIND_SECTORS,
    CoefficientTable,
    default_table,
)
from swarmway.network import (
    DeliveryRequest,
    NetworkFormatError,
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    largest_connected_component,
    load_network,
    save_network,
    synthesize_network,
    synthesize_requests,
)
from swarmway.preflight import redundancy_count
from swarmway.sharing import ShareContext, fb_compose

FLAT = CoefficientTable({
    (kind, slot, sector): 1.0
    for kind in FORMATION_KINDS
    for slot in range(12)
    for sector in WIND_SECTORS
})

CALM = Wind(0.0, 0.0)

# 1 km/min cruise, dyadic battery numbers so recharge makespans are exact
SPEC = DroneSpec(
    battery_capacity=4096.0,
    cruise_speed=60.0,
    inflight_share_rate=128.0,
    pad_charge_rate=64.0,
    base_consumption_rate=64.0,
)


def corridor_net():
    """Two 2 km hops plus one island node nothing connects to."""
    nodes = [
        Node(0, 0.0, 0.0, 2),
        Node(1, 2000.0, 0.0, 2),
        Node(2, 4000.0, 0.0, 2),
        Node(9, 90000.0, 0.0, 1),
    ]
    segs = [Segment(0, 1, 2000.0, CALM), Segment(1, 2, 2000.0, CALM)]
    return SkywayNetwork(nodes, segs)


def workload():
    # 0.35/1.4 = 0.25, so consumption factors stay dyadic
    return [
        DeliveryRequest(0, 0, 2, [0.35, 0.35]),
        DeliveryRequest(1, 0, 9, [0.35]),
    ]


def result_row(**overrides):
    row = {
        "request_id": 0, "strategy": "baseline", "positioning": "none",
        "status": "success", "distance_m": 1000.0, "dt_min": 10.0,
        "tt_min": 8.0, "nt_min": 2.0, "energy_shared_mAh": 0.0,
        "runtime_ms": 1.0,
    }
    row.update(overrides)
    return row


class TestExperimentConfig:

    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.strategies == STRATEGIES
        assert cfg.positionings == ("location-aware", "energy-aware")

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"strategies": ()}, "strategies"),
        ({"strategies": ("baseline", "warp")}, "warp"),
        ({"strategies": ("pb", "pb")}, "duplicates"),
        ({"positionings": ()}, "positionings"),
        ({"positionings": ("psychic",)}, "psychic"),
        ({"gamma": 1.5}, "gamma"),
        ({"gamma": -0.1}, "gamma"),
        ({"delta_frac": 1.0}, "delta_frac"),
        ({"quantum": 0.0}, "quantum"),
        ({"share_rate": -2.0}, "share_rate"),
        ({"pad_minutes": 0.0}, "pad_minutes"),
        ({"failure_scale": 0.0}, "failure_scale"),
        ({"bin_width_km": 0.0}, "bin_width_km"),
        ({"quantum": math.inf}, "quantum"),
        ({"quantum": math.nan}, "quantum"),
        ({"share_rate": math.inf}, "share_rate"),
        ({"share_rate": math.nan}, "share_rate"),
        ({"pad_minutes": math.nan}, "pad_minutes"),
        ({"failure_scale": math.inf}, "failure_scale"),
        ({"failure_scale": math.nan}, "failure_scale"),
        ({"bin_width_km": math.nan}, "bin_width_km"),
        ({"positionings": ("location-aware", "location-aware")},
         "positionings: duplicates"),
        ({"bin_width_km": 1e-320}, "bin_width_km: 1e-320 km is under 1 m"),
        ({"pad_minutes": 1e-320}, "pad_minutes: 1e-320 min makes the pad rate inf"),
        ({"pad_minutes": 1e308}, r"pad_minutes: 1e\+308 min is over 1e\+09 min"),
    ])
    def test_validation_names_the_field(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ExperimentConfig(**kwargs)

    def test_fairness_turn_floor(self):
        # the CLI defaults (2240 / 5.88 = 381 min) and the acceptance
        # profile (28 / 134 = 0.21 min) are far above the floor
        ExperimentConfig()
        ExperimentConfig(quantum=28.0, share_rate=134.0)
        ExperimentConfig(quantum=MIN_FB_TURN * 4.0, share_rate=4.0)
        with pytest.raises(ValueError, match="quantum: a fairness turn"):
            ExperimentConfig(quantum=math.nextafter(MIN_FB_TURN * 4.0, 0.0),
                             share_rate=4.0)

    def test_shortest_turn_bounds_the_turns_per_leg(self):
        # a turn at the floor takes a thousandth of a minute, so a
        # one-minute leg holds at most 1,001 turns however empty the drones
        ctx = ShareContext(batteries={1: 0.0, 2: 0.0, 9: 1e6},
                           capacities={1: 4480.0, 2: 4480.0, 9: 1e6},
                           rates={1: 1.0, 2: 1.0, 9: 1.0}, consumer_ids=[1, 2],
                           share_rate=5.88, provider_id=9, offer=1e6)
        res = fb_compose(ctx, 1.0, MIN_FB_TURN * 5.88, 0.0)
        assert 1000 <= len(res.plan.allocations) <= 1001


class TestSweepConfigurations:

    def test_default_order(self):
        assert sweep_configurations(ExperimentConfig()) == [
            ("baseline", "none"),
            ("pb", "location-aware"),
            ("pb", "energy-aware"),
            ("fb", "location-aware"),
            ("fb", "energy-aware"),
            ("dijkstra", "none"),
            ("floyd", "none"),
        ]

    def test_follows_configured_strategy_order(self):
        cfg = ExperimentConfig(strategies=("floyd", "pb"),
                               positionings=("energy-aware",))
        assert sweep_configurations(cfg) == [
            ("floyd", "none"),
            ("pb", "energy-aware"),
        ]

    def test_statics_ignore_positioning_list(self):
        cfg = ExperimentConfig(strategies=("dijkstra", "baseline"))
        assert sweep_configurations(cfg) == [
            ("dijkstra", "none"), ("baseline", "none"),
        ]


class TestBinMetrics:

    def test_bin_edges_are_half_open(self):
        rows = [
            result_row(distance_m=300.0, dt_min=4.0, nt_min=0.0),
            result_row(distance_m=499.999, dt_min=6.0, nt_min=0.0),
            result_row(distance_m=500.0, dt_min=8.0, nt_min=0.0),
            result_row(distance_m=600.0, dt_min=10.0, nt_min=0.0),
        ]
        g = bin_metrics(rows, 0.5).groups[("baseline", "none")]
        assert sorted(g.bins) == [0, 1]
        assert g.bins[0].rows == 2 and g.bins[0].successes == 2
        assert g.bins[1].rows == 2
        assert g.bins[0].mean_dt == 5.0
        assert g.bins[1].mean_dt == 9.0

    def test_all_failed_bin_reports_nan_not_zero(self):
        rows = [result_row(status="stuck", dt_min=0.0, nt_min=0.0)]
        g = bin_metrics(rows, 0.5).groups[("baseline", "none")]
        assert g.successes == 0
        assert math.isnan(g.mean_dt) and math.isnan(g.mean_nt)
        only_bin = g.bins[2]
        assert only_bin.rows == 1 and only_bin.successes == 0
        assert math.isnan(only_bin.mean_dt)

    def test_single_success_mean_is_exact(self):
        rows = [result_row(dt_min=7.25, nt_min=1.75)]
        g = bin_metrics(rows, 0.5).groups[("baseline", "none")]
        assert g.mean_dt == 7.25
        assert g.mean_nt == 1.75
        assert g.mean_runtime_ms == 1.0

    def test_failures_count_toward_runtime_but_not_means(self):
        rows = [
            result_row(dt_min=10.0, runtime_ms=2.0),
            result_row(status="stuck", dt_min=0.0, runtime_ms=4.0),
        ]
        g = bin_metrics(rows, 0.5).groups[("baseline", "none")]
        assert g.rows == 2 and g.successes == 1
        assert g.mean_dt == 10.0
        assert g.mean_runtime_ms == 3.0

    def test_infinite_distance_skips_binning(self):
        rows = [result_row(status="unreachable", distance_m=math.inf,
                           dt_min=0.0)]
        g = bin_metrics(rows, 0.5).groups[("baseline", "none")]
        assert g.rows == 1
        assert g.bins == {}

    def test_groups_keyed_by_strategy_and_positioning(self):
        rows = [
            result_row(strategy="pb", positioning="location-aware"),
            result_row(strategy="pb", positioning="energy-aware"),
        ]
        table = bin_metrics(rows, 0.5)
        assert set(table.groups) == {
            ("pb", "location-aware"), ("pb", "energy-aware"),
        }
        assert table.groups[("pb", "location-aware")].rows == 1

    def test_empty_rows_empty_table(self):
        table = bin_metrics([], 0.5)
        assert table.groups == {}

    def test_bad_width_rejected(self):
        # nan would fail mid-aggregation, and inf put every row in bin 0
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bin_width_km: must be finite"):
                bin_metrics([result_row()], width)


@pytest.fixture(scope="module")
def sweep():
    rows, metrics = run_experiment(corridor_net(), workload(), FLAT,
                                   ExperimentConfig(), spec=SPEC)
    return rows, metrics


class TestRunExperiment:

    def test_row_count_and_sort_order(self, sweep):
        rows, _ = sweep
        assert len(rows) == 2 * 7
        keys = [(r["request_id"], r["strategy"], r["positioning"])
                for r in rows]
        assert keys == sorted(keys)
        assert all(set(r) == set(RESULT_COLUMNS) for r in rows)

    def test_sharing_rows_carry_both_positionings(self, sweep):
        rows, _ = sweep
        for rid in (0, 1):
            combos = {(r["strategy"], r["positioning"])
                      for r in rows if r["request_id"] == rid}
            assert combos == {
                ("baseline", "none"), ("dijkstra", "none"), ("floyd", "none"),
                ("pb", "location-aware"), ("pb", "energy-aware"),
                ("fb", "location-aware"), ("fb", "energy-aware"),
            }

    def test_reachable_request_times(self, sweep):
        rows, _ = sweep
        for r in rows:
            if r["request_id"] != 0:
                continue
            assert r["status"] == "success"
            assert r["distance_m"] == 4000.0
            assert r["tt_min"] == 4.0
            assert r["energy_shared_mAh"] == 0.0
            if r["strategy"] in ("dijkstra", "floyd"):
                # statics refill fully at the midpoint stop: 160 mAh at 64/min
                assert r["nt_min"] == 2.5
                assert r["dt_min"] == 6.5
            else:
                assert r["nt_min"] == 0.0
                assert r["dt_min"] == 4.0

    def test_unreachable_request_rows(self, sweep):
        rows, _ = sweep
        island = [r for r in rows if r["request_id"] == 1]
        assert len(island) == 7
        for r in island:
            assert r["status"] == "unreachable"
            assert math.isinf(r["distance_m"])
            assert r["dt_min"] == 0.0
            assert r["runtime_ms"] == 0.0

    def test_metrics_cover_every_combo(self, sweep):
        _, metrics = sweep
        assert set(metrics.groups) == set(
            sweep_configurations(ExperimentConfig()))
        g = metrics.groups[("baseline", "none")]
        assert g.rows == 2 and g.successes == 1
        assert g.mean_dt == 4.0
        # the reachable request lands in the [4.0, 4.5) km bin
        assert sorted(g.bins) == [8]

    def test_rerun_identical_except_runtime(self, sweep):
        rows, _ = sweep
        again, _ = run_experiment(corridor_net(), workload(), FLAT,
                                  ExperimentConfig(), spec=SPEC)
        strip = lambda rs: [{k: v for k, v in r.items() if k != "runtime_ms"}
                            for r in rs]
        assert strip(rows) == strip(again)

    def test_progress_callback_sees_every_request(self):
        seen = []
        run_experiment(corridor_net(), workload(), FLAT,
                       ExperimentConfig(strategies=("baseline",)),
                       spec=SPEC, on_progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    @pytest.mark.parametrize("strategies, built, priced", [
        (("dijkstra", "floyd"), 1, 3),
        (("baseline", "pb", "fb"), 0, 0),
    ])
    def test_static_edges_built_once_per_sweep(self, monkeypatch, strategies,
                                               built, priced):
        calls = {"static_edges": 0, "static_edge_costs": 0}

        def counted(name):
            real = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bench, name, counted(name))
        requests = [DeliveryRequest(0, 0, 2, [0.35, 0.35]),
                    DeliveryRequest(1, 2, 0, [0.35]),
                    DeliveryRequest(2, 1, 0, [0.35, 0.35])]
        rows, _ = run_experiment(corridor_net(), requests, FLAT,
                                 ExperimentConfig(strategies=strategies), spec=SPEC)
        assert {r["status"] for r in rows} == {"success"}
        assert calls == {"static_edges": built, "static_edge_costs": priced}

    def test_empty_workload(self):
        rows, metrics = run_experiment(corridor_net(), [], FLAT,
                                       ExperimentConfig(), spec=SPEC)
        assert rows == []
        assert metrics.groups == {}

    def test_given_spec_must_keep_the_fairness_turn_floor(self):
        # fb flies the spec's share rate, not cfg.share_rate; an empty
        # workload shows the sweep rejects it before planning anything
        cfg = ExperimentConfig(quantum=MIN_FB_TURN * 4.0, share_rate=1.0)
        run_experiment(corridor_net(), [], FLAT, cfg,
                       spec=dataclasses.replace(SPEC, inflight_share_rate=4.0))
        for rate in (math.nextafter(4.0, math.inf), 1e7):
            with pytest.raises(ValueError, match="quantum: a fairness turn"):
                run_experiment(corridor_net(), [], FLAT, cfg,
                               spec=dataclasses.replace(SPEC, inflight_share_rate=rate))

    def test_spec_override_changes_feasibility(self):
        # 128 mAh over 4 min under the dyadic spec, not refillable enough
        # under a 100 mAh ceiling without pads mid-route
        feeble = DroneSpec(battery_capacity=100.0, cruise_speed=60.0,
                           inflight_share_rate=1.0, pad_charge_rate=1.0,
                           base_consumption_rate=64.0)
        cfg = ExperimentConfig(strategies=("baseline",))
        rows, _ = run_experiment(corridor_net(), workload()[:1], FLAT, cfg,
                                 spec=feeble)
        assert rows[0]["status"] == "stuck"

    @pytest.mark.parametrize("strategy", ["fb", "baseline"])
    def test_segment_that_takes_no_time_fails_before_planning(self, monkeypatch,
                                                              strategy):
        # 1e-320 m flies in 0.0 minutes at 30 km/h: fb rejected the leg
        # partway through the sweep, baseline flew it
        net = largest_connected_component(synthesize_network(40, 3))
        segments = [dataclasses.replace(seg, distance_m=1e-320)
                    if (seg.u, seg.v) == (7, 25) else seg for seg in net.segments]
        assert segments != net.segments
        net = SkywayNetwork(list(net.nodes.values()), segments)
        monkeypatch.setattr(bench, "compose",
                            lambda *args, **kwargs: pytest.fail("planning started"))
        with pytest.raises(NetworkFormatError,
                           match=r"segment \(7, 25\): 1e-320 m takes 0.0 min at 30 km/h"):
            run_experiment(net, synthesize_requests(net, 6, 1), default_table(),
                           ExperimentConfig(strategies=(strategy,)))

    def test_planning_writes_to_neither_the_network_nor_a_swarm(self, monkeypatch):
        # the acceptance world has padless nodes, whose headings no static
        # edge reads before a plan flies into them
        net = largest_connected_component(synthesize_network(276, 2118, pads=(0, 3)))
        planned, written = [], []

        def pinned(name):
            plan = getattr(bench, name)

            def wrapper(swarm, net, request, *args, **kwargs):
                before = pickle.dumps(vars(net)), pickle.dumps(swarm)
                result = plan(swarm, net, request, *args, **kwargs)
                after = pickle.dumps(vars(net)), pickle.dumps(swarm)
                planned.append(result.strategy)
                for what, old, new in zip(("network", "swarm"), before, after):
                    if old != new:
                        written.append((name, result.strategy, request.id, what))
                return result
            return wrapper

        for name in ("compose", "dijkstra_baseline", "floyd_warshall_baseline"):
            monkeypatch.setattr(bench, name, pinned(name))
        rows, _ = run_experiment(net, synthesize_requests(net, 30, 0), default_table(),
                                 ExperimentConfig())
        assert sorted(planned) == sorted(r["strategy"] for r in rows
                                         if math.isfinite(r["distance_m"]))
        assert set(planned) == set(STRATEGIES)
        assert written == []

    @pytest.mark.parametrize("bad, message", [
        ("packages", "request 6: 12 packages need up to 24 drones"),
        ("source", "request 6: unknown node {missing}"),
        ("destination", "request 6: unknown node {missing}"),
        ("weight", "request 6: weight 1.5 exceeds 1.4"),
    ])
    def test_bad_request_fails_before_planning(self, monkeypatch, bad, message):
        # the sweep failed after some composes, or raised a bare KeyError,
        # or gave a trimmed-away source an unreachable row
        full = synthesize_network(60, 1)
        net = largest_connected_component(full)
        missing = min(set(full.nodes) - set(net.nodes))
        source, destination = sorted(net.nodes)[:2]
        request = {
            "packages": DeliveryRequest(6, source, destination, [0.1] * 12),
            "source": DeliveryRequest(6, missing, destination, [0.1]),
            "destination": DeliveryRequest(6, source, missing, [0.1]),
            "weight": DeliveryRequest(6, source, destination, [0.1, 1.5]),
        }[bad]
        for name in ("compose", "dijkstra_baseline", "floyd_warshall_baseline"):
            monkeypatch.setattr(bench, name,
                                lambda *args, **kwargs: pytest.fail("planning started"))
        with pytest.raises(NetworkFormatError, match=message.format(missing=missing)):
            run_experiment(net, synthesize_requests(net, 6, 1) + [request],
                           default_table(), ExperimentConfig())


class TestWriters:

    def test_results_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([], path)
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines == [list(RESULT_COLUMNS)]

    def test_results_round_trip_floats_exactly(self, tmp_path):
        rows = [
            result_row(dt_min=6.4285714285714285, runtime_ms=0.123456789),
            result_row(request_id=1, status="unreachable",
                       distance_m=math.inf, dt_min=0.0),
        ]
        path = tmp_path / "results.csv"
        write_results(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert float(back[0]["dt_min"]) == rows[0]["dt_min"]
        assert float(back[0]["runtime_ms"]) == rows[0]["runtime_ms"]
        assert float(back[1]["distance_m"]) == math.inf
        assert back[1]["status"] == "unreachable"
        assert int(back[1]["request_id"]) == 1

    def test_summary_rows_sorted_with_nan_sentinel(self, tmp_path):
        rows = [
            result_row(strategy="pb", positioning="location-aware",
                       dt_min=12.0),
            result_row(strategy="baseline", status="stuck", dt_min=0.0),
        ]
        path = tmp_path / "summary.csv"
        write_summary(bin_metrics(rows, 0.5), path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [(r["strategy"], r["positioning"]) for r in back] == [
            ("baseline", "none"), ("pb", "location-aware"),
        ]
        assert back[0]["mean_dt_min"] == NAN_SENTINEL
        assert back[0]["successes"] == "0"
        assert float(back[1]["mean_dt_min"]) == 12.0

    def test_plot_data_bins_with_bounds(self, tmp_path):
        rows = [
            result_row(distance_m=300.0, dt_min=4.0),
            result_row(distance_m=600.0, status="stuck", dt_min=0.0),
        ]
        path = tmp_path / "plot.csv"
        write_plot_data(bin_metrics(rows, 0.5), path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert float(back[0]["bin_lo_km"]) == 0.0
        assert float(back[0]["bin_hi_km"]) == 0.5
        assert float(back[0]["mean_dt_min"]) == 4.0
        assert float(back[1]["bin_lo_km"]) == 0.5
        assert back[1]["mean_dt_min"] == NAN_SENTINEL
        assert back[1]["successes"] == "0"


class TestCli:

    def test_synth_writes_loadable_network(self, tmp_path, capsys, caplog):
        out = tmp_path / "net.csv"
        assert main(["synth", "--seed", "7", "--nodes", "40",
                     "--out", str(out)]) == 0
        net = load_network(out)
        # the status line is logged to stderr, like run's progress
        assert capsys.readouterr() == (
            "", f"wrote {len(net.nodes)} nodes, {len(net.segments)} segments to {out}\n")
        assert {r.name for r in caplog.records} == {"swarmway"}
        assert 2 <= len(net.nodes) <= 40
        assert all(seg.wind is not None for seg in net.segments)

    def test_synth_keep_all_keeps_every_node(self, tmp_path):
        out = tmp_path / "net.csv"
        assert main(["synth", "--seed", "7", "--nodes", "40", "--keep-all",
                     "--out", str(out)]) == 0
        assert len(load_network(out).nodes) == 40

    def test_run_smoke_writes_all_csvs(self, tmp_path):
        net = tmp_path / "net.csv"
        main(["synth", "--seed", "5", "--nodes", "30", "--out", str(net)])
        out = tmp_path / "exp"
        code = main(["run", "--network", str(net), "--requests", "3",
                     "--seed", "1", "--out", str(out), "--quiet",
                     "--plot-data"])
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 7
        assert (out / "summary.csv").exists()
        assert (out / "plot_data.csv").exists()

    def test_run_logs_progress_and_summary_to_stderr(self, tmp_path, capsys, caplog):
        assert main(["run", "--synth-nodes", "30", "--requests", "3", "--seed", "1",
                     "--strategies", "baseline", "--out", str(tmp_path / "exp")]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["  3/3 requests",
                                    "baseline  none            2/3 ok, mean dt 3.7 min"]
        assert {r.name for r in caplog.records} == {"swarmway"}

    def test_quiet_run_logs_nothing(self, tmp_path, capsys, caplog):
        assert main(["run", "--synth-nodes", "30", "--requests", "3", "--seed", "1",
                     "--strategies", "baseline", "--out", str(tmp_path / "exp"),
                     "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        assert caplog.records == []

    def test_run_synthesizes_when_no_network_given(self, tmp_path):
        out = tmp_path / "exp"
        code = main(["run", "--synth-nodes", "30", "--requests", "2",
                     "--seed", "4", "--strategies", "baseline",
                     "--out", str(out), "--quiet"])
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_bad_strategy_exits_2(self, tmp_path, capsys):
        code = main(["run", "--strategies", "warp", "--requests", "1",
                     "--synth-nodes", "20", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_positioning_exits_2_before_planning(self, tmp_path, capsys):
        # planned twice, each request's pb row would be written twice
        assert main(["run", "--positioning", "location-aware,location-aware",
                     "--strategies", "pb", "--requests", "2", "--synth-nodes", "20",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 2
        assert ("error: positionings: duplicates not allowed"
                in capsys.readouterr().err)
        assert not (tmp_path / "exp").exists()

    def test_out_that_names_a_file_exits_3_before_planning(self, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "taken"
        out.write_text("")
        planned = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: planned.append(a))
        assert main(["run", "--synth-nodes", "20", "--requests", "1",
                     "--out", str(out), "--quiet"]) == 3
        assert "error:" in capsys.readouterr().err
        assert planned == []

    def test_bad_gamma_exits_2(self, tmp_path):
        assert main(["run", "--gamma", "1.5", "--requests", "1",
                     "--synth-nodes", "20", "--out", str(tmp_path),
                     "--quiet"]) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--pad-minutes", "nan", "pad_minutes"),
        ("--failure-scale", "nan", "failure_scale"),
        ("--failure-scale", "inf", "failure_scale"),
        ("--lambda", "inf", "quantum"),
        ("--lambda", "nan", "quantum"),
        ("--share-rate", "inf", "share_rate"),
        ("--share-rate", "nan", "share_rate"),
        ("--bin-width", "nan", "bin_width_km"),
    ])
    def test_nonfinite_flag_exits_2_before_planning(self, tmp_path, capsys,
                                                     flag, value, field):
        assert main(["run", flag, value, "--requests", "1", "--synth-nodes", "20",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 2
        assert f"error: {field}: must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag, message", [
        # 1e-320 km puts a 1 km route in bin 1e317, past any float
        ("--bin-width", "bin_width_km: 1e-320 km is under 1 m"),
        # 4480 mAh over 1e-320 min is an infinite pad rate
        ("--pad-minutes", "pad_minutes: 1e-320 min makes the pad rate inf"),
    ])
    def test_flag_whose_derived_value_overflows_exits_2_before_planning(
            self, tmp_path, capsys, monkeypatch, flag, message):
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args, **kwargs: pytest.fail("planning started"))
        assert main(["run", flag, "1e-320", "--requests", "1", "--synth-nodes", "20",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("strategy", ["fb", "baseline"])
    def test_segment_that_takes_no_time_exits_3_before_planning(
            self, tmp_path, capsys, monkeypatch, strategy):
        # 1e-320 m loads, but flies in 0.0 minutes at 30 km/h: fb rejected
        # the leg partway through the sweep, baseline flew it
        net = tmp_path / "net.csv"
        save_network(largest_connected_component(synthesize_network(40, 3)), net)
        text = net.read_text()
        assert "\n7,25,2254.7," in text
        net.write_text(text.replace("\n7,25,2254.7,", "\n7,25,1e-320,"))
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args, **kwargs: pytest.fail("planning started"))
        assert main(["run", "--network", str(net), "--requests", "6", "--seed", "1",
                     "--strategies", strategy, "--out", str(tmp_path / "exp"),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "error: segment (7, 25): 1e-320 m takes 0.0 min at 30 km/h" in err
        assert "Traceback" not in err
        assert not (tmp_path / "exp").exists()

    def test_tiny_lambda_exits_2_before_planning(self, tmp_path, capsys):
        # 1e-6 mAh at 5.88 mAh/min is a turn of 1.7e-7 min: ~6e7 turns a leg
        assert main(["run", "--lambda", "1e-6", "--requests", "1",
                     "--synth-nodes", "20", "--out", str(tmp_path / "exp"),
                     "--quiet"]) == 2
        assert "error: quantum: a fairness turn" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_every_config_field_is_set_by_its_flag(self, tmp_path, monkeypatch):
        seen = []

        def capture(net, requests, table, cfg, **kwargs):
            seen.append(cfg)
            return [], bin_metrics([], cfg.bin_width_km)

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["run", "--synth-nodes", "20", "--requests", "1",
                     "--strategies", "fb,baseline", "--positioning", "energy-aware",
                     "--gamma", "0.5", "--delta-frac", "0.3", "--lambda", "100",
                     "--share-rate", "7.5", "--pad-minutes", "30",
                     "--failure-scale", "6", "--bin-width", "0.25",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 0
        (cfg,) = seen
        default = ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name

    def test_no_sweep_flag_gives_the_default_config(self, tmp_path, monkeypatch):
        seen = []

        def capture(net, requests, table, cfg, **kwargs):
            seen.append(cfg)
            return [], bin_metrics([], cfg.bin_width_km)

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["run", "--synth-nodes", "20", "--requests", "1",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 0
        assert seen == [ExperimentConfig()]

    def test_missing_network_exits_3(self, tmp_path):
        assert main(["run", "--network", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path), "--quiet"]) == 3

    def test_malformed_network_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is\nnot,a network\n")
        assert main(["run", "--network", str(bad),
                     "--out", str(tmp_path), "--quiet"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "calibrate-scale"])
    @pytest.mark.parametrize("nodes", ["", "0,0,0,2\n"])
    def test_network_with_fewer_than_two_nodes_exits_3(self, tmp_path, capsys,
                                                        command, nodes):
        net = tmp_path / "net.csv"
        net.write_text(f"nodes\n{nodes}segments\n")
        extra = ["--out", str(tmp_path / "exp"), "--quiet"] if command == "run" else []
        assert main([command, "--network", str(net), "--requests", "2", *extra]) == 3
        err = capsys.readouterr().err
        assert f"error: {net}: " in err
        assert "at least 2" in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("nodes, segment, message", [
        ("0,nan,0,2", "0,1,1000.0,3.0,10.0", "node 0: coordinates must be finite"),
        ("0,0,inf,2", "0,1,1000.0,3.0,10.0", "node 0: coordinates must be finite"),
        ("0,0,0,2", "0,1,1000.0,3.0,nan", "wind direction must be finite"),
    ])
    def test_nonfinite_network_value_exits_3(self, tmp_path, capsys,
                                             nodes, segment, message):
        net = tmp_path / "net.csv"
        net.write_text(f"nodes\n{nodes}\n1,1000,0,2\nsegments\n{segment}\n")
        assert main(["run", "--network", str(net), "--requests", "2",
                     "--out", str(tmp_path / "exp"), "--quiet"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def requests_file(self, tmp_path, source=None, destination=None,
                      weights="0.5;0.7"):
        """A synthesized network plus a one-row requests file; both paths."""
        net = tmp_path / "net.csv"
        main(["synth", "--seed", "5", "--nodes", "30", "--out", str(net)])
        ids = sorted(load_network(net).nodes)
        source = ids[0] if source is None else source
        destination = ids[-1] if destination is None else destination
        reqs = tmp_path / "requests.csv"
        reqs.write_text(f"0,{source},{destination},{weights}\n")
        return net, reqs

    def run_requests_file(self, tmp_path, net, reqs, *extra):
        return main(["run", "--network", str(net), "--requests-file", str(reqs),
                     "--strategies", "baseline", "--out", str(tmp_path / "exp"),
                     "--quiet", *extra])

    def test_requests_file_runs(self, tmp_path):
        net, reqs = self.requests_file(tmp_path)
        assert self.run_requests_file(tmp_path, net, reqs) == 0
        with open(tmp_path / "exp" / "results.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    @pytest.mark.parametrize("end", ["source", "destination"])
    def test_unknown_request_node_exits_3(self, tmp_path, capsys, end):
        net, reqs = self.requests_file(tmp_path, **{end: 99999})
        assert self.run_requests_file(tmp_path, net, reqs) == 3
        assert "unknown node 99999" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_overweight_package_exits_3(self, tmp_path, capsys):
        net, reqs = self.requests_file(tmp_path, weights="0.5;2.5")
        assert self.run_requests_file(tmp_path, net, reqs) == 3
        assert "weight 2.5 exceeds" in capsys.readouterr().err

    def test_nan_package_weight_exits_3(self, tmp_path, capsys):
        net, reqs = self.requests_file(tmp_path, weights="0.5;nan")
        assert self.run_requests_file(tmp_path, net, reqs) == 3
        assert "line 1: request 0: weight nan must be finite" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_coefficient_exits_3(self, tmp_path, capsys, value):
        net, reqs = self.requests_file(tmp_path)
        coeffs = tmp_path / "coeffs.csv"
        table = default_table()
        cells = {(kind, slot, sector): repr(table.coefficient(kind, slot, sector))
                 for kind in FORMATION_KINDS for slot in range(12) for sector in WIND_SECTORS}
        cells[("vee", 1, "head")] = value
        coeffs.write_text("".join(f"{k},{s},{w},{c}\n" for (k, s, w), c in cells.items()))
        code = main(["run", "--network", str(net), "--requests-file", str(reqs),
                     "--strategies", "baseline,dijkstra", "--out", str(tmp_path / "exp"),
                     "--quiet", "--coeffs", str(coeffs)])
        assert code == 3
        assert (f"coefficient for ('vee', 1, 'head') must be finite and > 0, got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "exp").exists()

    def test_malformed_coefficients_exit_3(self, tmp_path, capsys):
        net, reqs = self.requests_file(tmp_path)
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("formation,slot,wind_sector,coefficient\nvee,zero,head,1.0\n")
        code = self.run_requests_file(tmp_path, net, reqs, "--coeffs", str(coeffs))
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_incomplete_coefficients_exit_3(self, tmp_path, capsys):
        net, reqs = self.requests_file(tmp_path)
        coeffs = tmp_path / "coeffs.csv"
        table = default_table()
        coeffs.write_text("".join(
            f"{kind},{slot},{sector},{table.coefficient(kind, slot, sector)!r}\n"
            for kind in FORMATION_KINDS for slot in range(12) for sector in WIND_SECTORS
            if (kind, slot, sector) != ("vee", 1, "head")
        ))
        code = self.run_requests_file(tmp_path, net, reqs, "--coeffs", str(coeffs))
        assert code == 3
        assert ("no coefficient for formation 'vee' slot 1 sector 'head'"
                in capsys.readouterr().err)
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_duplicate_request_id_exits_3(self, tmp_path, capsys):
        net, reqs = self.requests_file(tmp_path)
        row = reqs.read_text()
        reqs.write_text(row + row.replace("0.5;0.7", "0.3"))
        assert self.run_requests_file(tmp_path, net, reqs) == 3
        assert "line 2: request id 0 repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "results.csv").exists()

    @pytest.mark.parametrize("packages,strategies", [(13, "baseline"), (7, "pb")])
    def test_swarm_beyond_table_slots_exits_3(self, tmp_path, capsys,
                                              packages, strategies):
        # 7 packages fit the 12 slots alone, but pb may add 7 support drones
        net, reqs = self.requests_file(tmp_path, weights=";".join(["0.1"] * packages))
        code = main(["run", "--network", str(net), "--requests-file", str(reqs),
                     "--strategies", strategies, "--out", str(tmp_path / "exp"),
                     "--quiet"])
        assert code == 3
        assert "has only 12 slots" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "results.csv").exists()

    def test_swarm_size_bound_is_the_most_support_redundancy_count_gives(self):
        # n delivery drones with pb take up to max(n, 4) support drones: a
        # request fits exactly n + max(n, 4) slots and no fewer
        def table(slots):
            return SimpleNamespace(max_slots=lambda kind: slots)

        for n in range(1, 13):
            assert max(redundancy_count(float(p), n) for p in range(101)) == max(n, 4)
            request = [DeliveryRequest(0, 0, 1, [0.1] * n)]

            def check(slots, strategies):
                bench.check_requests(corridor_net(), request, table(slots), strategies, 1.4)

            check(n + max(n, 4), ("pb",))
            with pytest.raises(NetworkFormatError, match=f"up to {n + max(n, 4)} drones"):
                check(n + max(n, 4) - 1, ("pb",))
            check(n, ("baseline",))

    def test_seven_packages_without_sharing_run(self, tmp_path):
        net, reqs = self.requests_file(tmp_path, weights=";".join(["0.1"] * 7))
        assert self.run_requests_file(tmp_path, net, reqs) == 0

    def test_swarm_beyond_pad_search_cap_plans_with_lpt(self, tmp_path):
        # 13 drones exceed the exact pad search; the LPT schedule stands in
        net, reqs = self.requests_file(tmp_path, weights=";".join(["0.1"] * 13))
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("".join(
            f"{kind},{slot},{sector},1.0\n"
            for kind in FORMATION_KINDS for slot in range(16) for sector in WIND_SECTORS
        ))
        code = self.run_requests_file(tmp_path, net, reqs, "--coeffs", str(coeffs))
        assert code == 0
        with open(tmp_path / "exp" / "results.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_clustering_coefficients_exit_3(self, tmp_path, capsys):
        # equal coefficients rank slots by index, so location-aware support
        # drones fill the column's tail side by side
        net = tmp_path / "net.csv"
        main(["synth", "--seed", "5", "--nodes", "276", "--out", str(net)])
        ids = sorted(load_network(net).nodes)
        reqs = tmp_path / "requests.csv"
        reqs.write_text(f"0,{ids[0]},{ids[-1]},1.4;1.4\n")
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("".join(
            f"{kind},{slot},{sector},1.0\n"
            for kind in FORMATION_KINDS for slot in range(12) for sector in WIND_SECTORS
        ))
        run = ["run", "--network", str(net), "--requests-file", str(reqs),
               "--out", str(tmp_path / "exp"), "--quiet", "--coeffs", str(coeffs)]
        assert main(run + ["--strategies", "pb"]) == 3
        assert "never cluster support drones" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "results.csv").exists()
        # without sharing no support drone flies, and the table is fine
        assert main(run + ["--strategies", "baseline"]) == 0

    def test_calibrate_scale_smoke(self, capsys):
        code = main(["calibrate-scale", "--synth-nodes", "30",
                     "--requests", "10", "--seed", "2",
                     "--scales", "4,16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scale" in out
        assert "sup:" in out

    @pytest.mark.parametrize("scales", [",", "-1", "nan", "4,inf"])
    def test_bad_scales_exit_2_before_any_work(self, capsys, monkeypatch, scales):
        def no_network(*args):
            raise AssertionError("loaded a network")

        monkeypatch.setattr(cli, "_load_or_synthesize", no_network)
        assert main(["calibrate-scale", "--synth-nodes", "30", "--requests", "5",
                     "--scales", scales]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: scales: need finite values > 0, got {scales!r}" in err

    @staticmethod
    def main_for(command, tmp_path, *flags):
        """Run ``command``; ``run`` writes into tmp_path/exp, quietly."""
        extra = ["--out", str(tmp_path / "exp"), "--quiet"] if command == "run" else []
        return main([command, *flags, *extra])

    @pytest.mark.parametrize("command", ["run", "calibrate-scale"])
    def test_windless_network_exits_3(self, tmp_path, capsys, command):
        net = tmp_path / "windless.csv"
        net.write_text("nodes\n0,0,0,2\n1,1000,0,2\n2,2000,0,2\n"
                       "segments\n0,1,1000.0,3.0,10.0\n1,2,1000.0\n")
        assert self.main_for(command, tmp_path, "--network", str(net),
                             "--requests", "2") == 3
        assert "segment (1, 2) has no wind data" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    # ExperimentConfig does not check these flags; the generators reject them
    @pytest.mark.parametrize("command", ["run", "calibrate-scale"])
    def test_negative_request_count_exits_2(self, tmp_path, capsys, command):
        assert self.main_for(command, tmp_path, "--synth-nodes", "20",
                             "--requests", "-1") == 2
        assert "request count must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("command", ["run", "calibrate-scale"])
    def test_too_few_synth_nodes_exit_2(self, tmp_path, capsys, command):
        assert self.main_for(command, tmp_path, "--synth-nodes", "1") == 2
        assert "need at least 2 nodes" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
