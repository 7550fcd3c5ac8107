"""Sweep plumbing, metric rollups, the CSV writers, and the CLI."""

import csv
import dataclasses
import math

import pytest

from swarmway.bench import (
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
from swarmway import cli
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
    Node,
    Segment,
    SkywayNetwork,
    Wind,
    load_network,
)

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
    ])
    def test_validation_names_the_field(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ExperimentConfig(**kwargs)


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
        with pytest.raises(ValueError, match="bin_width_km"):
            bin_metrics([], 0.0)


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

    def test_empty_workload(self):
        rows, metrics = run_experiment(corridor_net(), [], FLAT,
                                       ExperimentConfig(), spec=SPEC)
        assert rows == []
        assert metrics.groups == {}

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

    def test_synth_writes_loadable_network(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        assert main(["synth", "--seed", "7", "--nodes", "40",
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        net = load_network(out)
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
