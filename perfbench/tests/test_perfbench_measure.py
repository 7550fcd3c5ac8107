import csv

from measure import golden_check, latency_summary, load_golden, p95, read_results, write_golden

COLUMNS = ["request_id", "strategy", "positioning", "status", "distance_m",
           "dt_min", "tt_min", "nt_min", "energy_shared_mAh", "runtime_ms"]


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)


def _rows(runtime="1.5"):
    return [
        [str(rid), strategy, pos, "success", "1200.0", "3.5", "2.5", "1.0", "0.0", runtime]
        for rid in range(3)
        for strategy, pos in (("baseline", "none"), ("fb", "energy-aware"))
    ]


class TestP95:
    def test_reported_with_ten_beyond(self):
        value, beyond = p95(range(1, 201))
        assert (value, beyond) == (190, 10)

    def test_withheld_below_ten_beyond(self):
        value, beyond = p95(range(1, 200))
        assert value is None and beyond == 9

    def test_summary_carries_counts(self):
        s = latency_summary([3.0, 1.0, 2.0])
        assert (s["p50"], s["p95"], s["n"]) == (2.0, None, 3)


class TestGoldenCheck:
    def _golden(self, tmp_path):
        _write(tmp_path / "golden.csv", _rows())
        columns, checked, _ = read_results(tmp_path / "golden.csv")
        write_golden(columns, checked, tmp_path / "golden.csv.gz")
        return load_golden(tmp_path / "golden.csv.gz")

    def _check(self, tmp_path, rows, ids=range(3)):
        _write(tmp_path / "run.csv", rows)
        _, checked, _ = read_results(tmp_path / "run.csv")
        return golden_check(self._golden(tmp_path), checked, ids)

    def test_identical_rows_pass_whatever_their_runtime(self, tmp_path):
        assert self._check(tmp_path, _rows(runtime="99.25")) == (6, [])

    def test_flags_a_single_changed_row(self, tmp_path):
        rows = _rows()
        rows[3][5] = "3.5000000000000004"
        attempted, bad = self._check(tmp_path, rows)
        assert attempted == 6 and bad == [("1", "fb", "energy-aware")]

    def test_flags_missing_and_unexpected_rows(self, tmp_path):
        rows = _rows()
        rows[0][2] = "location-aware"
        attempted, bad = self._check(tmp_path, rows)
        assert attempted == 6
        assert sorted(bad) == [("0", "baseline", "location-aware"), ("0", "baseline", "none")]

    def test_expects_only_the_planned_requests(self, tmp_path):
        attempted, bad = self._check(tmp_path, _rows()[:2], ids=[0])
        assert (attempted, bad) == (2, [])
