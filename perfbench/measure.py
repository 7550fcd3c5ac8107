"""Percentiles and the golden-row check.  No swarmway imports here."""

from __future__ import annotations

import csv
import gzip
import io
import statistics

KEY_COLUMNS = ("request_id", "strategy", "positioning")
TIMING_COLUMN = "runtime_ms"
MIN_BEYOND_P95 = 10


def p95(values) -> tuple[float | None, int]:
    """Nearest-rank 95th percentile and the count of samples above its rank.

    The percentile is withheld (None) unless at least ten samples lie
    beyond it, which takes 200 samples.
    """
    ordered = sorted(values)
    rank = -(-95 * len(ordered) // 100)  # ceil(0.95 n) in exact integers
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND_P95:
        return None, beyond
    return ordered[rank - 1], beyond


def latency_summary(values) -> dict:
    """Median, p95 (or None) and sample counts of a list of timings."""
    high, beyond = p95(values)
    return {"p50": statistics.median(values) if values else None,
            "p95": high, "n": len(values), "beyond": beyond}


def read_results(path):
    """Rows of a results CSV written by ``swarmway.bench.write_results``.

    Returns ``(columns, checked, runtimes)``: the header without the
    timing column; per row key, the row's fields without it; and per row
    key, its ``runtime_ms``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        key_at = [header.index(c) for c in KEY_COLUMNS]
        time_at = header.index(TIMING_COLUMN)
        checked, runtimes = {}, {}
        for fields in reader:
            key = tuple(fields[i] for i in key_at)
            runtimes[key] = float(fields[time_at])
            checked[key] = fields[:time_at] + fields[time_at + 1:]
    return header[:time_at] + header[time_at + 1:], checked, runtimes


def _gzip_text(path):
    """Text writer for a gzip file whose bytes depend on its content alone."""
    return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), newline="")


def write_golden(columns, checked: dict, path) -> None:
    """Golden rows: a run's rows without the timing column, in key order."""
    with _gzip_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for key in sorted(checked, key=lambda k: (int(k[0]), k[1], k[2])):
            writer.writerow(checked[key])


def load_golden(path) -> dict:
    with gzip.open(path, "rt", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        key_at = [header.index(c) for c in KEY_COLUMNS]
        return {tuple(fields[i] for i in key_at): fields for fields in reader}


def golden_check(golden: dict, checked: dict, request_ids) -> tuple[int, list]:
    """Compare a run's rows with the golden rows of the requests it planned.

    Returns ``(attempted, bad_keys)``: the rows expected, and the keys of
    expected rows that are missing or differ plus any row not expected.
    """
    planned = {str(r) for r in request_ids}
    expected = {k: row for k, row in golden.items() if k[0] in planned}
    bad = [k for k, row in expected.items() if checked.get(k) != row]
    bad += [k for k in checked if k not in expected]
    return len(expected), bad
