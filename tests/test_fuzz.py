"""One-field fuzz of ``swarmway run``'s inputs.

Each case changes one field of a saved network, requests or coefficients
file, or one numeric ``run`` flag, to a value from ``VALUES``, and runs
``cli.main(["run", ...])`` in-process.  Every case must exit 0, or exit 3
(bad file) or 2 (bad flag) before ``run_experiment`` is entered; none may
end in a traceback.  The sample is fixed: a few rows of each file and every
numeric flag, on the trimmed ``synthesize_network(40, 3)``.
"""

import pytest

from swarmway import cli
from swarmway.formations import FORMATION_KINDS, WIND_SECTORS, default_table
from swarmway.network import (
    largest_connected_component,
    save_network,
    synthesize_network,
    synthesize_requests,
)

VALUES = ["nan", "inf", "-inf", "-1", "0", "-0.0", "1e308", "1e-300", "1e-320",
          "5e-324", "999999", "", "x"]
FLAGS = ["--requests", "--seed", "--gamma", "--delta-frac", "--lambda", "--share-rate",
         "--pad-minutes", "--failure-scale", "--bin-width", "--synth-nodes"]
# the CLI really builds that many nodes or requests
HUGE = {"1e308", "999999"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    net = largest_connected_component(synthesize_network(40, 3))
    save_network(net, root / "net.csv")
    requests = synthesize_requests(net, 2, 1)
    (root / "requests.csv").write_text("".join(
        f"{r.id},{r.source},{r.destination},{';'.join(map(repr, r.package_weights))}\n"
        for r in requests))
    table = default_table()
    (root / "coeffs.csv").write_text("".join(
        f"{kind},{slot},{sector},{table.coefficient(kind, slot, sector)!r}\n"
        for kind in FORMATION_KINDS for slot in range(table.max_slots(kind))
        for sector in WIND_SECTORS))
    return root


def run_cases(cases, monkeypatch, capsys, tmp_path):
    """Run each (name, argv) case; return the cases that broke the rule."""
    real = cli.run_experiment
    entered = []

    def spy(*args, **kwargs):
        entered.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", spy)
    broken = []
    for name, argv in cases:
        entered.clear()
        try:
            code = cli.main(["run", *argv, "--quiet", "--out", str(tmp_path / "exp")])
        except SystemExit as exc:  # argparse rejects the flag: usage error, exit 2
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is a traceback
            broken.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        capsys.readouterr()
        if code not in (0, 2, 3) or (code and entered):
            broken.append((name, f"exit {code}{' inside the sweep' if entered else ''}"))
    return broken


def file_cases(inputs, tmp_path, name, rows, argv):
    """One case per (row, field, value): file ``name`` with that field changed,
    run with ``argv(path of the changed file)``."""
    lines = (inputs / name).read_text().splitlines()
    cases = []
    for row in rows:
        fields = lines[row].split(",")
        for col in range(len(fields)):
            for value in VALUES:
                mutant = lines.copy()
                mutant[row] = ",".join(fields[:col] + [value] + fields[col + 1:])
                path = tmp_path / f"{row}.{col}.{VALUES.index(value)}.{name}"
                path.write_text("\n".join(mutant) + "\n")
                cases.append((f"{name} line {row + 1} field {col} = {value!r}",
                              argv(str(path))))
    return cases


def test_network_fields(inputs, tmp_path, monkeypatch, capsys):
    lines = (inputs / "net.csv").read_text().splitlines()
    segments = lines.index("segments")
    # the first and last node, the first and last segment, and segment
    # (7, 25), whose 1e-320 m once flew in 0.0 minutes
    rows = [1, segments - 1, segments + 1, len(lines) - 1,
            next(i for i, line in enumerate(lines) if line.startswith("7,25,"))]
    cases = file_cases(inputs, tmp_path, "net.csv", rows,
                       lambda path: ["--network", path, "--requests", "1", "--seed", "1"])
    assert run_cases(cases, monkeypatch, capsys, tmp_path) == []


def test_requests_fields(inputs, tmp_path, monkeypatch, capsys):
    net = str(inputs / "net.csv")
    cases = file_cases(inputs, tmp_path, "requests.csv", [0, 1],
                       lambda path: ["--network", net, "--requests-file", path])
    assert run_cases(cases, monkeypatch, capsys, tmp_path) == []


def test_coefficients_fields(inputs, tmp_path, monkeypatch, capsys):
    given = ["--network", str(inputs / "net.csv"),
             "--requests-file", str(inputs / "requests.csv")]
    # the table's first and last rows
    rows = [0, len((inputs / "coeffs.csv").read_text().splitlines()) - 1]
    cases = file_cases(inputs, tmp_path, "coeffs.csv", rows,
                       lambda path: [*given, "--coeffs", path])
    assert run_cases(cases, monkeypatch, capsys, tmp_path) == []


def test_numeric_flags(inputs, tmp_path, monkeypatch, capsys):
    cases = []
    for flag in FLAGS:
        for value in VALUES:
            if flag in ("--requests", "--synth-nodes") and value in HUGE:
                continue
            # --synth-nodes only acts when no --network is given
            world = [] if flag == "--synth-nodes" else ["--network", str(inputs / "net.csv")]
            requests = [] if flag == "--requests" else ["--requests", "1"]
            cases.append((f"{flag} {value!r}", [*world, *requests, f"{flag}={value}"]))
    assert run_cases(cases, monkeypatch, capsys, tmp_path) == []
