"""Byte identity of the CLI: every subcommand in every format, plus usage,
domain and resource errors, against digests recorded once in
``cli_golden.json``.

Each case runs ``cli.run`` in-process in a fresh working directory that
holds the replay inputs below.  Its exit code, the SHA-256 of stdout and of
stderr, and the SHA-256 of every file the case writes there are compared
with the stored record.  Help texts are left out: argparse lays them out
differently across Python versions.
"""

import contextlib
import csv
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from musum.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

# Written into every case's working directory before it runs.
INPUTS = {
    "replay.json": (b'[{"kind": "theorem1", "set": "all", "x": 50},'
                    b' {"kind": "zorn", "set": "finite:2,3", "x": 40}]'),
    "not-json.json": b'[{"kind": "theorem1", ',
    "no-set.json": b'[{"kind": "theorem1", "x": 5}]',
}

FORMATS = ("plain", "csv", "json")

# Each of these runs once per output format.
EVERY_FORMAT = [
    "sum --set all --x 100",
    "sum --set all --x 1000 --mode float",
    "sum --set finite:2,3 --x 50",
    "sum --set cofinite:5 --x 200 --mode float",
    "sum --set interval:10..100 --x 300",
    "sum --set 'residue:1 mod 4' --x 100",
    "sum --set logfrac:t=1.0,w=0.1,s=0.0 --x 100",
    "coprime --p 6 --x 100",
    "coprime --p 30 --x 500 --mode float",
    "divisors --n 12 --x 20",
    "divisors --n 360 --x 100 --mode float",
    "shifted --m 5 --x 100",
    "shifted --m 4 --x 100",
    "shifted --m 1 --x 300 --mode float",
    "weighted --weights 2=1/3,5=1 --x 100",
    "weighted --weights 3=0 --default 1 --x 400 --mode float",
    "weighted --x 30",
    "zorn --set finite:2,3 --x 100",
    "zorn --set cofinite:3 --x 1000",
    "euler --set finite:2,3,5",
    "euler --set finite:",
    "euler --set all --prime-limit 1000",
    "converge --set all --x-grid 10,100,1000",
    "converge --set finite:2,3 --x-grid 6,100",
    "converge --set cofinite:2 --x-grid 100,10000",
    "mertens --x 10000",
    "mean-mobius --set all --x 1000",
    "mean-mobius --set all --x 1000000",
    "gran --set all --x-grid 10,100",
    "gran --set cofinite:2,3 --x-grid 1,50,500",
    "zeta --set all --re 2 --im 1 --prime-limit 1000",
    "zeta --set finite:2,3 --re 1.5",
    "zeta --set logfrac:t=2.0,w=0.2,s=0.5 --re 1.1 --im 2 --prime-limit 2000",
    "logres --set all --sigma 1.5 --prime-limit 1000",
    "logres --set finite:2 --sigma 2",
    "blowup --t 1.0 --shift 0.0 --eps 0.5,0.2 --prime-limit 1000",
    "blowup --t 2.5 --shift 0.5 --eps 0.3,0.1,0.05 --width 0.2 --prime-limit 3000",
    "gs-const",
    "semiprime --x 40",
    "semiprime --x 400 --mode float",
    "beurling --generators 1.1,1.2,1.3 --x 1.3",
    "beurling --generators 2,3,5 --x 30",
    "density --set all --x 100",
    "density --set 'residue:3 mod 4' --x 1000",
    "enumerate --set finite:2,3 --x 30",
    "enumerate --set all --x 0",
    "enumerate --set finite:2,3,5 --x 50 --squarefree-only --backend heap",
    "enumerate --set cofinite:2 --x 40 --backend sieve",
    "sweep --kind theorem1 --trials 5 --seed 1",
    "sweep --kind mock --trials 5 --seed 2",
    "sweep --kind zorn --trials 5 --seed 3",
    "sweep --kind weights --trials 5 --seed 4",
    "sweep --kind theorem1 --replay replay.json",
]

# Each of these runs once, as written.
SINGLE = [
    "gs-const --format json --out report.json",
    "sum --set all --x 60 --format csv --out sum.csv",
    "enumerate --set all --x 20 --out terms.txt",
    "sweep --kind zorn --trials 4 --seed 9 --dump instances.json --format json",
    # usage and parse errors: exit 1
    "sum --set nonsense --x 10",
    "sum --set finite:4 --x 10",
    "sum --x 10",
    "sum --set all --x abc",
    "sum --set all --x 200000",
    "coprime --p 6",
    "converge --set all --x-grid 1,a",
    "converge --set all --x-grid ,",
    "gran --set all --x-grid x",
    "blowup --t 1 --shift 0 --eps 0.5,abc --prime-limit 100",
    "beurling --generators 1.1,abc --x 2",
    "weighted --weights 2 --x 10",
    "weighted --weights 2=abc --x 10",
    "euler --set all",
    "enumerate --set all --x 50 --backend heap",
    "sweep --kind theorem1 --replay not-json.json",
    "sweep --kind theorem1 --replay no-set.json",
    # domain errors: exit 2
    "sum --set all --x -1",
    "sum --set finite:2,3 --x -5 --mode float",
    "coprime --p 0 --x 10",
    "zorn --set all --x 0",
    "euler --set all --prime-limit -1",
    "converge --set all --x-grid 10,5",
    "mertens --x 3",
    "mean-mobius --set all --x 0",
    "gran --set all --x-grid 0,3",
    "zeta --set all --re 1.0",
    "zeta --set all --re 2 --prime-limit 1",
    "logres --set all --sigma 0.5",
    "blowup --t 0 --shift 0 --eps 0.5,0.2 --prime-limit 100",
    "blowup --t 1 --shift 0 --eps 0.2,0.5 --prime-limit 100",
    "blowup --t 1 --shift 0 --eps 0.5,-0.1 --prime-limit 100",
    "blowup --t 1 --shift 1.5 --eps 0.5 --prime-limit 100",
    "semiprime --x 0",
    "beurling --generators 0.9 --x 1.0",
    "beurling --generators 1.5 --x -1",
    "density --set all --x -2",
    # resource errors: exit 4
    "sum --set all --x 100000001 --mode float",
    "converge --set all --x-grid 10,100000001",
    "gs-const --out .",
    "sweep --kind theorem1 --trials 3 --seed 1 --dump missing/instances.json",
    "sweep --kind theorem1 --replay absent.json",
]

CASES = [f"{argv} --format {fmt}" for argv in EVERY_FORMAT for fmt in FORMATS] + SINGLE


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(case: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its digests."""
    for name, data in INPUTS.items():
        (workdir / name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(shlex.split(case))
    files = {
        path.name: _sha(path.read_bytes())
        for path in sorted(workdir.iterdir())
        if path.is_file() and path.name not in INPUTS
    }
    return {
        "code": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
        "files": files,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_golden(golden, case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert record(case, tmp_path) == golden[case]


@pytest.mark.parametrize("case", [c for c in CASES if "--format csv" in c])
def test_csv_rows_have_the_header_width(case, tmp_path, monkeypatch):
    """Every golden CSV case, read back by csv.reader: each row as wide as
    the header, whatever its cells hold."""
    monkeypatch.chdir(tmp_path)
    for name, data in INPUTS.items():
        (tmp_path / name).write_bytes(data)
    argv = shlex.split(case)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 0
    if "--out" in argv:  # the CSV went to a file
        out = io.StringIO((tmp_path / argv[argv.index("--out") + 1]).read_text())
    rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
    assert rows
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)
