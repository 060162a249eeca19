"""Argv fuzz derived from the command table: every subcommand with every
argument drawn from a hostile pool must exit with a documented code and
never with a traceback.

Sizes are capped so that no draw builds a large table: an x or a prime
limit is at most 1e4 unless it lies above a ceiling, and sweeps run at most
three trials.  Every path the CLI writes or reads lies in ``tmp_path``.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from musum.cli import EXIT_DOMAIN, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, FORMATS, _COMMANDS, run
from musum.semigroup import MAX_ENUM_LIMIT
from musum.sums import EXACT_CEILING

_DOCUMENTED = {EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_RESOURCE}

# Text no argument accepts, reals at and beyond the edges of a double, and
# malformed specs and weights.  Each value is drawn from such a pool one
# time in four and from a pool of ordinary values otherwise, so that most
# draws get past the parser.
_JUNK = ["", "é", "∞", "x", "1,,2", "0x10", " ", "--", "2=", "1/0"]
_EDGE_REALS = ["nan", "-nan", "inf", "-inf", "1e-320", "-1e-320", "1e308", "-1e308", "1e400",
               "1e-17", "-0.0"] + _JUNK
_REALS = ["0", "-1", "0.5", "1", "1.5", "2", "3.7", "100", "0.1", "0.25"]
_SMALL = [0, -1, -7, 1, 2, 3, 6, 12, 30, 97, 100, 210, 1000, 9973, 10**4]
_ABOVE = [MAX_ENUM_LIMIT + 1, EXACT_CEILING + 1, 10**12]
# A large prime and a composite with no factor below the trial-division
# limit meet every integer option.
_EDGE_INTS = _ABOVE + [MAX_ENUM_LIMIT - 1, EXACT_CEILING - 1, 2**63, -(2**63), 2**61 - 1,
                       (10**9 + 7) * (10**9 + 9)] + _EDGE_REALS
_SPECS = [
    "all", "finite:", "finite:2,3", "finite:2,2", "finite:1000003", "cofinite:", "cofinite:5",
    "interval:10..100", "interval:0..1e308", "interval:-1e308..0", "residue:1 mod 4",
    "residue:3 mod 100000001", "residue:0 mod 2", "logfrac:t=1.0,w=0.1,s=0.0",
    "logfrac:t=1e8,w=0.25,s=0", "logfrac:t=5,w=0.5,s=0.999", "logfrac:t=1e-320,w=0.1,s=0",
    "logfrac:t=1,w=0,s=0",
]
_BAD_SPECS = [
    "finite:4", "finite:2,", "cofinite:-3", "interval:5..", "interval:nan..3", "interval:1..inf",
    "residue:1 mod 1", "residue:1 mod -4", "residue:a mod 4", "logfrac:t=nan,w=0.1,s=0",
    "logfrac:t=0,w=0.1,s=0", "logfrac:t=1e308,w=0.25,s=0", "logfrac:t=5,w=0.5,s=-1e308",
    "logfrac:t=1,w=0.6,s=0", "logfrac:t=1,w=0.1", "primes", "all:",
] + _JUNK
_WEIGHTS = ["", "2=1/3,5=1", "2=0,3=0", "7=2/9", "2=1/3,2=1/2", "1000003=1/2", "2=1e-320"]
_BAD_WEIGHTS = ["2=3/2", "4=1/2", "2=-1", "2=nan", "2=1e308", "2", "=1", "é=1"] + _JUNK
_REPLAYS = [
    b'[{"kind": "theorem1", "set": "all", "x": 50}]',
    b'[{"kind": "zorn", "set": "finite:2,3", "x": 40}]',
    b'[{"kind": "mock", "op": "divisors", "N": 6469693230, "x": 100}]',
    b'[{"kind": "mock", "op": "shifted", "m": 12, "x": 100}]',
    b'[{"kind": "mock", "op": "coprime", "P": 0, "x": 5}]',
    b'[{"kind": "weights", "default": 7, "weights": {}, "x": 5}]',
    b'[{"kind": "weights", "default": 0, "weights": {"4": "1/2"}, "x": 5}]',
    b'[{"kind": "zorn", "set": "finite:4", "x": 5}]',
    b'[{"kind": "theorem1", "set": "all", "x": -1}]',
    b'[{"kind": "theorem1", "set": "all", "x": 100000001}]',
    b'[{"kind": "theorem1", "set": "all", "x": 50.0}]',
    b'[]', b'[1]', b'{}', b'null', b'[{"kind": "theorem1", ', b"\xff\xfe",
]


def _pick(draw, ordinary: list, hostile: list) -> str:
    pool = hostile if draw(st.integers(0, 3)) == 0 else ordinary
    return str(draw(st.sampled_from(pool)))


def _size(draw) -> str:
    """An x or a prime limit: at most 1e4, or above a ceiling."""
    return _pick(draw, _SMALL, _ABOVE + _EDGE_REALS)


def _value(draw, flag: str, kwargs: dict, tmp_path) -> str:
    if "choices" in kwargs:
        return _pick(draw, list(kwargs["choices"]), _JUNK)
    if flag in ("--x", "--prime-limit"):
        return _size(draw)
    if flag == "--x-grid":
        return ",".join(_size(draw) for _ in range(draw(st.integers(1, 3))))
    if flag == "--trials":
        return _pick(draw, [1, 2, 3], [0, -1] + _JUNK)
    if flag == "--set":
        return _pick(draw, _SPECS, _BAD_SPECS)
    if flag == "--weights":
        return _pick(draw, _WEIGHTS, _BAD_WEIGHTS)
    if flag == "--dump":
        return _pick(draw, [tmp_path / "dump.json"], [tmp_path, tmp_path / "no" / "dump"])
    if flag == "--replay":
        path = tmp_path / "replay.json"
        path.write_bytes(draw(st.sampled_from(_REPLAYS)))
        return _pick(draw, [path], [tmp_path, tmp_path / "missing.json"])
    if kwargs.get("type") is int:
        return _pick(draw, _SMALL, _EDGE_INTS)
    if kwargs.get("type") is float:
        return _pick(draw, _REALS, _EDGE_REALS)
    count = draw(st.integers(1, 3))
    return ",".join(_pick(draw, _REALS, _EDGE_REALS) for _ in range(count))


def _argv(draw, tmp_path) -> tuple[list[str], str, str]:
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [name]
    for flag, kwargs in _COMMANDS[name].args:
        # A default prime limit above the cap, and the 100 trials a sweep
        # runs by default, are always overridden.
        default = kwargs.get("default")
        needed = kwargs.get("required") or isinstance(default, int) and default > 3
        if not needed and not draw(st.booleans()):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append(f"{flag}={_value(draw, flag, kwargs, tmp_path)}")
    fmt = _pick(draw, list(FORMATS), ["xml"] + _JUNK)
    out = _pick(draw, ["-", "-", tmp_path / "out.txt"], [tmp_path, tmp_path / "no" / "out"])
    return argv + [f"--format={fmt}", f"--out={out}"], fmt, out


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_argv_exits_with_a_documented_code(data, tmp_path):
    argv, fmt, out = _argv(data.draw, tmp_path)
    note(argv)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    assert code in _DOCUMENTED, (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == EXIT_OK and fmt == "json" and out == "-":
        json.loads(stdout.getvalue())
