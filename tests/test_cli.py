import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import musum
from musum import cli
from musum import sweeps
from musum.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    run,
)
from musum.errors import UsageError
from musum.primes import MAX_SIEVE_LIMIT, parse_spec
from musum.semigroup import EnumerationOptions, enumerate_terms
from musum.sums import SumReport, ZornIdentity
from musum.sweeps import SWEEP_KINDS, generate_instance, replay_instances, run_sweep


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSumCommands:
    def test_equality_at_one(self, capsys):
        code, out, _ = _run(capsys, "sum", "--set", "all", "--x", "1")
        assert code == EXIT_OK
        assert "1/1" in out
        assert "True" in out or "true" in out

    def test_parse_error_exits_one(self, capsys):
        code, _, err = _run(capsys, "sum", "--set", "finite:4", "--x", "10")
        assert code == EXIT_USAGE
        assert "4 is not prime" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_exact_ceiling_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "sum", "--set", "all", "--x", "200000",
                            "--mode", "exact")
        assert code == EXIT_USAGE
        assert "float" in err

    def test_json_exact_value(self, capsys):
        code, out, _ = _run(capsys, "sum", "--set", "finite:2,3", "--x", "6",
                            "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value_exact"] == "1/3"
        assert payload["bound_ok"] is True

    def test_coprime(self, capsys):
        code, out, _ = _run(capsys, "coprime", "--p", "6", "--x", "10",
                            "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value_exact"] == "23/35"

    @pytest.mark.parametrize("weights", ["2=1/2,2=1", "2=1,02=0"])
    def test_weight_given_twice_exits_one(self, capsys, weights):
        code, out, err = _run(capsys, "weighted", "--weights", weights, "--x", "10")
        assert (code, out, err) == (EXIT_USAGE, "", "error: weight for 2 given twice\n")

    def test_semiprime_bound_violation_is_not_a_failure(self, capsys):
        code, out, _ = _run(capsys, "semiprime", "--x", "10", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value_exact"] == "19/15"
        assert payload["bound_ok"] is False


class TestZornCommand:
    def test_example(self, capsys):
        code, out, _ = _run(capsys, "zorn", "--set", "finite:2,3", "--x", "10",
                            "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"lhs": 3, "rhs": 3, "equal": True}


class TestDomainErrors:
    def test_zeta_on_boundary(self, capsys):
        code, _, err = _run(capsys, "zeta", "--set", "all", "--re", "1.0")
        assert code == EXIT_DOMAIN

    def test_beurling_bad_generator(self, capsys):
        code, _, err = _run(capsys, "beurling", "--generators", "0.9", "--x", "1.0")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("generators", ["1.1,nan", "1.1,inf"])
    def test_beurling_nonfinite_generator(self, capsys, generators):
        code, out, err = _run(capsys, "beurling", "--generators", generators, "--x", "2")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("domain error:")

    def test_blowup_zero_t(self, capsys):
        code, _, err = _run(capsys, "blowup", "--t", "0", "--shift", "0",
                            "--eps", "0.5,0.2", "--prime-limit", "100")
        assert code == EXIT_DOMAIN


class TestFormats:
    def test_csv_convergence_header(self, capsys):
        code, out, _ = _run(capsys, "converge", "--set", "finite:2,3",
                            "--x-grid", "6,100", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,sum_value,product_value,gap"
        assert len(lines) == 3

    def test_csv_blowup_header(self, capsys):
        code, out, _ = _run(capsys, "blowup", "--t", "1.0", "--shift", "0.0",
                            "--eps", "0.5,0.2", "--prime-limit", "1000",
                            "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "eps,re,im,modulus,log_tail_bound"

    def test_empty_table_is_header_only(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--set", "all", "--x", "0",
                            "--format", "csv")
        assert code == EXIT_OK
        assert out == "n,mu\n"

    def test_floats_have_17_significant_digits(self, capsys):
        code, out, _ = _run(capsys, "mertens", "--x", "10000", "--format", "csv")
        assert code == EXIT_OK
        value = out.strip().splitlines()[1].split(",")[0]
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 16

    def test_json_has_stable_key_order(self, capsys):
        _, first, _ = _run(capsys, "sum", "--set", "all", "--x", "100",
                           "--format", "json")
        _, second, _ = _run(capsys, "sum", "--set", "all", "--x", "100",
                            "--format", "json")
        assert first == second
        keys = list(json.loads(first))
        assert keys == ["params", "x", "mode", "value_exact", "value_float",
                        "float_error_bound", "term_count", "bound_ok"]

    def test_experiment_json_envelope(self, capsys):
        code, out, _ = _run(capsys, "mean-mobius", "--set", "all", "--x", "100",
                            "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert list(payload) == ["experiment", "params", "verdicts",
                                 "fixtures_version", "result"]
        assert payload["fixtures_version"] == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = _run(capsys, "gs-const", "--format", "json",
                            "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["value"] == pytest.approx(-0.45539701, abs=1e-6)

    def test_unwritable_out_is_resource_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, "gs-const", "--out", str(tmp_path))
        assert code == 4
        assert "resource error" in err


_OVER = str(MAX_SIEVE_LIMIT + 1)


class TestEnumerationCeiling:
    """One above the enumeration ceiling, every route exits 4 before it
    builds a table (which would take a byte per n, 100 MB)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("sum", "--set", "all", "--x", _OVER, "--mode", "float"),
            ("sum", "--set", "finite:2,3", "--x", _OVER, "--mode", "float"),
            ("coprime", "--p", "6", "--x", _OVER, "--mode", "float"),
            ("divisors", "--n", "12", "--x", _OVER, "--mode", "float"),
            ("shifted", "--m", "5", "--x", _OVER, "--mode", "float"),
            ("weighted", "--weights", "2=1/2", "--default", "1", "--x", _OVER,
             "--mode", "float"),
            ("semiprime", "--x", _OVER, "--mode", "float"),
            ("enumerate", "--set", "all", "--x", _OVER),
            ("zorn", "--set", "all", "--x", _OVER),
            ("density", "--set", "all", "--x", _OVER),
            ("mean-mobius", "--set", "all", "--x", _OVER),
            ("mertens", "--x", _OVER),
            ("converge", "--set", "all", "--x-grid", _OVER),
            ("converge", "--set", "all", "--x-grid", f"10,{_OVER}"),
            ("gran", "--set", "all", "--x-grid", _OVER),
            ("gran", "--set", "all", "--x-grid", f"10,{_OVER}"),
        ],
    )
    def test_exit_four_without_a_table(self, capsys, argv):
        tracemalloc.start()
        try:
            code = run(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_RESOURCE
        assert captured.out == ""
        assert captured.err.startswith("resource error:")
        assert "Traceback" not in captured.err
        assert peak < 4 * 2**20


class TestEnumerateStreams:
    """enumerate writes its rows as it draws them off the table, so its peak
    stays at the table's byte per n, plus the chunks the table is read and
    written in, in every format.  A warm-up run first builds the cached
    parser."""

    @staticmethod
    def _peak(x, fmt):
        argv = ["enumerate", "--set", "all", "--x", str(x), "--format", fmt]
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            run(argv[:4] + ["100"] + argv[5:])
            tracemalloc.start()
            try:
                code = run(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == EXIT_OK
        return peak

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_peak_stays_near_the_table(self, fmt):
        x = 50000
        assert self._peak(x, fmt) < 3 * x + 64 * 1024

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_peak_at_a_million_stays_under_eight_megabytes(self, fmt):
        assert self._peak(10**6, fmt) < 8 * 10**6

    def test_plain_keys_pad_to_mu_at_x_in_one_pass(self, capsys, monkeypatch):
        # The last member, 64, has fewer digits than x: the keys still pad to mu@100.
        calls = []

        def counted(*args):
            calls.append(args)
            return enumerate_terms(*args)

        monkeypatch.setattr(cli, "enumerate_terms", counted)
        code, out, _ = _run(capsys, "enumerate", "--set", "finite:2", "--x", "100")
        assert code == EXIT_OK
        assert len(calls) == 1
        mus = {1: 1, 2: -1, 4: 0, 8: 0, 16: 0, 32: 0, 64: 0}
        assert out == "".join(f"{f'mu@{n}'.ljust(len('mu@100'))}  {mu}\n" for n, mu in mus.items())


class TestWriters:
    """The CSV and JSON writers against text built independently: from
    enumerate_terms for enumerate, and by json.dumps for a payload that holds
    every kind of value a handler passes."""

    @pytest.mark.parametrize("squarefree_only", [False, True])
    @pytest.mark.parametrize("set_text,backend", [
        ("all", "auto"), ("cofinite:2", "auto"), ("residue:1 mod 4", "auto"),
        ("finite:2,3,5", "heap"), ("finite:2,3,5", "sieve"),
    ])
    def test_enumerate_matches_its_terms(self, capsys, set_text, backend, squarefree_only):
        x = 20000
        options = EnumerationOptions(squarefree_only=squarefree_only, backend=backend)
        terms = list(enumerate_terms(parse_spec(set_text), x, options))
        argv = ["enumerate", "--set", set_text, "--x", str(x), "--backend", backend]
        argv += ["--squarefree-only"] if squarefree_only else []
        code, out, _ = _run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        assert out == "".join(f"{line}\n" for line in ["n,mu", *(f"{n},{mu}" for n, mu in terms)])
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        expected = {"set": set_text, "x": x, "terms": [{"n": n, "mu": mu} for n, mu in terms]}
        assert out == json.dumps(expected, separators=(",", ":")) + "\n"

    @staticmethod
    def _json(payload):
        return "".join(cli.Report([("unused", 0)], payload).render("json"))

    def test_payload_of_every_kind(self):
        rows = [(1, True), (2, None), (3, "a,b")]
        payload = {
            "yes": True, "no": False, "none": None, "int": -(10**30), "str": 'q"\\',
            "list": [1, [2, 3]], "tuple": (4, 5), "empty": [], "nested": {"a": {"b": [None]}},
            "failures": [{"set": "all", "x": 3, "reason": "forced"}, {"set": "finite:2"}],
            "rows": cli.Rows(("n", "flag"), rows),
            "stream": cli.Rows(("n", "flag"), iter(rows)),
            "no_rows": cli.Rows(("n", "flag"), iter([])),
        }
        records = [{"n": n, "flag": flag} for n, flag in rows]
        expected = {**payload, "tuple": [4, 5], "rows": records, "stream": records, "no_rows": []}
        text = self._json(payload)
        assert text == json.dumps(expected, separators=(",", ":")) + "\n"
        assert json.loads(text) == expected

    def test_payload_numbers_follow_the_number_rule(self):
        payload = {"float": 0.1, "rational": Fraction(-3, 4), "list": [2.5, Fraction(1, 3)],
                   "rows": cli.Rows(("x", "value"), iter([(1, 0.1), (2, Fraction(7, 2))]))}
        text = self._json(payload)
        assert json.loads(text) == {"float": 0.1, "rational": "-3/4", "list": [2.5, "1/3"],
                                    "rows": [{"x": 1, "value": 0.1}, {"x": 2, "value": "7/2"}]}
        assert text.count("0.10000000000000001") == 2

    def test_table_as_csv(self):
        rows = iter([(1, True), (2, None), (3, 0.1), (4, Fraction(-3, 4))])
        text = "".join(cli.Report([("unused", 0)], table=cli.Rows(("n", "value"), rows)).render("csv"))
        assert text == "n,value\n1,true\n2,\n3,0.10000000000000001\n4,-3/4\n"

    def test_unknown_value_is_refused(self):
        with pytest.raises(TypeError):
            self._json({"set": {1, 2}})

    # Every kind in one table: bool beside int in "flag", and a different
    # kind in each row of "value" and "mixed".
    _COLUMNS = ("n", "flag", "value", "mixed")
    _ROWS = [
        (1, True, None, 0.1),
        (2, 0, 0.5, "ab"),
        (3, False, 'q"\\', Fraction(-3, 4)),
        (4, 7, Fraction(6, 2), None),
        (5, True, -(10**30), True),
    ]

    def _every_kind(self):
        pairs = [(f"{c}@{row[0]}", v) for row in self._ROWS for c, v in zip(self._COLUMNS, row)]
        table = cli.Rows(self._COLUMNS, iter(self._ROWS))
        return cli.Report(pairs, {"rows": table}, table)

    def test_every_kind_as_plain(self):
        pairs = self._every_kind().pairs
        width = max(len(k) for k, _ in pairs)
        shown = {float: "{:.17g}".format, Fraction: lambda q: f"{q.numerator}/{q.denominator}"}
        expected = "".join(f"{k.ljust(width)}  {shown.get(type(v), str)(v)}\n" for k, v in pairs)
        assert "".join(self._every_kind().render("plain")) == expected
        assert "flag@1   True\nvalue@1  None\nmixed@1  0.10000000000000001\n" in expected

    def test_every_kind_as_csv(self):
        assert "".join(self._every_kind().render("csv")) == (
            "n,flag,value,mixed\n"
            "1,true,,0.10000000000000001\n"
            "2,0,0.5,ab\n"
            '3,false,"q""\\",-3/4\n'
            "4,7,3/1,\n"
            "5,true,-1000000000000000000000000000000,true\n"
        )

    def test_every_kind_as_json(self):
        text = "".join(self._every_kind().render("json"))
        assert text == (
            '{"rows":['
            '{"n":1,"flag":true,"value":null,"mixed":0.10000000000000001},'
            '{"n":2,"flag":0,"value":0.5,"mixed":"ab"},'
            '{"n":3,"flag":false,"value":"q\\"\\\\","mixed":"-3/4"},'
            '{"n":4,"flag":7,"value":"3/1","mixed":null},'
            '{"n":5,"flag":true,"value":-1000000000000000000000000000000,"mixed":true}'
            ']}\n'
        )
        assert [r["mixed"] for r in json.loads(text)["rows"]] == [0.1, "ab", "-3/4", None, True]

    def test_percent_in_column_names(self):
        columns = ("100%", "%s", "a%%b", "%(n)s")
        table = cli.Rows(columns, [(1, "x", 2.5, None)])
        csv = "".join(cli.Report([("unused", 0)], table=table).render("csv"))
        assert csv == "100%,%s,a%%b,%(n)s\n1,x,2.5,\n"
        expected = {"rows": [dict(zip(columns, [1, "x", 2.5, None]))]}
        assert self._json({"rows": table}) == json.dumps(expected, separators=(",", ":")) + "\n"

    class _Count(int):
        pass

    @pytest.mark.parametrize("value", [{1, 2}, _Count(3)], ids=["set", "int_subclass"])
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_unlisted_type_is_refused_in_every_format(self, value, fmt):
        table = cli.Rows(("n", "value"), [(1, 2), (2, value)])
        for report in (cli.Report([("n", 1), ("value", value)], {"value": value}),
                       cli.Report([("value", value)], {"rows": table}, table)):
            with pytest.raises(TypeError, match="cannot serialise"):
                "".join(report.render(fmt))


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sum", "--set", "cofinite:3,5", "--x", "2000", "--format", "csv"),
            ("sweep", "--kind", "theorem1", "--trials", "25", "--seed", "42",
             "--format", "json"),
            ("blowup", "--t", "1.0", "--shift", "0.5", "--eps", "0.5,0.1",
             "--prime-limit", "2000", "--format", "csv"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = _run(capsys, *argv)
        second = _run(capsys, *argv)
        assert first == second


class TestSweeps:
    def test_all_kinds_pass_small(self, capsys):
        for kind in SWEEP_KINDS:
            code, out, _ = _run(capsys, "sweep", "--kind", kind, "--trials", "20",
                                "--seed", "7", "--format", "json")
            assert code == EXIT_OK, kind
            payload = json.loads(out)
            assert payload["passed"] == 20
            assert payload["failed"] == 0

    def test_dump_and_replay_identical_verdict(self, capsys, tmp_path):
        dump = tmp_path / "instances.json"
        code, out, _ = _run(capsys, "sweep", "--kind", "zorn", "--trials", "15",
                            "--seed", "3", "--dump", str(dump), "--format", "json")
        assert code == EXIT_OK
        code2, out2, _ = _run(capsys, "sweep", "--kind", "zorn",
                              "--replay", str(dump), "--format", "json")
        assert code2 == EXIT_OK
        replayed = json.loads(out2)
        assert replayed["kind"] == "replay"
        assert replayed["trials"] == 15
        assert replayed["passed"] == 15

    def test_unwritable_dump_is_resource_error(self, capsys, tmp_path):
        dump = tmp_path / "missing" / "instances.json"
        code, _, err = _run(capsys, "sweep", "--kind", "theorem1", "--trials", "3",
                            "--seed", "1", "--dump", str(dump))
        assert code == EXIT_RESOURCE
        assert err.startswith("resource error:")
        assert "Traceback" not in err

    def test_python_api_replay_matches(self):
        result = run_sweep("mock", 30, 11)
        assert result.ok and result.passed == 30
        replay = replay_instances(result.instances)
        assert replay.passed == 30
        assert replay.failures == result.failures == []

    def test_seeded_instances_are_pinned(self):
        # Seeded sweeps must not change: one digest over 2000 instances of
        # every kind at each seed, hashed in SWEEP_KINDS order.
        digest = hashlib.sha256()
        for kind in SWEEP_KINDS:
            for seed in (0, 1, 7, 42, 2**63 - 1):
                rng = random.Random(seed)
                dump = json.dumps([generate_instance(kind, rng) for _ in range(2000)])
                digest.update(dump.encode())
        assert digest.hexdigest() == (
            "0c6780c82b209301b5777833197be187566f9a9588ad3c7011deca26b9c08293")

    @pytest.mark.parametrize("instance", [
        {"kind": "theorem1", "set": "all", "x": True},
        {"kind": "zorn", "set": "all", "x": False},
        {"kind": "weights", "default": True, "weights": {}, "x": 5},
        {"kind": "mock", "op": "coprime", "P": False, "x": 5},
        {"kind": "mock", "op": "divisors", "N": True, "x": 5},
        {"kind": "mock", "op": "shifted", "m": True, "x": 5},
    ])
    def test_replay_refuses_a_bool_for_an_int(self, instance):
        with pytest.raises(UsageError, match="must be int"):
            replay_instances([instance])

    def test_replay_of_a_bool_x_exits_one(self, capsys, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text('[{"kind": "theorem1", "set": "all", "x": true}]')
        code, out, err = _run(capsys, "sweep", "--kind", "theorem1", "--replay", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: sweep instance field 'x' must be int: ")


class TestVerificationFailure:
    """Exit 3 is reserved for a theorem that came back false, which correct
    code never produces; these force one to check what reaches the user."""

    def test_sweep_prints_its_report_before_exit_three(self, capsys, monkeypatch):
        checked = []

        def fail_first(instance):
            checked.append(instance)
            return {**instance, "reason": "forced"} if len(checked) == 1 else None

        monkeypatch.setattr(sweeps, "check_instance", fail_first)
        code, out, err = _run(capsys, "sweep", "--kind", "theorem1", "--trials", "4",
                              "--seed", "5")
        assert code == EXIT_VERIFICATION
        assert out.splitlines() == ["kind    theorem1", "trials  4", "seed    5",
                                    "passed  3", "failed  1"]
        head, _, instance = err.partition("\n")
        assert head == "VERIFICATION FAILURE: 1 of 4 sweep trials falsified a theorem"
        assert json.loads(instance) == {"failures": [{**checked[0], "reason": "forced"}]}

    def test_sweep_json_report_lists_the_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "check_instance",
                            lambda instance: {**instance, "reason": "forced"})
        code, out, _ = _run(capsys, "sweep", "--kind", "zorn", "--trials", "2",
                            "--seed", "1", "--format", "json")
        assert code == EXIT_VERIFICATION
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (0, 2)
        assert [f["reason"] for f in payload["failures"]] == ["forced", "forced"]

    def test_sum_outside_the_bound_prints_nothing(self, capsys, monkeypatch):
        broken = SumReport(params="all", x=10, mode="exact", value_exact=None,
                           value_float=2.0, float_error_bound=0.0, term_count=3,
                           bound_ok=False)
        monkeypatch.setattr(cli, "partial_sum", lambda spec, x, mode: broken)
        code, out, err = _run(capsys, "sum", "--set", "all", "--x", "10", "--format", "json")
        assert code == EXIT_VERIFICATION
        assert out == ""
        assert err.startswith("VERIFICATION FAILURE: unit bound falsified at all, x=10\n")
        assert "Traceback" not in err

    def test_split_counting_identity_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "zorn_check", lambda spec, x: ZornIdentity(3, 4, False))
        code, out, err = _run(capsys, "zorn", "--set", "all", "--x", "10")
        assert code == EXIT_VERIFICATION
        assert out == ""
        assert err.startswith("VERIFICATION FAILURE: counting identity falsified")


class TestParserReuse:
    """run() builds its parser once per process; a sequence of commands
    through one process must print what fresh processes print."""

    SEQUENCE = [
        ("sum", "--set", "all", "--x", "300", "--format", "json"),
        ("--help",),
        ("coprime", "--p", "6", "--x", "500", "--format", "csv"),
        ("sum", "--set", "nonsense", "--x", "10"),
        ("shifted", "--m", "4", "--x", "50"),
        ("sum", "--help"),
        ("sum", "--x", "10"),
        ("weighted", "--weights", "2=1/3,5=1", "--x", "200", "--mode", "float",
         "--format", "json"),
        ("semiprime", "--x", "40", "--format", "csv"),
        ("sweep", "--kind", "mock", "--trials", "5", "--seed", "2", "--format", "json"),
        (),
        ("gran", "--set", "all", "--x-grid", "10,100"),
    ]

    def test_one_process_matches_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
        in_process = [_run(capsys, *argv) for argv in self.SEQUENCE]
        assert cli._build_parser() is cli._build_parser()
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": str(Path(musum.__file__).resolve().parents[1])}
        for argv, got in zip(self.SEQUENCE, in_process):
            fresh = subprocess.run([sys.executable, "-m", "musum.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes = [code for code, _, _ in in_process]
        assert codes == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0]


def test_float_commands_do_not_import_mpmath():
    """mpmath is imported only by the extended-precision log-fraction test
    and the zeta phases, so importing the CLI and running a sum leaves it
    unloaded."""
    code = (
        "import sys, musum.cli\n"
        "assert musum.cli.run(['sum', '--set', 'all', '--x', '1000']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(musum.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_zeta_phases_do_not_import_mpmath():
    """The fixed-point phases need the mpmath reference only for phases too
    close to a rounding boundary; none is at Im(s) = 1 up to 1000."""
    code = (
        "import sys, musum.cli\n"
        "argv = ['zeta', '--set', 'all', '--re', '2', '--im', '1', '--prime-limit', '1000']\n"
        "assert musum.cli.run(argv) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(musum.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


_HARD_COMPOSITE = (10**9 + 7) * (10**9 + 9)


class TestBadInputExitCodes:
    """Malformed input maps to its documented exit code, with no traceback."""

    @pytest.mark.parametrize(
        "argv, replay, code",
        [
            (("gran", "--set", "all", "--x-grid", "0,3"), None, EXIT_DOMAIN),
            (("gran", "--set", "finite:2", "--x-grid", "0"), None, EXIT_DOMAIN),
            (("sweep", "--kind", "theorem1"), b'[{"kind": "theorem1", ', EXIT_USAGE),
            (("sweep", "--kind", "theorem1"), b'[{"kind": "theorem1", "x": 5}]', EXIT_USAGE),
            (("sweep", "--kind", "theorem1"), b"\xff\xfe", EXIT_USAGE),
            (("sweep", "--kind", "theorem1"), b'{"kind": "theorem1"}', EXIT_USAGE),
            (("sweep", "--kind", "mock"), b'[{"kind": "mock", "op": "sum", "x": 5}]',
             EXIT_USAGE),
            (("sweep", "--kind", "mock"), b'[{"kind": "mock", "op": "divisors", "x": 5}]',
             EXIT_USAGE),
            (("sweep", "--kind", "zorn"), b'[{"kind": "zorn", "set": "all", "x": "5"}]',
             EXIT_USAGE),
            (("sweep", "--kind", "weights"), b'[{"kind": "weights", "default": 0, "x": 5}]',
             EXIT_USAGE),
            (("sweep", "--kind", "weights"),
             b'[{"kind": "weights", "default": 0, "weights": {"2": "abc"}, "x": 5}]',
             EXIT_USAGE),
            (("sweep", "--kind", "weights"),
             b'[{"kind": "weights", "default": 0, "weights": {"2": "1/0"}, "x": 5}]',
             EXIT_USAGE),
            # one or more rows per subcommand, non-finite reals included
            (("gran", "--set", "all", "--x-grid", "1,2.5"), None, EXIT_USAGE),
            (("sum", "--set", "finite:4", "--x", "10"), None, EXIT_USAGE),
            (("sum", "--set", "all", "--x", "-1"), None, EXIT_DOMAIN),
            (("coprime", "--p", "0", "--x", "10"), None, EXIT_DOMAIN),
            (("divisors", "--n", "0", "--x", "10"), None, EXIT_DOMAIN),
            (("shifted", "--m", "0", "--x", "10"), None, EXIT_DOMAIN),
            (("zorn", "--set", "all", "--x", "0"), None, EXIT_DOMAIN),
            (("euler", "--set", "all"), None, EXIT_USAGE),
            (("euler", "--set", "all", "--prime-limit", "-1"), None, EXIT_DOMAIN),
            (("weighted", "--weights", "2=3/2", "--x", "10"), None, EXIT_DOMAIN),
            (("weighted", "--weights", "2", "--x", "10"), None, EXIT_USAGE),
            (("converge", "--set", "all", "--x-grid", "10,5"), None, EXIT_DOMAIN),
            (("converge", "--set", "all", "--x-grid", "1,a"), None, EXIT_USAGE),
            (("mertens", "--x", "3"), None, EXIT_DOMAIN),
            (("mean-mobius", "--set", "all", "--x", "0"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "1.0"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "nan"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "inf"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "2", "--im", "nan"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "2", "--im", "inf"), None, EXIT_DOMAIN),
            (("zeta", "--set", "all", "--re", "2", "--im=-inf"), None, EXIT_DOMAIN),
            (("logres", "--set", "all", "--sigma", "inf"), None, EXIT_DOMAIN),
            (("logres", "--set", "all", "--sigma", "nan"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "nan"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "0.5,nan"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "inf,0.5"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "1e400"), None, EXIT_DOMAIN),
            (("blowup", "--t", "nan", "--shift", "0", "--eps", "0.5"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "0.5,x"), None, EXIT_USAGE),
            (("gs-const", "--format", "xml"), None, EXIT_USAGE),
            (("semiprime", "--x", "0"), None, EXIT_DOMAIN),
            (("beurling", "--generators", "1.5,2", "--x", "nan"), None, EXIT_DOMAIN),
            (("beurling", "--generators", "1.5,2", "--x", "inf"), None, EXIT_DOMAIN),
            (("beurling", "--generators", "1.5,x", "--x", "2"), None, EXIT_USAGE),
            (("density", "--set", "all", "--x", "0"), None, EXIT_DOMAIN),
            (("enumerate", "--set", "all", "--x", "-1"), None, EXIT_DOMAIN),
            (("enumerate", "--set", "all", "--x", "5", "--backend", "heap"), None, EXIT_USAGE),
            (("sweep", "--kind", "theorem1", "--trials", "0"), None, EXIT_USAGE),
            # positive eps too small to move 1 + eps off 1 in double precision
            (("blowup", "--t", "1", "--shift", "0", "--eps", "1e-17"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "1e-320"), None, EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "0.5,1e-17"), None, EXIT_DOMAIN),
            # a prime limit below 2 leaves no tail bound (ln 1 = 0)
            (("blowup", "--t", "1", "--shift", "0", "--eps", "0.5", "--prime-limit", "0"), None,
             EXIT_DOMAIN),
            (("blowup", "--t", "1", "--shift", "0", "--eps", "0.5", "--prime-limit", "1"), None,
             EXIT_DOMAIN),
            # argparse reads the value "--" as no value at all
            (("zorn", "--set=--", "--x", "5"), None, EXIT_USAGE),
            (("sum", "--set", "all", "--x=--"), None, EXIT_USAGE),
            (("gs-const", "--out=--"), None, EXIT_USAGE),
            (("gs-const", "--format=--"), None, EXIT_USAGE),
            # a log-fraction scale above 1e8 is refused
            (("sum", "--set", "logfrac:t=1e40,w=0.1,s=0", "--x", "10"), None, EXIT_USAGE),
            (("blowup", "--t", "1e9", "--shift", "0", "--eps", "0.5", "--prime-limit", "100"),
             None, EXIT_DOMAIN),
            # (1e9 + 7)(1e9 + 9): no factor below the trial-division limit of
            # 1e6, and too large to be prime for that reason alone
            (("shifted", "--m", str(_HARD_COMPOSITE), "--x", "10"), None, EXIT_RESOURCE),
            (("divisors", "--n", str(_HARD_COMPOSITE), "--x", "10"), None, EXIT_RESOURCE),
            (("sweep", "--kind", "mock"),
             b'[{"kind": "mock", "op": "divisors", "N": %d, "x": 10}]' % _HARD_COMPOSITE,
             EXIT_RESOURCE),
            # a strong pseudoprime to every base 2..37, with no factor below 1e6
            (("shifted", "--m", "318665857834031151167461", "--x", "10"), None, EXIT_RESOURCE),
        ],
    )
    def test_documented_code_without_traceback(self, capsys, tmp_path, argv, replay, code):
        if replay is not None:
            path = tmp_path / "replay.json"
            path.write_bytes(replay)
            argv = (*argv, "--replay", str(path))
        got, out, err = _run(capsys, *argv)
        assert got == code
        assert out == ""
        prefix = {EXIT_DOMAIN: "domain error:", EXIT_RESOURCE: "resource error:"}
        assert err.startswith(prefix.get(code, "error:"))
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("shifted", "--m", str(2**61 - 1), "--x", "10"),
            ("divisors", "--n", str(2**61 - 1), "--x", "10"),
        ],
    )
    def test_large_prime_operand_runs(self, capsys, argv):
        # 2**61 - 1 is prime: trial division leaves it whole, is_prime decides.
        got, out, err = _run(capsys, *argv)
        assert got == EXIT_OK
        assert err == ""
        assert str(2**61 - 1) in out


class TestHelp:
    def test_top_level_help(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "COMMAND" in out

    @pytest.mark.parametrize(
        "command,needle",
        [
            ("sum", "unit bound"),
            ("coprime", "coprime"),
            ("divisors", "phi(N)/N"),
            ("shifted", "mu(m*n)"),
            ("zorn", "counting identity"),
            ("euler", "limit of the partial sums"),
            ("weighted", "convexity"),
            ("converge", "Landau"),
            ("mertens", "Mertens"),
            ("mean-mobius", "Wirsing"),
            ("gran", "gamma"),
            ("zeta", "Re(s) > 1"),
            ("logres", "p^-sigma"),
            ("blowup", "blows up"),
            ("gs-const", "-0.4553"),
            ("semiprime", "diverges"),
            ("beurling", "Beurling"),
            ("density", "Density"),
            ("sweep", "theorem1"),
            ("enumerate", "members (n, mu(n))"),
        ],
    )
    def test_subcommand_help_names_its_result(self, capsys, command, needle):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0
        assert needle in out
