"""Command-line surface: every operation as a subcommand with
machine-readable output.

Exit codes:

* 0 success
* 1 usage or parse error
* 2 domain error (an argument outside an operation's mathematical domain)
* 3 verification failure -- a checked inequality or identity came back
    false.  The checks are theorems, so this code is reserved for
    implementation bugs and should never occur.
* 4 resource error (a request beyond the configured ceilings)

Output formats: ``plain`` targets humans; ``csv`` and ``json`` are the
stable machine contracts (floats with 17 significant digits, exact rationals
as "numerator/denominator", JSON keys in fixed order, and a CSV cell with a
comma, a double quote, CR or LF quoted, its quotes doubled, per RFC 4180).
Each format writes a value by one rule per type, CSV's with a few overridden,
and refuses any other type; CSV rows and JSON tables share one row writer.
With identical arguments and seed the emitted bytes are identical run to run.

The semiprime and Beurling subcommands report bound violations as results,
not failures: those systems are the documented counterexamples, and no
theorem covers them.

Each subcommand is one entry of ``_COMMANDS``: its handler, help text and
arguments.  Handlers return a ``Report`` of three views (plain ``pairs``, a
JSON ``payload`` and a CSV table of ``Rows``), which ``run`` writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from itertools import chain, groupby, islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import experiments, sweeps
from .errors import DomainError, ResourceError, SpecParseError, UsageError, VerificationError
from .primes import AllPrimes, parse_spec
from .semigroup import EnumerationOptions, density, enumerate_terms
from .sums import (WeightFunction, euler_product, euler_product_partial, format_rational,
                   partial_sum, partial_sum_coprime, partial_sum_divisors, partial_sum_shifted,
                   weighted_partial_sum, zorn_check)
from .zeta import (DEFAULT_PATHOLOGICAL_WIDTH, DEFAULT_PRIME_LIMIT, blowup_scan, gs_constant,
                   log_identity_residual, zeta_p)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFICATION = 3
EXIT_RESOURCE = 4

FORMATS = ("plain", "csv", "json")


# The text of a value by its exact type, so a bool is not taken for an int and
# an unlisted type is refused.  JSON and plain text override CSV's rules.
_CSV_QUOTED = frozenset(',"\r\n')
_CSV: dict[type, Callable[[Any], str]] = {
    bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "",
    int: str, float: "{:.17g}".format, Fraction: format_rational,
    str: lambda s: s if _CSV_QUOTED.isdisjoint(s) else '"' + s.replace('"', '""') + '"',
}
_JSON = {**_CSV, type(None): lambda _: "null", str: json.dumps,
         Fraction: lambda q: f'"{format_rational(q)}"'}
_PLAIN = {**_CSV, bool: str, type(None): str, str: str}


def _refused(value: Any) -> str:
    raise TypeError(f"cannot serialise {type(value).__name__}")


class Rows(NamedTuple):
    """A table: CSV writes ``rows``, a list or an iterator of tuples, under
    the header ``columns``; JSON writes an array of objects with those keys."""

    columns: tuple[str, ...]
    rows: Iterable[tuple]


def _one_row(items: Iterable[tuple[str, Any]]) -> Rows:
    """(key, value) items as a one-row table, the keys its columns."""
    columns, row = zip(*items)
    return Rows(columns, [row])


@dataclass
class Report:
    """One result in the three formats: plain text lists ``pairs``, JSON
    writes ``payload`` (by default the pairs as one object) and CSV writes
    ``table`` (by default the pairs as one row).  ``pairs`` and the rows of
    a ``Rows`` may be iterators, written as they are drawn; iterated pairs
    come with their keys already padded.  Values are bool, None, int, float,
    str or Fraction (JSON nests dicts, lists and tables too); any other type
    raises TypeError.  ``failure``, if set, is raised once it is written."""

    pairs: Iterable[tuple[str, Any]]
    payload: dict | None = None
    table: Rows | None = None
    failure: VerificationError | None = None

    def render(self, fmt: str) -> Iterator[str]:
        """The text in pieces, drawn as they are written."""
        if fmt == "json":
            payload = dict(self.pairs) if self.payload is None else self.payload
            return chain(_json(payload), ("\n",))
        if fmt == "csv":
            columns, rows = self.table or _one_row(self.pairs)
            template = ",".join(["%s"] * len(columns))
            lines = chain([",".join(columns)], _lines(_CSV, template, len(columns), rows))
        else:
            pairs = self.pairs
            width = 0 if isinstance(pairs, Iterator) else max((len(k) for k, _ in pairs), default=0)
            rule = _PLAIN.get
            lines = (f"{k.ljust(width)}  {rule(type(v), _refused)(v)}" for k, v in pairs)
        return chain(_joined("\n", lines), ("\n",))


def _joined(sep: str, pieces: Iterable[str]) -> Iterator[str]:
    """``sep.join(pieces)`` in pieces."""
    it = iter(pieces)
    return chain(islice(it, 1), map(sep.__add__, it))


def _lines(rule: dict, template: str, width: int, rows: Iterable[tuple]) -> Iterator[str]:
    """Each row of ``width`` cells written through ``template``, its cells
    through ``rule`` a run of one type at a time."""
    runs = groupby(chain.from_iterable(rows), type)
    texts = chain.from_iterable(map(rule.get(kind, _refused), run) for kind, run in runs)
    return map(template.__mod__, zip(*[texts] * width))


def _json(value: Any) -> Iterator[str]:
    """The JSON text of ``value`` in pieces.  A ``Rows`` is an array of
    objects, each key encoded once; its rows and an object's values stream."""
    if isinstance(value, Rows):
        # A % in a key is escaped, so that only the cells fill the template.
        keys = (json.dumps(c).replace("%", "%%") + ":%s" for c in value.columns)
        template = "{" + ",".join(keys) + "}"
        objects = _lines(_JSON, template, len(value.columns), value.rows)
        yield from chain(("[",), _joined(",", objects), ("]",))
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{',' if i else ''}{json.dumps(key)}:"
            yield from _json(item)
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield "[" + ",".join("".join(_json(item)) for item in value) + "]"
    else:
        yield _JSON.get(type(value), _refused)(value)


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write an output file; an OSError becomes a ResourceError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ResourceError(f"cannot write to {path}: {exc}") from exc


def emit(report: Report, fmt: str, out: str) -> None:
    pieces = report.render(fmt)
    # One write per 1024 pieces, so only the chunk being written is held.
    chunks = map("".join, iter(lambda: list(islice(pieces, 1024)), []))
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        _write(out, chunks)


def _fields_report(result: Any) -> Report:
    """A result dataclass as one record, its fields in declared order."""
    return Report([(f.name, getattr(result, f.name)) for f in fields(result)])


def _field_rows(cls: type, rows: list) -> Rows:
    """Dataclass rows as a table, their fields in declared order."""
    return Rows(tuple(f.name for f in fields(cls)), [astuple(r) for r in rows])


def _experiment_report(experiment: str, params: dict, verdicts: dict,
                       pairs: list[tuple[str, Any]], result: dict | Rows,
                       table: Rows | None = None, verdict_prefix: str = "verdict_") -> Report:
    """The JSON envelope of an experiment around ``result``; CSV writes
    ``table``, by default ``result`` (an object as one row), and plain text
    ends with the verdicts."""
    payload = {
        "experiment": experiment,
        "params": params,
        "verdicts": verdicts,
        "fixtures_version": experiments.load_fixtures()["version"],
        "result": result,
    }
    pairs = pairs + [(verdict_prefix + k, v) for k, v in verdicts.items()]
    if table is None:
        table = result if isinstance(result, Rows) else _one_row(result.items())
    return Report(pairs, payload, table)


def _parse_x_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"x grid must be comma-separated integers, got {text!r}") from None
    if not grid:
        raise UsageError("x grid must be nonempty")
    return grid


def _parse_reals(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated reals, got {text!r}") from None


def _parse_weights(text: str) -> dict[int, Fraction]:
    weights: dict[int, Fraction] = {}
    if not text:
        return weights
    for token in text.split(","):
        key, sep, value = token.partition("=")
        if not sep:
            raise UsageError(f"weights must look like P=VALUE, got {token!r}")
        try:
            prime, weight = int(key), Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad weight assignment {token!r}") from None
        if weights.setdefault(prime, weight) is not weight:
            raise UsageError(f"weight for {prime} given twice")
    return weights


def _cmd_sum_family(args) -> Report:
    if args.command == "sum":
        report = partial_sum(parse_spec(args.set), args.x, mode=args.mode)
    elif args.command == "coprime":
        report = partial_sum_coprime(args.p, args.x, mode=args.mode)
    elif args.command == "divisors":
        report = partial_sum_divisors(args.n, args.x, mode=args.mode)
    elif args.command == "shifted":
        report = partial_sum_shifted(args.m, args.x, mode=args.mode)
    else:
        weight = WeightFunction(_parse_weights(args.weights), default_value=args.default)
        report = weighted_partial_sum(weight, args.x, mode=args.mode)
    if not report.bound_ok:
        raise VerificationError(
            f"unit bound falsified at {report.params}, x={report.x}",
            instance={"params": report.params, "x": report.x, "mode": report.mode},
        )
    return _fields_report(report)


def _cmd_zorn(args) -> Report:
    result = zorn_check(parse_spec(args.set), args.x)
    if not result.equal:
        raise VerificationError(
            f"counting identity falsified: lhs={result.lhs} rhs={result.rhs}",
            instance={"set": args.set, "x": args.x},
        )
    return _fields_report(result)


def _cmd_euler(args) -> Report:
    spec = parse_spec(args.set)
    if args.prime_limit is None:
        value = euler_product(spec)
        return Report([("value_exact", value), ("value_float", float(value))])
    value = euler_product_partial(spec, args.prime_limit)
    return Report([("prime_limit", args.prime_limit), ("value_float", value)])


def _cmd_converge(args) -> Report:
    spec = parse_spec(args.set)
    grid = _parse_x_grid(args.x_grid)
    rows = experiments.convergence_table(spec, grid)
    verdicts = {}
    threshold = experiments.regression_threshold(spec, "partial_sum_abs", grid[-1])
    if threshold is not None:
        verdicts["final_abs_sum_within_frozen_threshold"] = abs(rows[-1].sum_value) < threshold
    if isinstance(spec, AllPrimes):
        sums_abs = [abs(r.sum_value) for r in rows]
        verdicts["abs_sum_non_increasing"] = all(a >= b for a, b in zip(sums_abs, sums_abs[1:]))
    return _experiment_report(
        "converge",
        {"set": args.set, "x_grid": grid},
        verdicts,
        [("x_grid", args.x_grid)] + [(f"gap@{r.x}", r.gap) for r in rows],
        _field_rows(experiments.ConvergenceRow, rows),
    )


def _cmd_mertens(args) -> Report:
    window = asdict(experiments.mertens_window(args.x))
    one_minus_ln2 = 1.0 - math.log(2.0)
    verdicts = {
        "sum_within_0.05_of_1_minus_ln2": abs(window["sum"] - one_minus_ln2) <= 0.05,
        "product_within_0.05_of_half": abs(window["product"] - 0.5) <= 0.05,
    }
    return _experiment_report(
        "mertens", {"x": args.x}, verdicts, [("x", args.x), *window.items()], window
    )


def _cmd_mean_mobius(args) -> Report:
    spec = parse_spec(args.set)
    value = experiments.mean_mobius(spec, args.x)
    verdicts = {}
    threshold = experiments.regression_threshold(spec, "mean_mobius_abs", args.x)
    if threshold is not None:
        verdicts["abs_mean_within_frozen_threshold"] = abs(value) < threshold
    return _experiment_report(
        "mean-mobius",
        {"set": args.set, "x": args.x},
        verdicts,
        [("set", args.set), ("x", args.x), ("value", value)],
        {"value": value},
    )


def _cmd_gran(args) -> Report:
    rows = experiments.gran_residual(parse_spec(args.set), _parse_x_grid(args.x_grid))
    # JSON adds residual / x to each row; CSV keeps the row's own fields.
    columns = ("x", "lhs", "count_term", "mertens_term", "residual", "residual_over_x", "gamma")
    return _experiment_report(
        "gran",
        {"set": args.set, "x_grid": [r.x for r in rows]},
        {},
        [(f"residual_over_x@{r.x}", r.residual / r.x) for r in rows],
        Rows(columns, [(r.x, r.lhs, r.count_term, r.mertens_term, r.residual, r.residual / r.x,
                        r.gamma) for r in rows]),
        _field_rows(experiments.GranResidualRow, rows),
    )


def _cmd_zeta(args) -> Report:
    result = zeta_p(parse_spec(args.set), complex(args.re, args.im), args.prime_limit)
    return Report([
        ("s_re", result.s.real),
        ("s_im", result.s.imag),
        ("prime_limit", result.prime_limit),
        ("re", result.value.real),
        ("im", result.value.imag),
        ("modulus", abs(result.value)),
        ("log_tail_bound", result.log_tail_bound),
    ])


def _cmd_logres(args) -> Report:
    value = log_identity_residual(parse_spec(args.set), args.sigma, args.prime_limit)
    return Report([("sigma", args.sigma), ("prime_limit", args.prime_limit), ("residual", value)])


def _cmd_blowup(args) -> Report:
    rows = blowup_scan(args.t, args.shift, _parse_reals(args.eps, "eps grid"),
                       prime_limit=args.prime_limit, width=args.width)
    table = Rows(("eps", "re", "im", "modulus", "log_tail_bound"),
                 [(r.eps, r.value.real, r.value.imag, r.modulus, r.log_tail_bound) for r in rows])
    payload = {"t": args.t, "shift": args.shift, "width": args.width,
               "prime_limit": args.prime_limit, "rows": table}
    return Report([(f"modulus@eps={r.eps!r}", r.modulus) for r in rows], payload, table)


def _cmd_gs_const(args) -> Report:
    return Report([("value", gs_constant())])


def _cmd_semiprime(args) -> Report:
    # Bound violations are the expected result here, not a failure.
    return _fields_report(experiments.semiprime_sum(args.x, mode=args.mode))


def _cmd_beurling(args) -> Report:
    system = experiments.BeurlingSystem(_parse_reals(args.generators, "generators"))
    value = experiments.beurling_partial_sum(system, args.x)
    return _experiment_report(
        "beurling",
        {"generators": list(system.generators), "x": args.x},
        {"within_unit_bound": abs(value) <= 1.0},
        [("generators", args.generators), ("x", args.x), ("value", value)],
        {"value": value},
        verdict_prefix="",
    )


def _cmd_density(args) -> Report:
    value = density(parse_spec(args.set), args.x)
    return Report([("set", args.set), ("x", args.x), ("density", value)])


def _cmd_enumerate(args) -> Report:
    spec = parse_spec(args.set)
    options = EnumerationOptions(squarefree_only=args.squarefree_only, backend=args.backend)
    # Every check has run by here.  The three views share one stream, since
    # only the rendered format draws on it; plain text pads each key to mu@x.
    terms = enumerate_terms(spec, args.x, options)
    width = len(f"mu@{args.x}")
    table = Rows(("n", "mu"), terms)
    return Report(((f"mu@{n}".ljust(width), mu) for n, mu in terms),
                  {"set": args.set, "x": args.x, "terms": table}, table)


def _cmd_sweep(args) -> Report:
    if args.replay is not None:
        try:
            with open(args.replay, encoding="utf-8") as handle:
                instances = json.load(handle)
        except OSError as exc:
            raise ResourceError(f"cannot read replay file: {exc}") from exc
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise UsageError(f"replay file {args.replay} is not valid JSON: {exc}") from None
        result = sweeps.replay_instances(instances)
    else:
        result = sweeps.run_sweep(args.kind, args.trials, args.seed)
    if args.dump is not None:
        _write(args.dump, (json.dumps(result.instances, indent=1), "\n"))
    pairs = [
        ("kind", result.kind),
        ("trials", result.trials),
        ("seed", result.seed),
        ("passed", result.passed),
        ("failed", len(result.failures)),
    ]
    failure = None
    if result.failures:
        failure = VerificationError(
            f"{len(result.failures)} of {result.trials} sweep trials falsified a theorem",
            instance={"failures": result.failures},
        )
    return Report(pairs, {**dict(pairs), "failures": result.failures}, failure=failure)


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], Report]
    help: str
    args: tuple[tuple[str, dict], ...] = ()


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


def _with_help(arg: tuple[str, dict], text: str) -> tuple[str, dict]:
    return arg[0], {**arg[1], "help": text}


_SET = _arg("--set", required=True)
_X = _arg("--x", type=int, required=True)
_MODE = _arg("--mode", choices=("exact", "float"), default="exact")
_X_GRID = _arg("--x-grid", required=True)


def _prime_limit(default: int | None) -> tuple[str, dict]:
    return _arg("--prime-limit", type=int, default=default)


_COMMANDS = {
    "sum": _Command(_cmd_sum_family, "Partial sum of mu(n)/n over the semigroup <P> up to x; "
                    "checks the elementary unit bound |S_P(x)| <= 1.", (
        _with_help(_SET, "prime set, e.g. all | finite:2,3 | cofinite:5 | "
                   "interval:10..100 | residue:1 mod 4 | logfrac:t=1.0,w=0.1,s=0.0"),
        _X, _MODE)),
    "coprime": _Command(_cmd_sum_family, "Sum of mu(n)/n over n <= x coprime to P; the unit "
                        "bound holds exactly as for the semigroup form.", (
        _arg("--p", type=int, required=True, help="coprimality modulus P"), _X, _MODE)),
    "divisors": _Command(_cmd_sum_family, "Sum of mu(n)/n over divisors n of N with n <= x; "
                         "equals phi(N)/N once x >= N, and stays within the unit bound.", (
        _arg("--n", type=int, required=True, help="the divisor source N"), _X, _MODE)),
    "shifted": _Command(_cmd_sum_family, "Sum of mu(m*n)/n over n <= x; the unit bound holds "
                        "for every shift m.", (
        _arg("--m", type=int, required=True, help="the shift m"), _X, _MODE)),
    "zorn": _Command(_cmd_zorn, "Exact counting identity behind the unit-bound proof: "
                     "#{n <= x in <P'>} = sum of mu(d)*floor(x/d) over d in <P>.", (_SET, _X)),
    "euler": _Command(_cmd_euler, "Product of (1 - 1/p): exact over a finite set, truncated "
                      "(with --prime-limit) otherwise; the limit of the partial sums.", (
        _SET, _prime_limit(None))),
    "weighted": _Command(_cmd_sum_family, "Sum of mu(n)*a(n)/n for a multiplicative weight "
                         "a: N -> [0,1]; the unit bound persists by convexity.", (
        _arg("--weights", default="", help="comma-separated P=VALUE with VALUE "
             "a fraction in [0,1], e.g. 2=1/3,5=1"),
        _arg("--default", type=int, choices=(0, 1), default=0,
             help="weight of every unassigned prime"),
        _X, _MODE)),
    "converge": _Command(_cmd_converge, "Partial sums against truncated products across an x "
                         "grid; their gap is o(1) (Landau-type convergence).", (
        _SET, _with_help(_X_GRID, "comma-separated ascending x values"))),
    "mertens": _Command(_cmd_mertens, "Window of primes in (sqrt(x), x]: by Mertens' theorems "
                        "the sum tends to 1 - ln 2 while the product tends to 1/2, "
                        "so the convergence is not uniform in the prime set.", (_X,)),
    "mean-mobius": _Command(_cmd_mean_mobius, "Wirsing-type mean (1/x) * sum of mu(n) over the "
                            "semigroup; tends to 0.", (_SET, _X)),
    "gran": _Command(_cmd_gran, "Refinement of the counting identity with the "
                     "(1 - gamma) * sum mu(n) correction term; residuals are "
                     "reported without a verdict (the error constant is unknown).", (
        _SET, _X_GRID)),
    "zeta": _Command(_cmd_zeta, "Truncated Euler product of the semigroup zeta function at "
                     "s with Re(s) > 1, with a rigorous log-scale tail bound.", (
        _SET, _arg("--re", type=float, required=True), _arg("--im", type=float, default=0.0),
        _prime_limit(10**5))),
    "logres": _Command(_cmd_logres, "Residual of log zeta_P(sigma) minus the sum of p^-sigma "
                       "over members; lies in [0, sum of p^-2sigma].", (
        _SET, _arg("--sigma", type=float, required=True), _prime_limit(10**5))),
    "blowup": _Command(_cmd_blowup, "Scan |zeta_P(1 + eps + it)| over descending eps for the "
                       "log-fraction families: shift 0 blows up, shift 1/2 vanishes.", (
        _arg("--t", type=float, required=True),
        _arg("--shift", type=float, required=True),
        _arg("--eps", required=True, help="comma-separated descending eps values"),
        _arg("--width", type=float, default=DEFAULT_PATHOLOGICAL_WIDTH),
        _prime_limit(DEFAULT_PRIME_LIMIT))),
    "gs-const": _Command(_cmd_gs_const, "Sharp lower-bound constant for the partial sums, "
                         "(1 - 2 ln(1+sqrt(e)) + 4 I) ln 2 = -0.4553..., via "
                         "adaptive Simpson quadrature."),
    "semiprime": _Command(_cmd_semiprime, "Sum of mu(n)/n over the semigroup generated by the "
                          "semiprimes: mu is 0 or 1 there, the sum diverges, and "
                          "the unit bound fails (first at x = 6).", (_X, _MODE)),
    "beurling": _Command(_cmd_beurling, "Partial sum over a system of real generators > 1 "
                         "(Beurling model); the unit bound fails at generators "
                         "1.1,1.2,1.3 with x = 1.3.", (
        _arg("--generators", required=True, help="comma-separated reals > 1"),
        _arg("--x", type=float, required=True))),
    "density": _Command(_cmd_density, "Density #{n <= x in <P>} / x of the semigroup.", (
        _SET, _X)),
    "enumerate": _Command(_cmd_enumerate, "Stream the members (n, mu(n)) of <P> up to x.", (
        _SET, _X,
        _arg("--backend", choices=("auto", "sieve", "heap"), default="auto"),
        _arg("--squarefree-only", action="store_true"))),
    "sweep": _Command(_cmd_sweep, "Randomized property sweeps: theorem1 (unit bound), mock "
                      "(restricted sums), zorn (counting identity), weights "
                      "(multiplicative weights); exit 3 with the falsifying "
                      "instance if any check fails.", (
        _arg("--kind", choices=sweeps.SWEEP_KINDS, required=True),
        _arg("--trials", type=int, default=100),
        _arg("--seed", type=int, default=0, help="64-bit seed; trials replay "
             "identically across platforms (Mersenne Twister)"),
        _arg("--dump", default=None, help="write the generated instances to "
             "this path for later replay"),
        _arg("--replay", default=None, help="re-check instances from this "
             "JSON file instead of generating new ones"))),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Cached: building the 20 subparsers costs more than many whole commands,
# and parse_args leaves the parser unchanged, so one serves every run().
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="musum",
        description=(
            "Partial sums of the Mobius function over multiplicative "
            "semigroups generated by arbitrary prime sets: unit-bound "
            "checks, Landau-type convergence to Euler products, zeta "
            "truncations, and the documented counterexamples."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (csv/json are the stable contracts)")
    common.add_argument("--out", default="-", help="output path, or - for stdout")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help, parents=[common])
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code (never raises).

    The one place a report is written: a handler's ``failure`` (a sweep
    that falsified a theorem) exits 3 only after its report is out."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse turns the value "--" ("--set=--") into an empty list.
        if [] in vars(args).values():
            raise UsageError("an argument's value cannot be --")
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        report = _COMMANDS[args.command].handler(args)
        emit(report, args.format, args.out)
        if report.failure is not None:
            raise report.failure
        return EXIT_OK
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (SpecParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"VERIFICATION FAILURE: {exc}", file=sys.stderr)
        if exc.instance:
            print(json.dumps(exc.instance, indent=1), file=sys.stderr)
        return EXIT_VERIFICATION
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
