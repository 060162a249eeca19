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
as "numerator/denominator", JSON keys in fixed order).  With identical
arguments and seed the emitted bytes are identical run to run.

The semiprime and Beurling subcommands report bound violations as results,
not failures: those systems are the documented counterexamples, and no
theorem covers them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Any

from . import experiments, sweeps
from .errors import (
    DomainError,
    ResourceError,
    SpecParseError,
    UsageError,
    VerificationError,
)
from .primes import parse_spec
from .semigroup import EnumerationOptions, density, enumerate_terms
from .sums import (
    SumReport,
    WeightFunction,
    euler_product,
    euler_product_partial,
    format_rational,
    partial_sum,
    partial_sum_coprime,
    partial_sum_divisors,
    partial_sum_shifted,
    weighted_partial_sum,
    zorn_check,
)
from .zeta import blowup_scan, gs_constant, log_identity_residual, zeta_p

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFICATION = 3
EXIT_RESOURCE = 4

FORMATS = ("plain", "csv", "json")


def _fmt_float(value: float) -> str:
    return f"{value:.17g}"


def _json_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, Fraction):
        return json.dumps(format_rational(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _emit_json(payload: dict) -> str:
    return _json_value(payload) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if value is None:
        return ""
    return str(value)


def _emit_csv(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_plain(pairs: list[tuple[str, Any]]) -> str:
    width = max((len(k) for k, _ in pairs), default=0)
    lines = []
    for key, value in pairs:
        if isinstance(value, float):
            value = _fmt_float(value)
        elif isinstance(value, Fraction):
            value = format_rational(value)
        lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines) + "\n"


class Report:
    """Bundle of the three renderings of one result."""

    def __init__(self, pairs: list[tuple[str, Any]], header: list[str] | None = None,
                 rows: list[list[Any]] | None = None, payload: dict | None = None):
        self.pairs = pairs
        self.header = header if header is not None else [k for k, _ in pairs]
        self.rows = rows if rows is not None else [[v for _, v in pairs]]
        self.payload = payload if payload is not None else dict(pairs)

    def render(self, fmt: str) -> str:
        if fmt == "plain":
            return _emit_plain(self.pairs)
        if fmt == "csv":
            return _emit_csv(self.header, self.rows)
        if fmt == "json":
            return _emit_json(self.payload)
        raise UsageError(f"unknown format {fmt!r}")


def emit(report: Report, fmt: str, out: str) -> None:
    text = report.render(fmt)
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ResourceError(f"cannot write to {out}: {exc}") from exc


def _sum_report(report: SumReport) -> Report:
    pairs = [
        ("params", report.params),
        ("x", report.x),
        ("mode", report.mode),
        ("value_exact", report.value_exact),
        ("value_float", report.value_float),
        ("float_error_bound", report.float_error_bound),
        ("term_count", report.term_count),
        ("bound_ok", report.bound_ok),
    ]
    payload = dict(pairs)
    payload["value_exact"] = (
        format_rational(report.value_exact) if report.value_exact is not None else None
    )
    return Report(pairs, payload=payload)


def _experiment_report(experiment: str, params: dict, verdicts: dict,
                       pairs: list[tuple[str, Any]] | None = None,
                       header: list[str] | None = None,
                       rows: list[list[Any]] | None = None,
                       result: Any = None) -> Report:
    payload = {
        "experiment": experiment,
        "params": params,
        "verdicts": verdicts,
        "fixtures_version": experiments.load_fixtures()["version"],
        "result": result,
    }
    if pairs is None:
        pairs = [(k, v) for k, v in params.items()]
        pairs += [(f"verdict_{k}", v) for k, v in verdicts.items()]
    return Report(pairs, header=header, rows=rows, payload=payload)


def _check_theorem(report: SumReport) -> SumReport:
    if not report.bound_ok:
        raise VerificationError(
            f"unit bound falsified at {report.params}, x={report.x}",
            instance={"params": report.params, "x": report.x, "mode": report.mode},
        )
    return report


def _parse_x_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"x grid must be comma-separated integers, got {text!r}") from None
    if not grid:
        raise UsageError("x grid must be nonempty")
    return grid


def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"eps grid must be comma-separated reals, got {text!r}") from None


def _parse_weights(text: str) -> dict[int, Fraction]:
    weights: dict[int, Fraction] = {}
    if not text:
        return weights
    for token in text.split(","):
        key, sep, value = token.partition("=")
        if not sep:
            raise UsageError(f"weights must look like P=VALUE, got {token!r}")
        try:
            weights[int(key)] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad weight assignment {token!r}") from None
    return weights


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
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text, parents=[common])
        return p

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (csv/json are the stable contracts)")
    common.add_argument("--out", default="-", help="output path, or - for stdout")

    p = add("sum", "Partial sum of mu(n)/n over the semigroup <P> up to x; "
                   "checks the elementary unit bound |S_P(x)| <= 1.")
    p.add_argument("--set", required=True, help="prime set, e.g. all | finite:2,3 | "
                   "cofinite:5 | interval:10..100 | residue:1 mod 4 | logfrac:t=1.0,w=0.1,s=0.0")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("coprime", "Sum of mu(n)/n over n <= x coprime to P; the unit bound "
                       "holds exactly as for the semigroup form.")
    p.add_argument("--p", type=int, required=True, help="coprimality modulus P")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("divisors", "Sum of mu(n)/n over divisors n of N with n <= x; equals "
                        "phi(N)/N once x >= N, and stays within the unit bound.")
    p.add_argument("--n", type=int, required=True, help="the divisor source N")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("shifted", "Sum of mu(m*n)/n over n <= x; the unit bound holds for "
                       "every shift m.")
    p.add_argument("--m", type=int, required=True, help="the shift m")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("zorn", "Exact counting identity behind the unit-bound proof: "
                    "#{n <= x in <P'>} = sum of mu(d)*floor(x/d) over d in <P>.")
    p.add_argument("--set", required=True)
    p.add_argument("--x", type=int, required=True)

    p = add("euler", "Product of (1 - 1/p): exact over a finite set, truncated "
                     "(with --prime-limit) otherwise; the limit of the partial sums.")
    p.add_argument("--set", required=True)
    p.add_argument("--prime-limit", type=int, default=None)

    p = add("weighted", "Sum of mu(n)*a(n)/n for a multiplicative weight "
                        "a: N -> [0,1]; the unit bound persists by convexity.")
    p.add_argument("--weights", default="", help="comma-separated P=VALUE with VALUE "
                   "a fraction in [0,1], e.g. 2=1/3,5=1")
    p.add_argument("--default", type=int, choices=(0, 1), default=0,
                   help="weight of every unassigned prime")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("converge", "Partial sums against truncated products across an x "
                        "grid; their gap is o(1) (Landau-type convergence).")
    p.add_argument("--set", required=True)
    p.add_argument("--x-grid", required=True, help="comma-separated ascending x values")

    p = add("mertens", "Window of primes in (sqrt(x), x]: by Mertens' theorems "
                       "the sum tends to 1 - ln 2 while the product tends to 1/2, "
                       "so the convergence is not uniform in the prime set.")
    p.add_argument("--x", type=int, required=True)

    p = add("mean-mobius", "Wirsing-type mean (1/x) * sum of mu(n) over the "
                           "semigroup; tends to 0.")
    p.add_argument("--set", required=True)
    p.add_argument("--x", type=int, required=True)

    p = add("gran", "Refinement of the counting identity with the "
                    "(1 - gamma) * sum mu(n) correction term; residuals are "
                    "reported without a verdict (the error constant is unknown).")
    p.add_argument("--set", required=True)
    p.add_argument("--x-grid", required=True)

    p = add("zeta", "Truncated Euler product of the semigroup zeta function at "
                    "s with Re(s) > 1, with a rigorous log-scale tail bound.")
    p.add_argument("--set", required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--prime-limit", type=int, default=10**5)

    p = add("logres", "Residual of log zeta_P(sigma) minus the sum of p^-sigma "
                      "over members; lies in [0, sum of p^-2sigma].")
    p.add_argument("--set", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--prime-limit", type=int, default=10**5)

    p = add("blowup", "Scan |zeta_P(1 + eps + it)| over descending eps for the "
                      "log-fraction families: shift 0 blows up, shift 1/2 vanishes.")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--shift", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated descending eps values")
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--prime-limit", type=int, default=10**6)

    add("gs-const", "Sharp lower-bound constant for the partial sums, "
                    "(1 - 2 ln(1+sqrt(e)) + 4 I) ln 2 = -0.4553..., via "
                    "adaptive Simpson quadrature.")

    p = add("semiprime", "Sum of mu(n)/n over the semigroup generated by the "
                         "semiprimes: mu is 0 or 1 there, the sum diverges, and "
                         "the unit bound fails (first at x = 6).")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("beurling", "Partial sum over a system of real generators > 1 "
                        "(Beurling model); the unit bound fails at generators "
                        "1.1,1.2,1.3 with x = 1.3.")
    p.add_argument("--generators", required=True, help="comma-separated reals > 1")
    p.add_argument("--x", type=float, required=True)

    p = add("density", "Density #{n <= x in <P>} / x of the semigroup.")
    p.add_argument("--set", required=True)
    p.add_argument("--x", type=int, required=True)

    p = add("enumerate", "Stream the members (n, mu(n)) of <P> up to x.")
    p.add_argument("--set", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--backend", choices=("auto", "sieve", "heap"), default="auto")
    p.add_argument("--squarefree-only", action="store_true")

    p = add("sweep", "Randomized property sweeps: theorem1 (unit bound), mock "
                     "(restricted sums), zorn (counting identity), weights "
                     "(multiplicative weights); exit 3 with the falsifying "
                     "instance if any check fails.")
    p.add_argument("--kind", choices=sweeps.SWEEP_KINDS, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="64-bit seed; trials replay "
                   "identically across platforms (Mersenne Twister)")
    p.add_argument("--dump", default=None, help="write the generated instances to "
                   "this path for later replay")
    p.add_argument("--replay", default=None, help="re-check instances from this "
                   "JSON file instead of generating new ones")

    return parser


def _cmd_sum_family(args, fmt, out) -> int:
    if args.command == "sum":
        report = partial_sum(parse_spec(args.set), args.x, mode=args.mode)
    elif args.command == "coprime":
        report = partial_sum_coprime(args.p, args.x, mode=args.mode)
    elif args.command == "divisors":
        report = partial_sum_divisors(args.n, args.x, mode=args.mode)
    elif args.command == "shifted":
        report = partial_sum_shifted(args.m, args.x, mode=args.mode)
    else:
        report = weighted_partial_sum(
            WeightFunction(_parse_weights(args.weights), default_value=args.default),
            args.x,
            mode=args.mode,
        )
    _check_theorem(report)
    emit(_sum_report(report), fmt, out)
    return EXIT_OK


def _cmd_zorn(args, fmt, out) -> int:
    result = zorn_check(parse_spec(args.set), args.x)
    if not result.equal:
        raise VerificationError(
            f"counting identity falsified: lhs={result.lhs} rhs={result.rhs}",
            instance={"set": args.set, "x": args.x},
        )
    emit(Report([("lhs", result.lhs), ("rhs", result.rhs), ("equal", result.equal)]), fmt, out)
    return EXIT_OK


def _cmd_euler(args, fmt, out) -> int:
    spec = parse_spec(args.set)
    if args.prime_limit is None:
        value = euler_product(spec)
        emit(Report([("value_exact", value), ("value_float", float(value))]), fmt, out)
    else:
        value = euler_product_partial(spec, args.prime_limit)
        emit(Report([("prime_limit", args.prime_limit), ("value_float", value)]), fmt, out)
    return EXIT_OK


def _cmd_converge(args, fmt, out) -> int:
    spec = parse_spec(args.set)
    grid = _parse_x_grid(args.x_grid)
    rows = experiments.convergence_table(spec, grid)
    verdicts = {}
    threshold = experiments.regression_threshold(spec, "partial_sum_abs", grid[-1])
    if threshold is not None:
        verdicts["final_abs_sum_within_frozen_threshold"] = abs(rows[-1].sum_value) < threshold
    from .primes import AllPrimes

    if isinstance(spec, AllPrimes):
        sums_abs = [abs(r.sum_value) for r in rows]
        verdicts["abs_sum_non_increasing"] = all(
            a >= b for a, b in zip(sums_abs, sums_abs[1:])
        )
    emit(
        _experiment_report(
            "converge",
            {"set": args.set, "x_grid": grid},
            verdicts,
            pairs=[("x_grid", args.x_grid)] + [(f"gap@{r.x}", r.gap) for r in rows]
            + [(f"verdict_{k}", v) for k, v in verdicts.items()],
            header=["x", "sum_value", "product_value", "gap"],
            rows=[[r.x, r.sum_value, r.product_value, r.gap] for r in rows],
            result=[
                {"x": r.x, "sum_value": r.sum_value, "product_value": r.product_value,
                 "gap": r.gap}
                for r in rows
            ],
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_mertens(args, fmt, out) -> int:
    window = experiments.mertens_window(args.x)
    one_minus_ln2 = 1.0 - math.log(2.0)
    verdicts = {
        "sum_within_0.05_of_1_minus_ln2": abs(window.sum - one_minus_ln2) <= 0.05,
        "product_within_0.05_of_half": abs(window.product - 0.5) <= 0.05,
    }
    emit(
        _experiment_report(
            "mertens",
            {"x": args.x},
            verdicts,
            pairs=[("x", args.x), ("sum", window.sum), ("product", window.product)]
            + [(f"verdict_{k}", v) for k, v in verdicts.items()],
            header=["sum", "product"],
            rows=[[window.sum, window.product]],
            result={"sum": window.sum, "product": window.product},
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_mean_mobius(args, fmt, out) -> int:
    spec = parse_spec(args.set)
    value = experiments.mean_mobius(spec, args.x)
    verdicts = {}
    threshold = experiments.regression_threshold(spec, "mean_mobius_abs", args.x)
    if threshold is not None:
        verdicts["abs_mean_within_frozen_threshold"] = abs(value) < threshold
    emit(
        _experiment_report(
            "mean-mobius",
            {"set": args.set, "x": args.x},
            verdicts,
            pairs=[("set", args.set), ("x", args.x), ("value", value)]
            + [(f"verdict_{k}", v) for k, v in verdicts.items()],
            header=["value"],
            rows=[[value]],
            result={"value": value},
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_gran(args, fmt, out) -> int:
    rows = experiments.gran_residual(parse_spec(args.set), _parse_x_grid(args.x_grid))
    emit(
        _experiment_report(
            "gran",
            {"set": args.set, "x_grid": [r.x for r in rows]},
            {},
            pairs=[(f"residual_over_x@{r.x}", r.residual / r.x) for r in rows],
            header=["x", "lhs", "count_term", "mertens_term", "residual", "gamma"],
            rows=[[r.x, r.lhs, r.count_term, r.mertens_term, r.residual, r.gamma] for r in rows],
            result=[
                {"x": r.x, "lhs": r.lhs, "count_term": r.count_term,
                 "mertens_term": r.mertens_term, "residual": r.residual,
                 "residual_over_x": r.residual / r.x, "gamma": r.gamma}
                for r in rows
            ],
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_zeta(args, fmt, out) -> int:
    result = zeta_p(parse_spec(args.set), complex(args.re, args.im), args.prime_limit)
    emit(
        Report(
            [
                ("s_re", result.s.real),
                ("s_im", result.s.imag),
                ("prime_limit", result.prime_limit),
                ("re", result.value.real),
                ("im", result.value.imag),
                ("modulus", abs(result.value)),
                ("log_tail_bound", result.log_tail_bound),
            ]
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_logres(args, fmt, out) -> int:
    value = log_identity_residual(parse_spec(args.set), args.sigma, args.prime_limit)
    emit(
        Report(
            [("sigma", args.sigma), ("prime_limit", args.prime_limit), ("residual", value)]
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_blowup(args, fmt, out) -> int:
    rows = blowup_scan(args.t, args.shift, _parse_eps_list(args.eps),
                       prime_limit=args.prime_limit, width=args.width)
    emit(
        Report(
            [(f"modulus@eps={r.eps!r}", r.modulus) for r in rows],
            header=["eps", "re", "im", "modulus", "log_tail_bound"],
            rows=[[r.eps, r.value.real, r.value.imag, r.modulus, r.log_tail_bound]
                  for r in rows],
            payload={
                "t": args.t,
                "shift": args.shift,
                "width": args.width,
                "prime_limit": args.prime_limit,
                "rows": [
                    {"eps": r.eps, "re": r.value.real, "im": r.value.imag,
                     "modulus": r.modulus, "log_tail_bound": r.log_tail_bound}
                    for r in rows
                ],
            },
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_gs_const(args, fmt, out) -> int:
    emit(Report([("value", gs_constant())]), fmt, out)
    return EXIT_OK


def _cmd_semiprime(args, fmt, out) -> int:
    report = experiments.semiprime_sum(args.x, mode=args.mode)
    # Bound violations are the expected result here, not a failure.
    emit(_sum_report(report), fmt, out)
    return EXIT_OK


def _cmd_beurling(args, fmt, out) -> int:
    try:
        generators = tuple(float(tok) for tok in args.generators.split(",") if tok)
    except ValueError:
        raise UsageError(f"generators must be comma-separated reals, got {args.generators!r}")
    system = experiments.BeurlingSystem(generators)
    value = experiments.beurling_partial_sum(system, args.x)
    emit(
        _experiment_report(
            "beurling",
            {"generators": list(system.generators), "x": args.x},
            {"within_unit_bound": abs(value) <= 1.0},
            pairs=[("generators", args.generators), ("x", args.x), ("value", value),
                   ("within_unit_bound", abs(value) <= 1.0)],
            header=["value"],
            rows=[[value]],
            result={"value": value},
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_density(args, fmt, out) -> int:
    value = density(parse_spec(args.set), args.x)
    emit(Report([("set", args.set), ("x", args.x), ("density", value)]), fmt, out)
    return EXIT_OK


def _cmd_enumerate(args, fmt, out) -> int:
    options = EnumerationOptions(squarefree_only=args.squarefree_only, backend=args.backend)
    terms = list(enumerate_terms(parse_spec(args.set), args.x, options))
    emit(
        Report(
            [(f"mu@{t.n}", t.mu) for t in terms],
            header=["n", "mu"],
            rows=[[t.n, t.mu] for t in terms],
            payload={"set": args.set, "x": args.x,
                     "terms": [{"n": t.n, "mu": t.mu} for t in terms]},
        ),
        fmt,
        out,
    )
    return EXIT_OK


def _cmd_sweep(args, fmt, out) -> int:
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
        try:
            with open(args.dump, "w", encoding="utf-8") as handle:
                json.dump(result.instances, handle, indent=1)
                handle.write("\n")
        except OSError as exc:
            raise ResourceError(f"cannot write to {args.dump}: {exc}") from exc
    pairs = [
        ("kind", result.kind),
        ("trials", result.trials),
        ("seed", result.seed),
        ("passed", result.passed),
        ("failed", len(result.failures)),
    ]
    payload = dict(pairs)
    payload["failures"] = result.failures
    emit(Report(pairs, payload=payload), fmt, out)
    if result.failures:
        raise VerificationError(
            f"{len(result.failures)} of {result.trials} sweep trials falsified a theorem",
            instance={"failures": result.failures},
        )
    return EXIT_OK


_HANDLERS = {
    "sum": _cmd_sum_family,
    "coprime": _cmd_sum_family,
    "divisors": _cmd_sum_family,
    "shifted": _cmd_sum_family,
    "weighted": _cmd_sum_family,
    "zorn": _cmd_zorn,
    "euler": _cmd_euler,
    "converge": _cmd_converge,
    "mertens": _cmd_mertens,
    "mean-mobius": _cmd_mean_mobius,
    "gran": _cmd_gran,
    "zeta": _cmd_zeta,
    "logres": _cmd_logres,
    "blowup": _cmd_blowup,
    "gs-const": _cmd_gs_const,
    "semiprime": _cmd_semiprime,
    "beurling": _cmd_beurling,
    "density": _cmd_density,
    "enumerate": _cmd_enumerate,
    "sweep": _cmd_sweep,
}


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code (never raises)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return _HANDLERS[args.command](args, args.format, args.out)
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
