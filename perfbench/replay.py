"""Per-layer split of one op, timed from outside the program.

An op enters the program through ``cli.run`` (or ``sweeps.check_instance``).
``plan`` turns it into a tree of public calls: each node is a call the
parent makes internally, with the same inputs, so replaying the nodes one
after another and subtracting the children's times from the parent's gives
the parent's self time.  Such self times are derived, not observed, and are
labelled so.  Enumeration nodes follow the route the library takes:
``partial_sum`` on a finite set walks the heap, every other set the sieve,
and ``zorn_check`` and ``gran_residual`` also count the complementary
semigroup with ``count_members_outside``.

Each node's ``run`` returns the counts the call produced (terms enumerated,
primes kept, bits of the exact denominator, bytes printed); they depend only
on the inputs, so they must repeat exactly.

The layer of a node is the module prefix of its name.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from musum import cli, experiments, primes, semigroup, sums, zeta
from musum.primes import AllPrimes, CofinitePrimes, FinitePrimes, IntervalPrimes, parse_spec


@dataclass
class Call:
    """One public call.  ``run`` performs it and returns its counts; the
    root of a plan, the entry point, has no ``run`` because the traced pass
    has already timed it.  ``size`` is its x or prime limit, ``route`` the
    enumeration route ("sieve" or "heap"), and ``tag`` marks a grid
    experiment or names a sweep instance's kind.  A ``probe`` child is timed
    but is not a sub-call of its parent, so it takes no part in the parent's
    self time."""

    name: str
    run: Callable[[], dict] | None
    children: list["Call"] = field(default_factory=list)
    size: int = 0
    route: str = ""
    tag: str = ""
    probe: bool = False

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.run`` with stdout captured in-process (stderr is discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _returns_nothing(fn, *args) -> Callable[[], dict]:
    def run():
        fn(*args)
        return {}

    return run


def _enumerate(spec, x: int, squarefree: bool, backend: str) -> Call:
    # "auto" resolves to the sieve for every set that is not finite, and the
    # workloads pass "auto" only with such sets.
    route = "sieve" if backend == "auto" else backend
    options = semigroup.EnumerationOptions(squarefree_only=squarefree, backend=backend)

    def run():
        terms = 0
        for _ in semigroup.enumerate_terms(spec, x, options):
            terms += 1
        return {"terms": terms, "scanned": x if route == "sieve" else 0}

    return Call("semigroup.enumerate_terms", run, size=x, route=route)


def _squarefree(spec, x: int) -> Call:
    """The squarefree stream the sums take: the heap for finite sets."""
    return _enumerate(spec, x, True, "heap" if isinstance(spec, FinitePrimes) else "sieve")


def _outside(spec, x: int) -> Call:
    def run():
        return {"terms": semigroup.count_members_outside(spec, x), "scanned": x}

    return Call("semigroup.count_members_outside", run, size=x, route="sieve")


def _report_counts(report) -> dict:
    counts = {"terms": report.term_count}
    if report.value_exact is not None:
        counts["den_bits"] = report.value_exact.denominator.bit_length()
    return counts


def _sum_call(name: str, fn, args: tuple, children: list[Call]) -> Call:
    """A sums call returning a SumReport; its x is always args[1]."""
    return Call(f"sums.{name}", lambda: _report_counts(fn(*args)), children, size=args[1])


def _partial_sum(spec, x: int, mode: str) -> Call:
    return _sum_call("partial_sum", sums.partial_sum, (spec, x, mode), [_squarefree(spec, x)])


def _all_squarefree(x: int) -> list[Call]:
    return [_enumerate(AllPrimes(), x, True, "sieve")]


def _coprime(P: int, x: int, mode: str) -> Call:
    return _sum_call("partial_sum_coprime", sums.partial_sum_coprime, (P, x, mode),
                     _all_squarefree(x))


def _shifted(m: int, x: int, mode: str) -> Call:
    children = _all_squarefree(x) if semigroup.mobius(m) else []
    return _sum_call("partial_sum_shifted", sums.partial_sum_shifted, (m, x, mode), children)


def _weighted(weights: dict[int, Fraction], default: int, x: int, mode: str) -> Call:
    def run():
        a = sums.WeightFunction(weights, default_value=default)
        return _report_counts(sums.weighted_partial_sum(a, x, mode))

    # With default 0 the sum walks the assigned support, not a semigroup.
    children = _all_squarefree(x) if default == 1 else []
    return Call("sums.weighted_partial_sum", run, children, size=x)


def _zorn(spec, x: int) -> Call:
    return Call("sums.zorn_check", _returns_nothing(sums.zorn_check, spec, x),
                [_outside(spec, x), _squarefree(spec, x)], size=x)


def _primes_in(spec, limit: int) -> Call:
    def sieve():
        return {"sieved": len(primes.sieve_primes(limit).primes)}

    return Call("primes.primes_in", lambda: {"kept": len(primes.primes_in(spec, limit))},
                [Call("primes.sieve_primes", sieve)])


def _euler_partial(spec, limit: int) -> Call:
    return Call("sums.euler_product_partial",
                _returns_nothing(sums.euler_product_partial, spec, limit),
                [_primes_in(spec, limit)], size=limit)


def _zeta_call(name: str, run: Callable[[], object], spec, limit: int, points: int) -> Call:
    """A zeta-layer call over the members up to ``limit``, evaluated at
    ``points`` values of s; members x points is its factor count."""

    def counted():
        run()
        return {"points": points}

    return Call(f"zeta.{name}", counted, [_primes_in(spec, limit)])


def _grid_experiment(name: str, fn, spec, grid: list[int], per_point) -> Call:
    children = [child for x in grid for child in per_point(x)]
    probe = Call(f"experiments.{name}", _returns_nothing(fn, spec, grid[-1:]), probe=True)
    return Call(f"experiments.{name}", _returns_nothing(fn, spec, grid), children + [probe],
                tag="grid")


def _parse_grid(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_weights(text: str) -> dict[int, Fraction]:
    return {int(p): Fraction(v) for p, _, v in (tok.partition("=") for tok in text.split(","))}


def _library_call(cmd: str, a: dict) -> Call:
    """The library call ``cli.run`` makes for one subcommand, with the
    values parsed as the CLI parses them."""
    spec = parse_spec(a["set"]) if "set" in a else None
    if cmd == "sum":
        return _partial_sum(spec, int(a["x"]), a["mode"])
    if cmd == "coprime":
        return _coprime(int(a["p"]), int(a["x"]), a["mode"])
    if cmd == "shifted":
        return _shifted(int(a["m"]), int(a["x"]), a["mode"])
    if cmd == "weighted":
        return _weighted(_parse_weights(a["weights"]), int(a["default"]), int(a["x"]), a["mode"])
    if cmd == "zorn":
        return _zorn(spec, int(a["x"]))
    if cmd == "density":
        x = int(a["x"])
        return Call("semigroup.density", _returns_nothing(semigroup.density, spec, x),
                    [_enumerate(spec, x, False, "auto")], size=x)
    if cmd == "mean-mobius":
        x = int(a["x"])
        return Call("experiments.mean_mobius", _returns_nothing(experiments.mean_mobius, spec, x),
                    [_enumerate(spec, x, False, "auto")])
    if cmd == "converge":
        return _grid_experiment(
            "convergence_table", experiments.convergence_table, spec, _parse_grid(a["x-grid"]),
            lambda x: [_partial_sum(spec, x, "float"), _euler_partial(spec, x)])
    if cmd == "gran":
        return _grid_experiment(
            "gran_residual", experiments.gran_residual, spec, _parse_grid(a["x-grid"]),
            lambda x: [_partial_sum(spec, x, "float"), _outside(spec, x),
                       _enumerate(spec, x, False, "auto")])
    if cmd == "mertens":
        x = int(a["x"])
        window = IntervalPrimes(math.sqrt(x), float(x))
        return Call("experiments.mertens_window", _returns_nothing(experiments.mertens_window, x),
                    [_partial_sum(window, x, "float"), _euler_partial(window, x)])
    if cmd == "zeta":
        limit = int(a["prime-limit"])
        s = complex(float(a["re"]), float(a["im"]))
        return _zeta_call("zeta_p", lambda: zeta.zeta_p(spec, s, limit), spec, limit, 1)
    if cmd == "logres":
        limit = int(a["prime-limit"])
        sigma = float(a["sigma"])
        return _zeta_call("log_identity_residual",
                          lambda: zeta.log_identity_residual(spec, sigma, limit), spec, limit, 1)
    if cmd == "blowup":
        t, shift, width = float(a["t"]), float(a["shift"]), float(a["width"])
        eps = [float(tok) for tok in a["eps"].split(",") if tok]
        limit = int(a["prime-limit"])
        family = zeta.pathological_set(t, width, shift)
        return _zeta_call("blowup_scan", lambda: zeta.blowup_scan(
            t, shift, eps, prime_limit=limit, width=width), family, limit, len(eps))
    raise ValueError(f"no replay plan for subcommand {cmd!r}")


def _sweep_children(instance: dict) -> list[Call]:
    """The calls ``sweeps.check_instance`` makes for one instance."""
    kind, x = instance["kind"], instance["x"]
    if kind == "theorem1":
        return [_partial_sum(parse_spec(instance["set"]), x, "exact")]
    if kind == "zorn":
        return [_zorn(parse_spec(instance["set"]), x)]
    if kind == "mock":
        op = instance["op"]
        if op == "coprime":
            P = instance["P"]
            return [_coprime(P, x, "exact"),
                    _partial_sum(sums.spec_of_coprime_modulus(P), x, "exact")]
        if op == "divisors":
            return [_sum_call("partial_sum_divisors", sums.partial_sum_divisors,
                              (instance["N"], x, "exact"), [])]
        m = instance["m"]
        twin = [_partial_sum(AllPrimes(), x, "exact")] if m == 1 else []
        return [_shifted(m, x, "exact")] + twin
    weights = {int(p): Fraction(v) for p, v in instance["weights"].items()}
    default = instance["default"]
    children = [_weighted(weights, default, x, "exact")]
    if all(v in (0, 1) for v in weights.values()):
        if default == 0:
            twin = FinitePrimes(tuple(p for p, v in weights.items() if v == 1))
        else:
            twin = CofinitePrimes(tuple(p for p, v in weights.items() if v == 0))
        children.append(_partial_sum(twin, x, "exact"))
    return children


def plan(op: dict) -> Call:
    """The call tree of one op, rooted at its entry point."""
    if op["cmd"] == "sweep":
        instance = op["instance"]
        return Call("sweeps.check_instance", None, _sweep_children(instance),
                    tag=instance["kind"])
    return Call("cli.run", None, [_library_call(op["cmd"], op["args"])])
