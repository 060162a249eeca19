"""Scripted experiments: convergence of the partial sums to their limiting
products, the sliding-window counterexample to uniform decay, semigroups
where the bound genuinely fails, and the refinement identity with the
Euler-Mascheroni correction term.

The limit statements behind these experiments carry no explicit rates (the
decay genuinely depends on the prime set and is not uniform in it), so the
assertable thresholds are calibrated once on a canonical run and frozen in a
versioned fixtures file; runs assert against the frozen values thereafter.
The fixtures directory can be overridden with the MUSUM_FIXTURES_DIR
environment variable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path

from .errors import DomainError
from .primes import AllPrimes, IntervalPrimes, PrimeSetSpec, check_limit, render_spec
from .semigroup import _product_stream, code_tables, member_table, squarefree_terms, table_fsums
from .semigroup import table_mobius_sum, table_primes, tally
from .sums import SumReport, _report, _validate_mode_and_x

# Euler-Mascheroni constant, 20 decimal digits (OEIS A001620).
EULER_MASCHERONI = 0.57721566490153286061

FIXTURES_ENV_VAR = "MUSUM_FIXTURES_DIR"


def load_fixtures() -> dict:
    """Frozen regression thresholds; see the module docstring."""
    directory = os.environ.get(FIXTURES_ENV_VAR)
    if directory:
        path = Path(directory) / "regression.json"
    else:
        path = Path(__file__).parent / "fixtures" / "regression.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def regression_threshold(spec: PrimeSetSpec, quantity: str, x: int) -> float | None:
    """The frozen threshold for |quantity| at (spec, x), if one is stored."""
    key = f"{render_spec(spec)}/{quantity}/x={x}"
    return load_fixtures()["thresholds"].get(key)


@dataclass(frozen=True)
class ConvergenceRow:
    x: int
    sum_value: float
    product_value: float
    gap: float


def _checked_grid_max(x_grid: list[int]) -> int:
    """The largest grid point, each point checked by check_limit."""
    if not x_grid:
        raise DomainError("x grid must be nonempty")
    for x in x_grid:
        check_limit(x)
    return max(x_grid)


def convergence_table(spec: PrimeSetSpec, x_grid: list[int]) -> list[ConvergenceRow]:
    """Pair the partial sum at each grid point with the truncated product of
    (1 - 1/p) over members p <= x; their gap tends to zero as x grows."""
    if any(a >= b for a, b in zip(x_grid, x_grid[1:])):
        raise DomainError("x grid must be strictly ascending")
    top = _checked_grid_max(x_grid)
    table = member_table(spec, top)
    # One ascending pass of euler_product_partial over the generating primes:
    # each grid point's product continues the last, in the same order.
    members = table_primes(table, top)
    p = next(members, None)
    product_value = 1.0
    rows = []
    for x, (sum_value, _) in zip(x_grid, table_fsums(table, x_grid)):
        while p is not None and p <= x:
            product_value *= 1.0 - 1.0 / p
            p = next(members, None)
        rows.append(ConvergenceRow(x, sum_value, product_value, sum_value - product_value))
    return rows


@dataclass(frozen=True)
class MertensWindow:
    sum: float
    product: float


def mertens_window(x: int) -> MertensWindow:
    """The semigroup of primes in (sqrt(x), x] evaluated at x.

    Any product of two window primes exceeds x, so the partial sum reduces
    to 1 minus the sum of prime reciprocals over the window: near 1 - ln 2
    for large x, while the product of (1 - 1/p) stays near 1/2.  The window
    therefore keeps the sum-product gap bounded away from zero however large
    x becomes, which is exactly its point.
    """
    if x < 4:
        raise DomainError(f"the window needs x >= 4, got {x}")
    row = convergence_table(IntervalPrimes(math.sqrt(x), float(x)), [x])[0]
    return MertensWindow(sum=row.sum_value, product=row.product_value)


def mean_mobius(spec: PrimeSetSpec, x: int) -> float:
    """(1/x) * sum of mu(n) over n in <P>, n <= x; the numerator is summed
    in exact integers and divided once at the end."""
    if x < 1:
        raise DomainError(f"mean requires x >= 1, got {x}")
    return tally(spec, x)[1] / x


@dataclass(frozen=True)
class GranResidualRow:
    """One grid point of the refinement identity

        x * S_P(x) = #{n <= x : n in <P'>}
                     + (1 - gamma) * sum of mu(n) over n in <P>, n <= x
                     + error

    The error term carries an unknown constant, so rows are reported for
    inspection without a pass/fail verdict."""

    x: int
    lhs: float
    count_term: int
    mertens_term: float
    residual: float
    gamma: float = EULER_MASCHERONI


def gran_residual(spec: PrimeSetSpec, x_grid: list[int]) -> list[GranResidualRow]:
    # Residuals are read relative to x, so x = 0 has no row.
    for x in x_grid:
        if x < 1:
            raise DomainError(f"gran residuals need x >= 1, got {x}")
    # Each segment between the sorted distinct points is read once; the rows
    # keep the grid's own order and repeats.
    points = sorted(set(x_grid))
    tables = code_tables(spec, _checked_grid_max(x_grid))
    ends = [x + 1 for x in points]
    count_terms = list(accumulate(map(next(tables).count, repeat(1), [0, *ends], ends)))
    inside = next(tables)  # built once the flags of <P'> are gone
    mobius_totals = accumulate(map(table_mobius_sum, repeat(inside), [0, *ends], ends))
    rows = {}
    for x, count_term, (value, _), mobius_total in zip(
        points, count_terms, table_fsums(inside, points), mobius_totals
    ):
        lhs = x * value
        mertens_term = (1.0 - EULER_MASCHERONI) * mobius_total
        rows[x] = GranResidualRow(x, lhs, count_term, mertens_term, lhs - count_term - mertens_term)
    return [rows[x] for x in x_grid]


def semiprime_sum(x: int, mode: str = "exact") -> SumReport:
    """Partial sum of mu(n)/n over the semigroup generated by the
    semiprimes: n belongs iff n = 1 or n has an even number of prime factors
    counted with multiplicity.

    (Any n with even big-Omega is a product of semiprimes: pair up its prime
    factors in any order; conversely products of semiprimes have even
    big-Omega since each factor contributes 2.)  Within this semigroup mu is
    0 or +1, every nonzero term is +1/n, and the sum diverges -- the bound
    that holds for prime-generated semigroups fails here, first at x = 6.
    """
    if x < 1:
        raise DomainError(f"semiprime sum requires x >= 1, got {x}")
    _validate_mode_and_x(mode, x)
    # mu(n) = +1 means squarefree with evenly many prime factors, which are
    # exactly the members with a nonzero term.
    terms = ((1, n) for n, mu in squarefree_terms(AllPrimes(), x) if mu == 1)
    return _report("semiprime", x, mode, terms)


def semiprime_crossing(threshold: float = 2.0, limit: int = 10**6) -> int | None:
    """Smallest x <= limit at which the semiprime-semigroup sum exceeds
    ``threshold``, or None if it stays below (divergence guarantees a
    crossing for every threshold once the limit is large enough)."""
    if limit < 1:
        return None
    total = 0.0
    for n, mu in squarefree_terms(AllPrimes(), limit):
        if mu == 1:
            total += 1.0 / n
            if total > threshold:
                return n
    return None


@dataclass(frozen=True)
class BeurlingSystem:
    """Free commutative monoid on real generators > 1, ordered by real
    value.  Formal products are distinct elements even when their real
    values collide."""

    generators: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(float(g) for g in self.generators))
        if not all(math.isfinite(g) for g in self.generators):
            raise DomainError("every generator must be a finite real")
        if any(g <= 1.0 for g in self.generators):
            raise DomainError("every generator must exceed 1")
        if len(self.generators) > 12:
            raise DomainError("at most 12 generators are supported")


# The boundary case matters: the canonical failure example evaluates exactly
# at an element's value, and that element is included.
BEURLING_RELATIVE_TOLERANCE = 1e-12


def beurling_partial_sum(system: BeurlingSystem, x: float) -> float:
    """Sum of mu(g)/value(g) over formal products with value <= x (within a
    relative tolerance of 1e-12).

    Only squarefree products (each generator used at most once) contribute,
    since repeated generators set mu to zero.  With integer primes this sum
    stays in [-1, 1]; with real generators it does not -- the system
    {1.1, 1.2, 1.3} at x = 1.3 already reaches about -1.5117.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be a finite real, got {x}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    cutoff = x * (1.0 + BEURLING_RELATIVE_TOLERANCE)
    products = _product_stream(tuple(sorted(system.generators)), cutoff, True)
    return math.fsum(mu / value for value, mu in products)
