"""Exact and certified-float partial sums of mu(n)/n over prime-generated
semigroups, together with the bound checks they satisfy.

The central quantity is

    S_P(x) = sum of mu(n)/n over n in <P> with n <= x,

which satisfies |S_P(x)| <= 1 for every prime set P and every x, with
equality at x = 1.  Three restricted variants carry the same bound:

* sum over n <= x coprime to a fixed P        (``partial_sum_coprime``)
* sum over divisors n of a fixed N, n <= x    (``partial_sum_divisors``)
* sum of mu(m*n)/n over n <= x for fixed m    (``partial_sum_shifted``)

and the convexity generalisation to multiplicative weights a: N -> [0, 1]
(``weighted_partial_sum``).  ``zorn_check`` verifies the integer identity
behind the proof of the bound:

    #{n <= x : n in <P'>}  =  sum over d in <P>, d <= x of mu(d)*floor(x/d)

where P' is the complement of P in the primes.

Exact mode adds the terms over one common denominator, the product C of
the primes up to s = isqrt(x) (times the weights' denominators for
``weighted_partial_sum``).  A squarefree n <= x has at most one prime
above s, so each term a/b is a * (C // g) over C * r with g = gcd(b, C) and
r = b // g either 1 or that prime: the terms land in one integer bucket per
r, and no gcd is taken of a large integer.  The buckets are then added by
gcd-free binary splitting (Haible and Papanikolaou 1998), as a stream on a
stack of at most log2(#buckets) unreduced partial sums.  The total is
reduced by its known factors, gcd(num, C) times each r that divides its
own bucket, not by a gcd of two large integers, and ``format_rational``
writes it by divide and conquer: neither end step is quadratic.  Exact
``partial_sum`` of an infinite set feeds the stack few terms, by the
largest-prime split of Meissel-Lehmer prime counting: every squarefree
n <= x whose largest prime p exceeds s is p*m with m <= x/p < p, so

    S_P(x) = sum over n in <P cap [2, s]>, n <= x of mu(n)/n
             - sum over p in P, s < p <= x of S_P(x // p) / p.

The first sum is one integer over C, the sum of mu(n) * (C // n) read off
the s-smooth table at C speed; each prime above s adds one term over C * p,
with C * S_P(x // p) read off a list of running sums of the same integers
up to s.
Float mode uses ``math.fsum`` over every term, which is correctly rounded
whatever their order, so its error is far below the documented certificate
``4 * x * ulp(1)``.  For an infinite set the terms are read off the code
table at C speed (``semigroup.table_fsums``); finite sets and the restricted
variants feed fsum term by term.  Every report carries the bound verdict; a
false verdict means a theorem has been falsified and is escalated by the
CLI, never silently dropped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, UsageError
from .primes import AllPrimes, CofinitePrimes, FinitePrimes, PrimeSetSpec, is_prime, render_spec
from .primes import check_limit, member_primes
from .semigroup import _distinct_prime_factors, _heap_stream, code_tables
from .semigroup import member_table, mobius, smooth_split, squarefree_terms, table_count_squarefree
from .semigroup import table_floor_sum, table_fsums, table_runs, table_terms

# Exact summation carries denominators that divide lcm(1..x); at x = 1e5
# that is ~43000 decimal digits, so exact mode refuses larger x.  Finite
# prime sets are not exempted even though their term count is tiny; the
# ceiling is a blunt contract shared with the CLI.  The term-wise routes
# (coprime, shifted, weighted, divisors, finite sets) hold one bucket per
# prime in (isqrt(x), x] that their terms reach: a dict entry, the prime
# and a numerator of about 1.44 * isqrt(x) bits, about 140 bytes each: a
# tracemalloc peak of about 1.5 MB at this ceiling, the table included.
# There the result of all has 144,000 bits: reduced in about 2 ms, not 25-39
# by one gcd, and written in 17-22 ms, not 64-68 by Decimal.
EXACT_CEILING = 10**5

# One rounding per term, with generous slack; fsum actually stays within one
# ulp of the true rounded value.
FLOAT_ERROR_PER_TERM = 4 * sys.float_info.epsilon

MODES = ("exact", "float")

# A term is (num, den) for the contribution num/den; terms arrive in the
# order of strictly increasing n.
Term = tuple[int, int]


@dataclass(frozen=True)
class SumReport:
    """A computed partial sum plus its bound verdict.

    ``value_exact`` is None in float mode.  In exact mode ``value_float`` is
    the rounding of ``value_exact`` and ``float_error_bound`` is 0.  The
    verdict ``bound_ok`` is |value| <= 1, compared exactly in exact mode and
    as |value_float| <= 1 + float_error_bound in float mode.  ``term_count``
    counts the nonzero terms accumulated.
    """

    params: str
    x: int
    mode: str
    value_exact: Fraction | None
    value_float: float
    float_error_bound: float
    term_count: int
    bound_ok: bool

    def __repr__(self) -> str:
        # int's str refuses more than 4300 digits; format_rational does not.
        value = self.value_exact
        cells = {**vars(self), "value_exact": value if value is None else format_rational(value)}
        return f"SumReport({', '.join(f'{k}={v!r}' for k, v in cells.items())})"


@dataclass(frozen=True)
class ZornIdentity:
    """Both sides of the counting identity behind the |S_P(x)| <= 1 proof."""

    lhs: int
    rhs: int
    equal: bool


def format_rational(q: Fraction) -> str:
    """Serialise as "numerator/denominator" in lowest terms.

    Exact denominators grow to tens of thousands of digits, beyond the
    interpreter's default int-to-str limit; ``Decimal`` converts them
    without that limit, so the interpreter-wide setting is left alone.
    Its time is quadratic, so a large n is written as hi * 2**w + lo, hi
    and lo converted alike, in a private context exact at any size (Brent
    and Zimmermann, Modern Computer Arithmetic, 1.7).
    """
    return f"{_decimal_text(q.numerator)}/{_decimal_text(q.denominator)}"


# The bits of the split's leaves, and of half the smallest n split.  On a
# shared 2-vCPU VM (Python 3.11) the split took 110% of Decimal(n)'s time at
# 5000 bits, 96% at 9000, 39% at 72,000 and 25% at 144,000.
_RENDER_LEAF_BITS = 4000


def _decimal_text(n: int) -> str:
    """str(Decimal(n)), with the sign of a split n written as text."""
    if n.bit_length() <= 2 * _RENDER_LEAF_BITS:
        return str(Decimal(n))
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w, made once per w
        if w not in powers:
            q = w >> 1
            small = w <= _RENDER_LEAF_BITS
            powers[w] = Decimal(1 << w) if small else context.multiply(power(q), power(w - q))
        return powers[w]

    def convert(n: int, w: int) -> Decimal:  # 0 <= n < 2**w
        if w <= _RENDER_LEAF_BITS:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        lo = convert(n - (hi << half), half)
        return context.add(context.multiply(convert(hi, w - half), power(half)), lo)

    digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _validate_mode_and_x(mode: str, x: int) -> None:
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r} (expected 'exact' or 'float')")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if mode == "exact" and x > EXACT_CEILING:
        raise UsageError(
            f"exact mode is limited to x <= {EXACT_CEILING}; use float mode for x = {x}"
        )
    check_limit(x)


def _merge_sum(pairs: Iterable[tuple[int, int]], common: int, x: int) -> tuple[int, int, int]:
    """(num, den, count): the sum num/den in lowest terms of a stream of
    ``count`` pairs (a, b) with b > 0, each pair added to the bucket of its
    part r = b // gcd(b, common).  Exact for any ``common``; fast when every
    r is 1 or a prime, as for a squarefree n <= x over the primes up to
    isqrt(x).
    """
    parts: dict[int, int] = {}
    count = 0
    for a, b in pairs:
        count += 1
        g = math.gcd(b, common)
        r = b // g
        parts[r] = parts.get(r, 0) + a * (common // g)
    num, den = _tree_sum(zip(parts.values(), parts), common, not parts or max(parts) <= x)
    return num, den, count


def _tree_sum(pairs: Iterable[tuple[int, int]], common: int, below_x: bool) -> tuple[int, int]:
    """(num, den): the sum num/den in lowest terms of a / (common * r) over
    a stream of pairs (a, r) with distinct r > 0; ``below_x`` if every r is
    at most x and common a multiple of the primorial of isqrt(x).

    The pairs are added on a stack in binary-counter order: after k pairs
    the stack holds one partial sum per set bit i of k, the sum of 2**i
    consecutive pairs, so at most log2(k) + 1 partial sums are alive.  Each
    step is gcd-free: a/b + c/d = (a*d + c*b) / (b*d).  If every r is also
    coprime to common, each r > 1 is a prime above isqrt(x) that divides
    every cross term of the numerator but its own: the gcd is then
    gcd(num, common) times the r that divide their own a.
    """
    stack: list[tuple[int, int]] = []
    count = 0
    known = 1
    for num, den in pairs:
        count += 1
        if not num % den:
            known *= den
        k = count
        while not k & 1:
            a, b = stack.pop()
            num, den = a * den + num * b, b * den
            k >>= 1
        stack.append((num, den))
    num, den = 0, 1
    for a, b in reversed(stack):
        num, den = a * den + num * b, b * den
    if below_x and math.gcd(den, common) == 1:
        g = math.gcd(num, common) * known
    else:
        g = math.gcd(num, common * den)
    return num // g, common * den // g


@lru_cache(maxsize=None)
def _primorial(s: int) -> int:
    """The product of the primes up to s: the common denominator of the
    exact routes at every x with isqrt(x) = s, at most 317 of them."""
    return math.prod(member_primes(AllPrimes(), s))


def _coprime_fraction_hook(cls: type[Fraction] = Fraction):
    """cls(n, d) for coprime n and d > 0 without its gcd, by a feature test:
    the private classmethod of Python 3.12 and later, the private keyword
    of 3.10 and 3.11, else cls itself."""
    try:
        cls(1, 1, _normalize=False)
    except TypeError:
        return getattr(cls, "_from_coprime_ints", None) or cls
    return lambda n, d: cls(n, d, _normalize=False)


_coprime_fraction = _coprime_fraction_hook()


def _exact_report(params: str, x: int, num: int, den: int, count: int) -> SumReport:
    # num/den comes in lowest terms with den > 0; float(Fraction) is num / den.
    total = _coprime_fraction(num, den)
    return SumReport(params, x, "exact", total, num / den, 0.0, count, abs(num) <= den)


def _float_report(params: str, x: int, value: float, count: int) -> SumReport:
    bound = FLOAT_ERROR_PER_TERM * x
    return SumReport(params, x, "float", None, value, bound, count, abs(value) <= 1.0 + bound)


def _report(params: str, x: int, mode: str, terms: Iterable[Term], scale: int = 1) -> SumReport:
    """The report of a stream of terms (num, den), each den a squarefree
    n <= x times a divisor of ``scale``."""
    if mode == "exact":
        common = _primorial(math.isqrt(x)) * scale
        return _exact_report(params, x, *_merge_sum(((a, b) for a, b in terms if a), common, x))
    count = 0

    def quotients():
        nonlocal count
        for num, den in terms:
            if num:
                count += 1
                yield num / den

    value = math.fsum(quotients())
    return _float_report(params, x, value, count)


def partial_sum(spec: PrimeSetSpec, x: int, mode: str = "exact") -> SumReport:
    """S_P(x) = sum of mu(n)/n over n in <P>, n <= x.

    The report's bound_ok must come back true for every input; the value is
    1 exactly when x = 1 (only the term n = 1 contributes) and it saturates
    at the full product of (1 - 1/p) once x reaches the product of a finite
    generating set.
    """
    _validate_mode_and_x(mode, x)
    if isinstance(spec, FinitePrimes):
        return _report(render_spec(spec), x, mode, ((mu, n) for n, mu in squarefree_terms(spec, x)))
    if mode == "exact":
        return _exact_report(render_spec(spec), x, *_split_sum(*smooth_split(spec, x), x))
    return _float_report(render_spec(spec), x, *next(table_fsums(member_table(spec, x), (x,))))


def _split_sum(table: bytearray, large: Sequence[int], x: int) -> tuple[int, int, int]:
    """(num, den, count) for S_P(x) by the largest-prime split, from the
    table of the isqrt(x)-smooth members and the member primes above
    isqrt(x); count is the number of squarefree members up to x."""
    s = math.isqrt(x)
    common = _primorial(s)
    # common * S_P(v) and its term count, 0 <= v <= s, as running sums in place;
    # a v with no term shares the int before it (at 1e5, 40 ints for 1 mod 4).
    prefix, counts = [0] * (s + 1), [0] * (s + 1)
    for n, mu in table_terms(table, s, True):
        prefix[n], counts[n] = mu * (common // n), 1
    for v in range(1, s + 1):
        prefix[v] = prefix[v] + prefix[v - 1] if prefix[v] else prefix[v - 1]
        counts[v] += counts[v - 1]
    runs = table_runs(table, s + 1, x + 1, True)
    smooth = prefix[s] + sum(sum(map(mul, mus, map(common.__floordiv__, ns))) for ns, mus in runs)
    count = table_count_squarefree(table, 0, x + 1)
    count += sum(map(counts.__getitem__, map(x.__floordiv__, large)))
    prefixes = map(prefix.__getitem__, map(x.__floordiv__, large))
    pairs = chain([(smooth, 1)], ((-a, p) for p, a in zip(large, prefixes) if a))
    return *_tree_sum(pairs, common, True), count


def partial_sum_coprime(P: int, x: int, mode: str = "exact") -> SumReport:
    """Sum of mu(n)/n over n <= x with gcd(n, P) = 1.

    Equals the semigroup sum for the set of primes not dividing P; computed
    here directly from the gcd condition so the two routes stay independent.
    """
    if P < 1:
        raise DomainError(f"coprimality modulus must be >= 1, got {P}")
    _validate_mode_and_x(mode, x)
    return _report(f"coprime:P={P}", x, mode, _coprime_terms(P, x, 1))


def _coprime_terms(k: int, x: int, sign: int) -> Iterator[Term]:
    """(sign * mu(n), n) for the squarefree n <= x with gcd(n, k) = 1,
    ascending, filtered term by term."""
    pairs = squarefree_terms(AllPrimes(), x)
    return ((sign * mu, n) for n, mu in pairs if math.gcd(n, k) == 1)


def partial_sum_divisors(N: int, x: int, mode: str = "exact") -> SumReport:
    """Sum of mu(n)/n over divisors n of N with n <= x.

    For x >= N this collapses to phi(N)/N by the classical totient identity,
    which tests verify with an independently computed totient.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    _validate_mode_and_x(mode, x)
    # The divisors with nonzero mu are the squarefree products of N's primes.
    terms = ((mu, d) for d, mu in _heap_stream(_distinct_prime_factors(N), x, True))
    return _report(f"divisors:N={N}", x, mode, terms)


def partial_sum_shifted(m: int, x: int, mode: str = "exact") -> SumReport:
    """Sum of mu(m*n)/n over n <= x.

    Uses mu(m*n) = mu(m) * mu(n) * [gcd(m, n) = 1]; the brute-force oracle in
    the tests factorises m*n directly instead.  For m = 1 this is the plain
    partial sum over all of N.
    """
    if m < 1:
        raise DomainError(f"shift m must be >= 1, got {m}")
    _validate_mode_and_x(mode, x)
    mu_m = mobius(m)
    terms = _coprime_terms(m, x, mu_m) if mu_m else ()
    return _report(f"shifted:m={m}", x, mode, terms)


def zorn_check(spec: PrimeSetSpec, x: int) -> ZornIdentity:
    """Exact integer identity: the count of the complementary semigroup <P'>
    up to x equals sum over d in <P>, d <= x of mu(d) * floor(x/d).

    Both sides come from one membership pass, or from a finite P's list with
    none, but are counted independently: the left on the flags of <P'>,
    sieved from the member primes alone, the right on the code table of <P>
    in floor blocks (``table_floor_sum``), or term-wise from the heap for finite P.
    """
    if x < 1:
        raise DomainError(f"zorn identity requires x >= 1, got {x}")
    tables = code_tables(spec, x)
    lhs = next(tables).count(1)
    if isinstance(spec, FinitePrimes):
        rhs = sum(mu * (x // n) for n, mu in squarefree_terms(spec, x))
    else:
        rhs = table_floor_sum(next(tables), x)
    return ZornIdentity(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def euler_product(spec: PrimeSetSpec) -> Fraction:
    """Exact product of (1 - 1/p) over a finite prime set; 1 for the empty
    set."""
    if not isinstance(spec, FinitePrimes):
        raise UsageError(
            "euler_product needs a finite prime set; use euler_product_partial "
            "for truncations of infinite sets"
        )
    return Fraction(math.prod(p - 1 for p in spec.primes), math.prod(spec.primes))


def euler_product_partial(spec: PrimeSetSpec, prime_limit: int) -> float:
    """Truncated product of (1 - 1/p) over members p <= prime_limit, in
    floating arithmetic; non-increasing in the limit."""
    if prime_limit < 0:
        raise DomainError(f"prime limit must be >= 0, got {prime_limit}")
    result = 1.0
    for p in member_primes(spec, prime_limit):
        result *= 1.0 - 1.0 / p
    return result


class WeightFunction:
    """A multiplicative weight a: N -> [0, 1] given by values on finitely
    many primes plus a default (0 or 1) for every other prime; extended to
    squarefree n by a(n) = product of a(p) over p | n, with a(1) = 1."""

    def __init__(self, assignments: Mapping[int, Fraction | int], default_value: int = 0):
        if default_value not in (0, 1):
            raise DomainError(f"default weight must be 0 or 1, got {default_value}")
        cleaned: dict[int, Fraction] = {}
        for p, value in assignments.items():
            if not is_prime(p):
                raise DomainError(f"weights may only be assigned to primes, got {p}")
            w = Fraction(value)
            if not 0 <= w <= 1:
                raise DomainError(f"weight for {p} must lie in [0, 1], got {w}")
            cleaned[p] = w
        self.assignments = cleaned
        self.default_value = default_value

    def __repr__(self):
        pairs = ",".join(f"{p}={w}" for p, w in sorted(self.assignments.items()))
        return f"weights:default={self.default_value};{pairs}"


def _weighted_terms(pairs: Iterable[tuple[int, int]], a: WeightFunction) -> Iterator[Term]:
    # Only the finitely many assigned primes can scale a term: u = gcd(n, A)
    # is the product of those dividing n, and u's factor, the products of
    # their weights' numerators and denominators, is made once per u seen.
    assigned = [(p, w.numerator, w.denominator) for p, w in a.assignments.items()]
    product = math.prod(a.assignments)
    factors: dict[int, tuple[int, int]] = {}
    for n, mu in pairs:
        u = math.gcd(n, product)
        factor = factors.get(u)
        if factor is None:
            num = den = 1
            for p, p_num, p_den in assigned:
                if u % p == 0:
                    num *= p_num
                    den *= p_den
            factor = factors[u] = num, den
        yield mu * factor[0], n * factor[1]


def weighted_partial_sum(a: WeightFunction, x: int, mode: str = "exact") -> SumReport:
    """Sum of mu(n) * a(n) / n over n <= x for a multiplicative weight a.

    With every a(p) in {0, 1} this reproduces the semigroup partial sum for
    the corresponding prime set (the extreme points of the weight cube), and
    the bound |value| <= 1 persists across the whole cube by linearity in
    each a(p).
    """
    _validate_mode_and_x(mode, x)
    # Unassigned primes weigh the default: with 0 only the semigroup of the
    # assigned support contributes, with 1 every squarefree n <= x does.
    support = FinitePrimes(tuple(a.assignments)) if a.default_value == 0 else AllPrimes()
    terms = _weighted_terms(squarefree_terms(support, x), a)
    scale = math.prod(w.denominator for w in a.assignments.values())
    return _report(repr(a), x, mode, terms, scale)


def spec_of_coprime_modulus(P: int) -> PrimeSetSpec:
    """The prime set {p : p does not divide P} as a cofinite description."""
    if P < 1:
        raise DomainError(f"coprimality modulus must be >= 1, got {P}")
    return CofinitePrimes(_distinct_prime_factors(P))
