"""A route-free check of every exact sum: the paper's inversion identity.

The sum of mu(d) over the divisors d of n is [n = 1], and every divisor of
a member of <P> is a member, so for every prime set P and every x >= 1

    sum over k in <P>, k <= x, of S_P(x // k) / k  =  1.

The restricted sums obey the same identity.  For a completely
multiplicative g and a sum F(v) of mu(n) * g(n) / n over n <= v,

    sum over k <= x of g(k) / k * F(x // k)  =  1,

with g(p) = 1 on the primes that do not divide P for ``coprime``, on the
primes of N for ``divisors`` and g(p) = a(p) for a weight a.  ``shifted`` by
m is mu(m) times ``coprime`` with modulus m, so its right side is mu(m).

Every exact route ends in one accumulator, so two routes compared with each
other share any fault in it.  Here g is made from a smallest-prime-factor
sieve of the tests' own and the library's prime predicate ``is_member``
alone, and the identity is added up in ``fractions.Fraction`` or modulo the
prime 2**61 - 1, which exceeds every prime in a denominator under
``EXACT_CEILING``.  So the check shares no code with the accumulator.  Each
value must also be a fraction in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

import pytest

from musum.primes import AllPrimes, CofinitePrimes, FinitePrimes, IntervalPrimes
from musum.primes import LogFracPrimes, ResiduePrimes, is_member, render_spec
from musum.sums import EXACT_CEILING, WeightFunction, partial_sum, partial_sum_coprime
from musum.sums import partial_sum_divisors, partial_sum_shifted, weighted_partial_sum

from oracles import mobius_bruteforce, smallest_prime_factors

Q = 2**61 - 1
SMALL_X = 300
assert Q > EXACT_CEILING


def _set_case(spec):
    return lambda v: partial_sum(spec, v), lambda p: int(is_member(spec, p)), 1


def _weighted_case(assignments, default):
    a = WeightFunction(assignments, default)
    weights = {p: Fraction(w) for p, w in assignments.items()}
    return lambda v: weighted_partial_sum(a, v), lambda p: weights.get(p, default), 1


# id: (F as a function of v, g on the primes, the right side).  The sets are
# every form that the largest-prime split takes and one finite set; the
# weights include x = 2's bucket that shares a prime with the denominator.
CASES = {
    render_spec(spec): _set_case(spec)
    for spec in (
        AllPrimes(),
        CofinitePrimes((2, 5)),
        CofinitePrimes((2,)),
        IntervalPrimes(3.0, 40.0),
        IntervalPrimes(150.0, 1e9),
        ResiduePrimes(1, 4),
        ResiduePrimes(3, 1000),
        LogFracPrimes(5.0, 0.2, 0.3),
        FinitePrimes((2, 3, 7)),
    )
}
CASES.update({
    "coprime:P=30": (lambda v: partial_sum_coprime(30, v), lambda p: int(30 % p != 0), 1),
    "divisors:N=30030": (lambda v: partial_sum_divisors(30030, v), lambda p: int(30030 % p == 0), 1),
    "shifted:m=30": (lambda v: partial_sum_shifted(30, v), lambda p: int(30 % p != 0), -1),
    "shifted:m=12": (lambda v: partial_sum_shifted(12, v), lambda p: int(12 % p != 0), 0),
    "weighted:2=1/3,5=1/2;1": _weighted_case({2: Fraction(1, 3), 5: Fraction(1, 2)}, 1),
    "weighted:2=1/4,13=2/9;0": _weighted_case({2: Fraction(1, 4), 13: Fraction(2, 9)}, 0),
})
assert all(rhs == mobius_bruteforce(m) for m, rhs in ((30, -1), (12, 0)))


@lru_cache(maxsize=None)
def _spf():
    return smallest_prime_factors(EXACT_CEILING)


@lru_cache(maxsize=None)
def _prime_weight(case, p, modulus):
    w = CASES[case][1](p)
    if modulus is None or not isinstance(w, Fraction):
        return w
    return w.numerator * pow(w.denominator, -1, modulus) % modulus


@lru_cache(maxsize=None)
def _value(case, v):
    """F(v) as a Fraction, checked to be in lowest terms."""
    value = CASES[case][0](v).value_exact
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1, (case, v)
    return value


def _value_mod_q(case, v):
    value = _value(case, v)
    return value.numerator * pow(value.denominator, -1, Q) % Q


@lru_cache(maxsize=None)
def _inverses_mod_q(x):
    """1/k modulo Q for 0 < k <= x, by 1/k = -(Q // k) / (Q % k)."""
    inv = [0, 1]
    for k in range(2, x + 1):
        inv.append((Q - Q // k) * inv[Q % k] % Q)
    return inv


def _prefix(case, x, modulus):
    """H[m] = sum over k <= m of g(k) / k, for 0 <= m <= x: Fractions, or
    residues modulo Q."""
    spf = _spf()
    g = [0, 1]
    for k in range(2, x + 1):
        rest = g[k // spf[k]]
        g.append(rest * _prime_weight(case, spf[k], modulus) if rest else 0)
    if modulus is None:
        return list(accumulate(map(Fraction, g[1:], range(1, x + 1)), initial=0))
    return [h % Q for h in accumulate(map(mul, g, _inverses_mod_q(x)))]


def _inversion_sum(case, x, H, value, modulus=None):
    """sum over k <= x of g(k) / k * F(x // k), one F per distinct x // k:
    the k with x // k = v are the block (x // (v + 1), x // v]."""
    total = 0
    k = 1
    while k <= x:
        v = x // k
        last = x // v
        coefficient = H[last] - H[k - 1]
        if coefficient:
            total += coefficient * value(case, v)
            if modulus is not None:
                total %= modulus
        k = last + 1
    return total


@pytest.mark.parametrize("case", CASES)
def test_inversion_identity_holds_exactly_up_to_300(case):
    H = _prefix(case, SMALL_X, None)
    rhs = CASES[case][2]
    for x in range(1, SMALL_X + 1):
        assert _inversion_sum(case, x, H, _value) == rhs, (case, x)


def _check_modulo_q(case, x):
    H = _prefix(case, x, Q)
    assert _inversion_sum(case, x, H, _value_mod_q, Q) == CASES[case][2] % Q, (case, x)


@pytest.mark.parametrize("case", CASES)
def test_inversion_identity_holds_modulo_a_large_prime(case):
    _check_modulo_q(case, 10**4)


# One case of the split and one of the term-wise buckets at the ceiling.
@pytest.mark.parametrize("case", ["all", "coprime:P=30"])
def test_inversion_identity_holds_at_the_exact_ceiling(case):
    _check_modulo_q(case, EXACT_CEILING)


def test_the_modular_check_sees_a_wrong_value():
    # One F(v) off by 1e-9 at one v breaks the residue.
    case = render_spec(AllPrimes())
    x = 10**4
    H = _prefix(case, x, Q)

    def perturbed(case, v):
        return _value_mod_q(case, v) + (pow(10**9, -1, Q) if v == 7 else 0)

    assert _inversion_sum(case, x, H, _value_mod_q, Q) == 1
    assert _inversion_sum(case, x, H, perturbed, Q) % Q != 1
