import decimal
import json
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musum import cli, sweeps
from musum import sums as sums_module
from musum.errors import DomainError, UsageError
from musum.experiments import (
    EULER_MASCHERONI,
    convergence_table,
    gran_residual,
    semiprime_sum,
)
from musum.primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
    is_member,
    parse_spec,
    render_spec,
)
from musum.semigroup import count_members_outside, enumerate_terms, member_table, smooth_split
from musum.semigroup import squarefree_terms
from musum.semigroup import table_floor_sum, table_fsums
from musum.sums import (
    EXACT_CEILING,
    SumReport,
    WeightFunction,
    _merge_sum,
    _primorial,
    _report,
    _split_sum,
    euler_product,
    euler_product_partial,
    format_rational,
    partial_sum,
    partial_sum_coprime,
    partial_sum_divisors,
    partial_sum_shifted,
    spec_of_coprime_modulus,
    weighted_partial_sum,
    zorn_check,
)
from musum.sweeps import check_instance, generate_instance

from oracles import (
    factorize,
    mobius_bruteforce,
    odd_wheel_sieve,
    partial_sum_bruteforce,
    semigroup_members,
    totient_table,
    trial_division_primes,
)


class TestPartialSum:
    def test_equality_at_one(self):
        report = partial_sum(AllPrimes(), 1)
        assert report.value_exact == 1
        assert report.bound_ok
        assert report.term_count == 1

    def test_two_three_at_six_saturates(self):
        report = partial_sum(FinitePrimes((2, 3)), 6)
        assert report.value_exact == Fraction(1, 3)
        assert report.value_exact == euler_product(FinitePrimes((2, 3)))

    def test_all_primes_at_four(self):
        assert partial_sum(AllPrimes(), 4).value_exact == Fraction(1, 6)

    def test_x_zero_is_empty_sum(self):
        report = partial_sum(AllPrimes(), 0)
        assert report.value_exact == 0
        assert report.term_count == 0
        assert report.bound_ok

    def test_exact_ceiling_enforced(self):
        with pytest.raises(UsageError, match="float"):
            partial_sum(AllPrimes(), EXACT_CEILING + 1)

    def test_float_mode_certificate_on_exact_overlap(self):
        for spec in (AllPrimes(), CofinitePrimes((3,)), ResiduePrimes(1, 4)):
            exact = partial_sum(spec, 5000, mode="exact")
            approx = partial_sum(spec, 5000, mode="float")
            assert approx.value_exact is None
            assert abs(approx.value_float - float(exact.value_exact)) <= approx.float_error_bound
            assert approx.term_count == exact.term_count

    def test_matches_bruteforce_for_varied_specs(self):
        cases = [
            (FinitePrimes((2, 7, 11)), lambda p: p in (2, 7, 11)),
            (CofinitePrimes((2, 3)), lambda p: p not in (2, 3)),
            (IntervalPrimes(3.0, 40.0), lambda p: 3 < p <= 40),
            (ResiduePrimes(3, 4), lambda p: p % 4 == 3),
        ]
        for spec, pred in cases:
            for x in (1, 2, 37, 200, 501):
                got = partial_sum(spec, x).value_exact
                assert got == partial_sum_bruteforce(pred, x), (spec, x)

    def test_bound_holds_on_random_specs(self):
        rng = random.Random(99)
        pool = trial_division_primes(100)
        for _ in range(50):
            spec = FinitePrimes(tuple(rng.sample(pool, rng.randrange(0, 9))))
            x = rng.randrange(1, 10**4)
            assert abs(partial_sum(spec, x).value_exact) <= 1

    def test_saturation_up_to_the_exact_ceiling(self):
        # Once x reaches the product of the generators, every squarefree
        # member has been included and the sum equals the full product of
        # (1 - 1/p).  Sampled with generator products up to the exact-mode
        # ceiling itself.
        rng = random.Random(1234)
        pool = trial_division_primes(60)
        checked = 0
        while checked < 40:
            spec = FinitePrimes(tuple(rng.sample(pool, rng.randrange(1, 6))))
            product = math.prod(spec.primes)
            if product > EXACT_CEILING:
                continue
            assert partial_sum(spec, product).value_exact == euler_product(spec)
            if 2 * product <= EXACT_CEILING:
                assert partial_sum(spec, 2 * product).value_exact == euler_product(spec)
            checked += 1


class TestCoprimeSum:
    def test_vacuous_modulus(self):
        assert partial_sum_coprime(1, 1).value_exact == 1

    def test_modulus_six(self):
        assert partial_sum_coprime(6, 10).value_exact == Fraction(23, 35)

    def test_modulus_two(self):
        assert partial_sum_coprime(2, 9).value_exact == Fraction(34, 105)

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            partial_sum_coprime(0, 10)

    def test_equals_semigroup_form(self):
        rng = random.Random(4242)
        for _ in range(30):
            P = rng.randrange(1, 10**4)
            x = rng.randrange(1, 2000)
            via_gcd = partial_sum_coprime(P, x).value_exact
            via_spec = partial_sum(spec_of_coprime_modulus(P), x).value_exact
            assert via_gcd == via_spec, (P, x)


class TestDivisorSum:
    def test_unit(self):
        assert partial_sum_divisors(1, 1).value_exact == 1

    def test_twelve_complete(self):
        report = partial_sum_divisors(12, 12)
        assert report.value_exact == Fraction(1, 3)

    def test_twelve_truncated(self):
        assert partial_sum_divisors(12, 2).value_exact == Fraction(1, 2)

    def test_totient_identity_sampled(self):
        phi = totient_table(3000)
        for N in range(1, 3000, 7):
            assert partial_sum_divisors(N, N).value_exact == Fraction(phi[N], N)


class TestShiftedSum:
    def test_m_one_reduces_to_plain_sum(self):
        assert partial_sum_shifted(1, 4).value_exact == Fraction(1, 6)
        for x in (1, 10, 321, 2000):
            assert (
                partial_sum_shifted(1, x).value_exact
                == partial_sum(AllPrimes(), x).value_exact
            )

    def test_m_two(self):
        assert partial_sum_shifted(2, 3).value_exact == Fraction(-2, 3)

    def test_square_shift_vanishes(self):
        report = partial_sum_shifted(4, 10)
        assert report.value_exact == 0
        assert report.term_count == 0

    def test_terms_are_the_coprime_terms_times_mu_m(self):
        # mu(m*n) = mu(m) * mu(n) for gcd(m, n) = 1: the terms of the
        # coprime sum with P = m, each times mu(m), in the same order.
        for m in (1, 2, 4, 6, 12, 30, 77):
            sign = mobius_bruteforce(m)
            for x in (0, 1, 50, 2000):
                for mode in ("exact", "float"):
                    shifted = partial_sum_shifted(m, x, mode)
                    coprime = partial_sum_coprime(m, x, mode)
                    assert shifted.term_count == (coprime.term_count if sign else 0)
                    assert shifted.value_float == sign * coprime.value_float
                    if mode == "exact":
                        assert shifted.value_exact == sign * coprime.value_exact

    def test_against_direct_factorisation(self):
        # The oracle computes mu(m*n) by factorising the product outright.
        for m in (1, 2, 6, 9, 30, 77):
            for x in (1, 7, 50, 240):
                want = Fraction(0)
                for n in range(1, x + 1):
                    want += Fraction(mobius_bruteforce(m * n), n)
                assert partial_sum_shifted(m, x).value_exact == want, (m, x)


class TestZornIdentity:
    def test_all_primes(self):
        res = zorn_check(AllPrimes(), 57)
        assert (res.lhs, res.rhs, res.equal) == (1, 1, True)

    def test_two_three(self):
        res = zorn_check(FinitePrimes((2, 3)), 10)
        assert (res.lhs, res.rhs, res.equal) == (3, 3, True)

    def test_empty_set(self):
        res = zorn_check(FinitePrimes(()), 7)
        assert (res.lhs, res.rhs, res.equal) == (7, 7, True)

    def test_sides_match_their_own_routes(self):
        # one membership pass feeds both sides; each must still equal the
        # count or sum taken on its own
        specs = [AllPrimes(), FinitePrimes((3, 7)), IntervalPrimes(10, 400),
                 LogFracPrimes(5.0, 0.1, 0.3)]
        for spec in specs:
            for x in (1, 2, 997, 5000):
                res = zorn_check(spec, x)
                assert res.lhs == count_members_outside(spec, x), (spec, x)
                assert res.rhs == sum(mu * (x // n) for n, mu in squarefree_terms(spec, x))
                assert res.equal

    def test_random_specs(self):
        rng = random.Random(11)
        pool = trial_division_primes(60)
        specs = [AllPrimes(), CofinitePrimes((2,)), ResiduePrimes(1, 3)]
        specs += [FinitePrimes(tuple(rng.sample(pool, k))) for k in range(6)]
        for spec in specs:
            for _ in range(5):
                assert zorn_check(spec, rng.randrange(1, 3000)).equal


class TestEulerProducts:
    def test_empty_product(self):
        assert euler_product(FinitePrimes(())) == 1

    def test_two_three(self):
        assert euler_product(FinitePrimes((2, 3))) == Fraction(1, 3)

    def test_two_three_five(self):
        assert euler_product(FinitePrimes((2, 3, 5))) == Fraction(4, 15)

    def test_infinite_set_rejected(self):
        with pytest.raises(UsageError):
            euler_product(AllPrimes())

    def test_partial_at_one(self):
        assert euler_product_partial(AllPrimes(), 1) == 1.0

    def test_partial_at_three(self):
        assert euler_product_partial(AllPrimes(), 3) == pytest.approx(1 / 3)

    def test_partial_interval_window(self):
        window = [p for p in trial_division_primes(100) if p > 10]
        want = 1.0
        for p in window:
            want *= 1 - 1 / p
        assert euler_product_partial(IntervalPrimes(10.0, 100.0), 100) == pytest.approx(want)

    def test_partial_monotone_in_limit(self):
        values = [euler_product_partial(AllPrimes(), L) for L in (2, 10, 100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestWeightedSum:
    def test_all_zero_weights(self):
        a = WeightFunction({}, default_value=0)
        assert weighted_partial_sum(a, 100).value_exact == 1

    def test_single_prime_support(self):
        a = WeightFunction({2: 1}, default_value=0)
        assert weighted_partial_sum(a, 2).value_exact == Fraction(1, 2)

    def test_all_one_matches_plain_sum(self):
        a = WeightFunction({}, default_value=1)
        assert weighted_partial_sum(a, 4).value_exact == Fraction(1, 6)

    def test_extreme_weights_match_specs(self):
        rng = random.Random(31337)
        pool = trial_division_primes(60)
        for _ in range(20):
            chosen = tuple(rng.sample(pool, rng.randrange(0, 5)))
            x = rng.randrange(1, 1500)
            ones = WeightFunction({p: 1 for p in chosen}, default_value=0)
            assert (
                weighted_partial_sum(ones, x).value_exact
                == partial_sum(FinitePrimes(chosen), x).value_exact
            )
            zeros = WeightFunction({p: 0 for p in chosen}, default_value=1)
            assert (
                weighted_partial_sum(zeros, x).value_exact
                == partial_sum(CofinitePrimes(chosen), x).value_exact
            )

    def test_rational_weights_respect_bound(self):
        rng = random.Random(2718)
        pool = trial_division_primes(50)
        for _ in range(25):
            assignments = {
                p: Fraction(rng.randrange(0, 13), 12)
                for p in rng.sample(pool, rng.randrange(0, 6))
            }
            a = WeightFunction(assignments, default_value=rng.randrange(2))
            report = weighted_partial_sum(a, rng.randrange(1, 1200))
            assert abs(report.value_exact) <= 1

    def test_weight_against_bruteforce(self):
        a = WeightFunction({2: Fraction(1, 2), 5: Fraction(1, 3)}, default_value=1)
        x = 60
        want = Fraction(0)
        for n in range(1, x + 1):
            mu = mobius_bruteforce(n)
            if mu == 0:
                continue
            w = Fraction(1)
            for p in factorize(n):
                if p == 2:
                    w *= Fraction(1, 2)
                elif p == 5:
                    w *= Fraction(1, 3)
            want += Fraction(mu) * w / n
        assert weighted_partial_sum(a, x).value_exact == want

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(DomainError):
            WeightFunction({2: Fraction(3, 2)})
        with pytest.raises(DomainError):
            WeightFunction({2: -1})


def test_format_rational():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-2, 3)) == "-2/3"
    assert format_rational(Fraction(5)) == "5/1"


def test_format_rational_leaves_the_int_str_limit_alone():
    limit = sys.get_int_max_str_digits()
    value = partial_sum(AllPrimes(), 2 * 10**4).value_exact
    num, den = format_rational(value).split("/")
    assert len(den) > limit
    assert (Decimal(num), Decimal(den)) == (value.numerator, value.denominator)
    assert sys.get_int_max_str_digits() == limit


def test_exact_cli_sum_leaves_the_int_str_limit_alone(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["sum", "--set", "all", "--x", "50000", "--mode", "exact", "--format", "json"]
    assert cli.run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["value_exact"]) > limit
    assert sys.get_int_max_str_digits() == limit


def test_report_repr_writes_large_exact_values():
    limit = sys.get_int_max_str_digits()
    report = partial_sum(AllPrimes(), 2 * 10**4)
    text = repr(report)
    assert format_rational(report.value_exact) in text
    assert len(format_rational(report.value_exact)) > limit
    assert text.startswith("SumReport(params='all', x=20000, mode='exact', ")
    assert sys.get_int_max_str_digits() == limit
    assert "value_exact=None" in repr(partial_sum(AllPrimes(), 10, "float"))


def test_format_rational_handles_huge_denominators():
    value = partial_sum(AllPrimes(), 10**4).value_exact
    text = format_rational(value)
    num, den = text.split("/")
    assert Fraction(int(num), int(den)) == value
    assert len(den) > 4000


# format_rational writes an int of up to twice _RENDER_LEAF_BITS directly
# and splits a larger one at half its width, down to leaves of at most
# _RENDER_LEAF_BITS, so the recursion changes shape at the leaf size times
# the powers of 2: every one up to 300,000 bits, with fewer cases above
# 64,000, where the quadratic reference is slow.
_SPLIT_WIDTHS = [sums_module._RENDER_LEAF_BITS << j for j in range(7)]


def _render_cases():
    yield from (0, 1, -1)
    for j, w in enumerate(_SPLIT_WIDTHS):
        k = round(w * math.log10(2))
        if j > 4:
            yield from (10**k - 1, -(1 << w))
            continue
        for n in (10 ** (k - 1), 10**k, 10 ** (k + 1)):
            yield from (n, n - 1)
        for n in (1 << (w - 1), 1 << w, 1 << (w + 1)):
            yield from (n - 1, n, n + 1)
        yield -(10**k)
    rng = random.Random(26)
    for bits in [rng.randrange(1, 300_000) for _ in range(6)] + [300_000]:
        yield rng.choice((-1, 1)) * rng.getrandbits(bits)


def test_format_rational_writes_the_digits_of_decimal():
    for n in _render_cases():
        assert sums_module._decimal_text(n) == str(Decimal(n)), n.bit_length()


def test_format_rational_leaves_the_decimal_context_alone():
    value = partial_sum(AllPrimes(), 2 * 10**4).value_exact
    assert value.denominator.bit_length() > 4 * sums_module._RENDER_LEAF_BITS
    want = f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    context = decimal.getcontext()
    before = (context.prec, context.Emax, context.Emin, context.rounding,
              dict(context.traps), dict(context.flags))
    limit = sys.get_int_max_str_digits()
    assert format_rational(value) == want
    after = (context.prec, context.Emax, context.Emin, context.rounding,
             dict(context.traps), dict(context.flags))
    assert decimal.getcontext() is context and after == before
    assert sys.get_int_max_str_digits() == limit
    # A thread context that would round or trap changes nothing.
    with decimal.localcontext() as narrow:
        narrow.prec = 3
        narrow.traps[decimal.Inexact] = narrow.traps[decimal.Rounded] = True
        assert format_rational(value) == want
        assert format_rational(-value) == "-" + want
        assert not narrow.flags[decimal.Inexact] and not narrow.flags[decimal.Rounded]


def test_coprime_fraction_hook_keeps_the_fraction():
    # The hook skips Fraction's gcd; its result must be the same Fraction.
    # If a Python drops both private hooks, the pick falls back to the gcd
    # and the first assertion names the change.
    hook = sums_module._coprime_fraction
    assert hook is not Fraction
    table, large = smooth_split(AllPrimes(), 10**4)
    num, den, _ = _split_sum(table, large, 10**4)
    for n, d in [(0, 1), (1, 1), (-1, 2), (5, 3), (num, den), (-num, den)]:
        got, want = hook(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_coprime_fraction_hook_falls_back_to_the_gcd(monkeypatch):
    class Plain(Fraction):
        _from_coprime_ints = None

        def __new__(cls, numerator=0, denominator=None):
            return super().__new__(cls, numerator, denominator)

    hook = sums_module._coprime_fraction_hook(Plain)
    assert hook is Plain
    monkeypatch.setattr(sums_module, "_coprime_fraction", hook)
    report = partial_sum(AllPrimes(), 1000)
    assert type(report.value_exact) is Plain
    monkeypatch.undo()
    assert report == partial_sum(AllPrimes(), 1000)


def test_exact_report_floats_are_roundings():
    report = partial_sum(CofinitePrimes((2,)), 999)
    assert report.value_float == float(report.value_exact)
    assert report.float_error_bound == 0.0


# One spec of each of the six forms, with a membership predicate written
# independently of the library (the log-fraction rule has no simpler form).
_LOGFRAC = LogFracPrimes(5.0, 0.2, 0.3)
SPEC_FORMS = [
    (AllPrimes(), lambda p: True),
    (FinitePrimes((2, 3, 7)), lambda p: p in (2, 3, 7)),
    (CofinitePrimes((2, 5)), lambda p: p not in (2, 5)),
    (IntervalPrimes(3.0, 40.0), lambda p: 3 < p <= 40),
    (ResiduePrimes(1, 4), lambda p: p % 4 == 1),
    (_LOGFRAC, lambda p: is_member(_LOGFRAC, p)),
]
TABLE_XS = (0, 1, 2, 3, 4, 8, 9, 24, 25, 1000, 9973)
_ORACLE_X = max(TABLE_XS)
_ORACLE = {}


def _oracle_terms(index, x):
    """The nonzero terms (n, mu) of the index-th spec form up to x, by
    trial division, as a prefix of one oracle run at _ORACLE_X."""
    if index not in _ORACLE:
        members = semigroup_members(SPEC_FORMS[index][1], _ORACLE_X)
        _ORACLE[index] = [(n, mu) for n, mu in members if mu]
    return [(n, mu) for n, mu in _ORACLE[index] if n <= x]


def _check_sums(index, x):
    spec = SPEC_FORMS[index][0]
    terms = _oracle_terms(index, x)
    approx = partial_sum(spec, x, mode="float")
    assert approx.value_float.hex() == math.fsum(mu / n for n, mu in terms).hex(), x
    assert approx.term_count == len(terms), x
    exact = partial_sum(spec, x, mode="exact")
    assert exact.value_exact == sum(Fraction(mu, n) for n, mu in terms), x
    assert exact.term_count == len(terms), x


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
class TestSumsAgainstOracle:
    def test_fixed_bounds(self, index):
        for x in TABLE_XS:
            _check_sums(index, x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=_ORACLE_X))
    def test_random_bounds(self, index, x):
        _check_sums(index, x)

    def test_grid_rows_match_single_points(self, index):
        spec = SPEC_FORMS[index][0]
        grid = [1, 2, 9, 25, 1000, 9973]
        rows = convergence_table(spec, grid)
        assert rows == [convergence_table(spec, [x])[0] for x in grid]
        for row in rows:
            assert row.sum_value == partial_sum(spec, row.x, mode="float").value_float
            assert row.product_value == euler_product_partial(spec, row.x)
        gran = gran_residual(spec, grid)
        assert gran == [gran_residual(spec, [x])[0] for x in grid]
        for row in gran:
            mobius_total = sum(mu for _, mu in enumerate_terms(spec, row.x))
            assert row.count_term == count_members_outside(spec, row.x)
            assert row.mertens_term == (1.0 - EULER_MASCHERONI) * mobius_total


# The exact accumulator (buckets by the part of each denominator outside
# a common one, then a gcd-free tree) against the term-by-term Fraction sum
# it replaced, which survives here only as the oracle.


def _termwise(pairs):
    return sum((Fraction(num, den) for num, den in pairs), Fraction(0))


def _check_exact(report, pairs):
    """An exact report against the oracle sum of its nonzero (num, den)."""
    pairs = [(num, den) for num, den in pairs if num]
    want = _termwise(pairs)
    assert report.value_exact == want
    assert report.value_float == float(want)
    assert report.term_count == len(pairs)
    assert report.bound_ok == (abs(want) <= 1)


# Empty, one and two pairs, and each side of every power of two up to 2**7:
# the lengths at which the stack merges all the way down or keeps an odd
# entry on top.
_STREAM_LENGTHS = sorted({0, 1, 2, 3} | {2**k + d for k in range(2, 8) for d in (-1, 0, 1)})


def _leftover_product(pairs, common):
    """common times the product of the distinct parts b // gcd(b, common):
    the denominator of the accumulator's sum before it is reduced."""
    return common * math.prod({b // math.gcd(b, common) for _, b in pairs})


def _check_lowest_terms(num, den, unreduced):
    assert den > 0 and math.gcd(num, den) == 1
    assert unreduced % den == 0


@pytest.mark.parametrize("length", _STREAM_LENGTHS)
def test_merge_tree_stream_lengths(length):
    rng = random.Random(length)
    pairs = [(rng.choice((-3, -1, 1, 2)), rng.randrange(1, 60)) for _ in range(length)]
    common = 2 * 3 * 5 * 7  # the primes up to isqrt(59)
    num, den, count = _merge_sum(iter(pairs), common, 59)
    assert Fraction(num, den) == _termwise(pairs)
    assert count == length
    # One bucket per leftover part, reduced by the factors it is known to have.
    _check_lowest_terms(num, den, _leftover_product(pairs, common))
    # Zero terms are skipped before the stack and not counted.
    terms = []
    for num, den in pairs:
        terms += [(0, den), (num, den)]
    _check_exact(_report("stream", 2 * length, "exact", iter(terms)), pairs)


# Denominators no exact route makes: prime powers, whose leftover part
# shares primes with a common of squarefree primes, composite leftovers
# (11 * 13, 17**2, 4 * 1009) and a large prime, each drawn many times.
_ODD_DENOMINATORS = (1, 2, 4, 8, 9, 27, 12, 143, 289, 1009, 4 * 1009, 30030, 2**61 - 1)


@pytest.mark.parametrize("common", [1, 2, 6, 30, 4 * 27, 2**10 * 3**5, 30030])
@pytest.mark.parametrize("seed", range(6))
def test_merge_sum_matches_the_fraction_sum(common, seed):
    # The largest x whose primes up to isqrt(x) all divide common.
    q = next(p for p in odd_wheel_sieve(100) if common % p)
    x = q * q - 1
    assert _merge_sum(iter(()), common, x) == (0, 1, 0)
    rng = random.Random(seed)
    for length in (1, 2, 5, 64, 300):
        pairs = [(rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randrange(1, 40)),
                  rng.choice(_ODD_DENOMINATORS)) for _ in range(length)]
        num, den, count = _merge_sum(iter(pairs), common, x)
        assert Fraction(num, den) == _termwise(pairs)
        assert count == length
        _check_lowest_terms(num, den, _leftover_product(pairs, common))


@pytest.mark.parametrize("x", [0, 1, 2, 3, 30, 257, 2000])
def test_merge_tree_coprime_and_shifted(x):
    for P in (1, 6, 35, 2 * 3 * 5 * 7 * 11, 97):
        want = [(mobius_bruteforce(n), n) for n in range(1, x + 1) if math.gcd(n, P) == 1]
        _check_exact(partial_sum_coprime(P, x), want)
    for m in (1, 2, 15, 4, 12, 49):
        want = [(mobius_bruteforce(m * n), n) for n in range(1, x + 1)]
        report = partial_sum_shifted(m, x)
        _check_exact(report, want)
        if mobius_bruteforce(m) == 0:
            assert report.value_exact == Fraction(0)
            assert report.term_count == 0


@pytest.mark.parametrize("N", [1, 2, 12, 30, 210, 2310, 1024, 9240, 510510, 6469693230])
def test_merge_tree_divisors(N):
    for x in (1, 5, 100, min(N, EXACT_CEILING)):
        want = [(mobius_bruteforce(d), d) for d in range(1, min(x, N) + 1) if N % d == 0]
        _check_exact(partial_sum_divisors(N, x), want)


@pytest.mark.parametrize("default", [0, 1])
@pytest.mark.parametrize(
    "assignments",
    [
        {},
        {2: 0, 3: 0},
        {2: Fraction(1, 4), 3: Fraction(5, 8), 7: Fraction(2, 9)},
        {5: Fraction(7, 12), 11: 0, 13: Fraction(1, 27)},
        {2: 1, 3: Fraction(3, 4), 5: 0},
    ],
)
def test_merge_tree_weighted(default, assignments):
    a = WeightFunction(assignments, default_value=default)
    for x in (1, 2, 90, 1500):
        want = []
        for n in range(1, x + 1):
            weight = Fraction(1)
            for p in factorize(n):
                weight *= a.assignments.get(p, Fraction(default))
            want.append((mobius_bruteforce(n) * weight.numerator, n * weight.denominator))
        _check_exact(weighted_partial_sum(a, x), want)


@pytest.mark.parametrize("x", [1, 5, 6, 7, 100, 3000])
def test_merge_tree_semiprime(x):
    want = [(1, n) for n in range(1, x + 1) if mobius_bruteforce(n) == 1]
    _check_exact(semiprime_sum(x), want)


# The cost that the EXACT_CEILING comment states for the term-wise exact
# routes: the table their stream is read from, 1.25 bytes per n, plus one
# bucket per prime in (isqrt(x), x], each a dict entry, the prime and a
# numerator of about 1.44 * isqrt(x) bits, about 140 bytes at the ceiling.
@pytest.mark.parametrize(
    "route",
    [
        lambda x: partial_sum_coprime(30, x),
        lambda x: partial_sum_shifted(6, x),
        lambda x: weighted_partial_sum(WeightFunction({}, default_value=1), x),
    ],
    ids=["coprime", "shifted", "weighted_default_1"],
)
def test_termwise_routes_stay_within_their_stated_memory(route):
    x = EXACT_CEILING
    large = len(odd_wheel_sieve(x)) - len(odd_wheel_sieve(math.isqrt(x)))
    tracemalloc.start()
    try:
        route(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x + 160 * large + 64 * 1024


# Exact partial_sum of an infinite set takes the largest-prime split; the
# term-wise merge over every squarefree member survives here as its
# reference, and the two reports must agree field by field.  The extra sets
# have no member up to sqrt(x) for the x below, or miss one small prime.
_SPLIT_SPECS = [spec for spec, _ in SPEC_FORMS] + [
    CofinitePrimes((2,)),
    IntervalPrimes(150.0, 1e9),
    ResiduePrimes(3, 1000),
]


@lru_cache(maxsize=None)
def _nonzero_below_the_root(spec):
    """Whether S_P(v) != 0, for each v up to isqrt(EXACT_CEILING), summed
    term by term."""
    terms = [Fraction(0)] * (math.isqrt(EXACT_CEILING) + 1)
    for n, mu in squarefree_terms(spec, len(terms) - 1):
        terms[n] = Fraction(mu, n)
    return [bool(value) for value in accumulate(terms)]


def _check_split(spec, x):
    terms = ((mu, n) for n, mu in squarefree_terms(spec, x))
    assert partial_sum(spec, x) == _report(render_spec(spec), x, "exact", terms), (spec, x)
    # The split sums over one denominator, the primorial of isqrt(x), times
    # each prime above it whose term is nonzero.
    table, large = smooth_split(spec, x)
    nonzero = _nonzero_below_the_root(spec)
    unreduced = _primorial(math.isqrt(x)) * math.prod(p for p in large if nonzero[x // p])
    num, den, _ = _split_sum(table, large, x)
    _check_lowest_terms(num, den, unreduced)


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=render_spec)
def test_split_sum_matches_termwise_up_to_400(spec):
    for x in range(401):
        _check_split(spec, x)


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=render_spec)
def test_split_sum_matches_termwise_around_squares(spec):
    # At k**2 the isqrt steps up: k becomes smooth, and x // p reaches k.
    for k in (1, 2, 3, 4, 5, 7, 10, 12, 31, 60, 100):
        for x in (k * k - 1, k * k, k * k + k):
            _check_split(spec, x)


def test_split_sum_matches_termwise_at_the_largest_square():
    k = math.isqrt(EXACT_CEILING)
    for x in (k * k - 1, k * k, EXACT_CEILING):
        _check_split(AllPrimes(), x)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_SPLIT_SPECS), st.integers(min_value=0, max_value=EXACT_CEILING))
def test_split_sum_matches_termwise_at_random_bounds(spec, x):
    _check_split(spec, x)


# Float partial_sum of an infinite set, the convergence and gran grids and
# the Zorn right side read the code table at C speed (fsum over masked
# columns, a two-double prefix between grid points, floor blocks); the
# term-wise routes they replaced survive here as references.


def _termwise_float(spec, x, terms=None):
    """The float report of the term-wise route, from ``terms`` if given."""
    if terms is None:
        terms = squarefree_terms(spec, x)
    return _report(render_spec(spec), x, "float", ((mu, n) for n, mu in terms if n <= x))


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=render_spec)
def test_table_readers_match_termwise_up_to_2000(spec):
    # One table and one term list serve every bound.
    table = member_table(spec, 2000)
    terms = list(squarefree_terms(spec, 2000))
    for x in range(2001):
        want = _termwise_float(spec, x, terms)
        value, count = next(table_fsums(table, (x,)))
        assert (value.hex(), count) == (want.value_float.hex(), want.term_count), x
        assert table_floor_sum(table, x) == sum(mu * (x // n) for n, mu in terms if n <= x), x


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_SPLIT_SPECS), st.integers(min_value=0, max_value=10**5))
def test_table_readers_match_termwise_at_random_bounds(spec, x):
    report, want = partial_sum(spec, x, "float"), _termwise_float(spec, x)
    assert report.value_float.hex() == want.value_float.hex()
    assert report == want
    if x >= 1:
        assert zorn_check(spec, x).rhs == sum(mu * (x // n) for n, mu in squarefree_terms(spec, x))


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=render_spec)
def test_grids_match_one_fsum_per_point(spec):
    rng = random.Random(render_spec(spec))
    terms = list(squarefree_terms(spec, 5000))
    for size in (1, 2, 3, 12):
        grid = sorted(rng.sample(range(1, 5001), size))
        for row in convergence_table(spec, grid):
            assert row.sum_value.hex() == _termwise_float(spec, row.x, terms).value_float.hex()
        # gran keeps the order and the repeats of its grid
        shuffled = grid + rng.choices(grid, k=size)
        rng.shuffle(shuffled)
        rows = gran_residual(spec, shuffled)
        assert rows == [gran_residual(spec, [x])[0] for x in shuffled]
        for row in rows:
            assert row.lhs == row.x * _termwise_float(spec, row.x, terms).value_float


def _sweep_route(instance, mode):
    """The sum a theorem1, mock or weights sweep instance checks, in mode."""
    x = instance["x"]
    if instance["kind"] == "theorem1":
        return partial_sum(parse_spec(instance["set"]), x, mode)
    if instance["kind"] == "weights":
        weights = {int(p): Fraction(v) for p, v in instance["weights"].items()}
        return weighted_partial_sum(WeightFunction(weights, instance["default"]), x, mode)
    route = {"coprime": (partial_sum_coprime, "P"), "divisors": (partial_sum_divisors, "N"),
             "shifted": (partial_sum_shifted, "m")}
    fn, key = route[instance["op"]]
    return fn(instance[key], x, mode)


@pytest.mark.parametrize("kind", ["theorem1", "mock", "weights"])
def test_float_certificate_bounds_the_true_error(kind):
    # The documented certificate 4 * x * ulp(1) against the exact error of
    # the float value, compared as rationals.
    rng = random.Random(f"certificate:{kind}")
    for _ in range(100):
        instance = generate_instance(kind, rng)
        approx = _sweep_route(instance, "float")
        exact = _sweep_route(instance, "exact")
        assert approx.term_count == exact.term_count, instance
        error = abs(Fraction(approx.value_float) - exact.value_exact)
        assert error <= Fraction(approx.float_error_bound), instance



# The verdicts of sweeps.check_instance, forced by patching the sums entry
# point it calls to return its real report with fields replaced.
def _falsify(monkeypatch, name, escape=False, shift=0):
    """Patch sweeps' ``name`` to move its real exact value by ``shift`` and,
    with ``escape``, to put it outside the unit bound."""
    real = getattr(sweeps, name)

    def falsified(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report, value_exact=report.value_exact + shift,
                       bound_ok=report.bound_ok and not escape)

    monkeypatch.setattr(sweeps, name, falsified)


_WEIGHTED = {"kind": "weights", "default": 0, "weights": {"2": "1/2", "3": "1"}, "x": 60}
_EXTREME = {"kind": "weights", "default": 1, "weights": {"2": "0", "3": "1"}, "x": 60}
# name: (instance, the entry point it calls, its bound label, its twin reason)
_VERDICT_CASES = {
    "theorem1-finite": ({"kind": "theorem1", "set": "finite:2,3", "x": 50}, "partial_sum",
                        "partial", None),
    "theorem1-cofinite": ({"kind": "theorem1", "set": "cofinite:5", "x": 50}, "partial_sum",
                          "partial", None),
    "coprime": ({"kind": "mock", "op": "coprime", "P": 6, "x": 50}, "partial_sum_coprime",
                "coprime", "coprime sum disagrees with its semigroup form"),
    "divisors": ({"kind": "mock", "op": "divisors", "N": 12, "x": 50}, "partial_sum_divisors",
                 "divisors", None),
    "shifted": ({"kind": "mock", "op": "shifted", "m": 3, "x": 50}, "partial_sum_shifted",
                "shifted", None),
    "shifted-m1": ({"kind": "mock", "op": "shifted", "m": 1, "x": 50}, "partial_sum_shifted",
                   "shifted", "shift m=1 disagrees with the plain sum"),
    "weights": (_WEIGHTED, "weighted_partial_sum", "weighted", None),
    "extreme-default1": (_EXTREME, "weighted_partial_sum", "weighted",
                         "extreme weights disagree with the plain sum"),
    "extreme-default0": ({**_EXTREME, "default": 0}, "weighted_partial_sum", "weighted",
                         "extreme weights disagree with the plain sum"),
}


@pytest.mark.parametrize("instance,name,label,twin", _VERDICT_CASES.values(),
                         ids=_VERDICT_CASES)
class TestSweepVerdicts:
    def test_bound_reason(self, monkeypatch, instance, name, label, twin):
        assert check_instance(instance) is None
        _falsify(monkeypatch, name, escape=True)
        reason = f"{label} sum escaped the unit bound"
        assert check_instance(instance) == {**instance, "reason": reason}

    def test_twin_reason(self, monkeypatch, instance, name, label, twin):
        # A sum without a twin is checked against the bound alone.
        _falsify(monkeypatch, name, shift=Fraction(1, 7))
        assert check_instance(instance) == (twin and {**instance, "reason": twin})

    def test_bound_before_twin(self, monkeypatch, instance, name, label, twin):
        _falsify(monkeypatch, name, escape=True, shift=Fraction(1, 7))
        reason = f"{label} sum escaped the unit bound"
        assert check_instance(instance) == {**instance, "reason": reason}


def test_sweep_verdict_zorn_split(monkeypatch):
    instance = {"kind": "zorn", "set": "residue:1 mod 4", "x": 100}
    real = zorn_check(parse_spec(instance["set"]), 100)
    assert check_instance(instance) is None
    monkeypatch.setattr(sweeps, "zorn_check", lambda spec, x: replace(
        zorn_check(spec, x), lhs=real.lhs + 1, equal=False))
    reason = f"counting identity split: lhs={real.lhs + 1} rhs={real.rhs}"
    assert check_instance(instance) == {**instance, "reason": reason}


def test_sweep_verdict_unknown_kind_reads_no_other_field():
    with pytest.raises(UsageError, match="unknown sweep kind 'nope'"):
        check_instance({"kind": "nope"})
