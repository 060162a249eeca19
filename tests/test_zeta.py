import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from musum import zeta
from musum.errors import DomainError
from musum.primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
)
from musum.primes import _mp_context, is_member, primes_in, render_spec
from musum.sums import euler_product_partial
from musum.zeta import (
    ScanRow,
    blowup_scan,
    gs_constant,
    gs_integrand,
    log_identity_residual,
    pathological_set,
    simpson_integral,
    zeta_p,
)
from musum.zeta import (
    _DOUBLE_BAND_BITS,
    _DOUBLE_T_MAX,
    _DOUBLE_T_MIN,
    _LOG_TOP_BITS,
    _LOG_TOP_LOW,
    _PHASE_BAND_BITS,
    _PHASE_FRAC_BITS,
    _double_phases,
    _fixed_log,
    _fixed_phases,
    _fixed_point_constants,
    _reduced_phases,
    _reference_phases,
)

from oracles import basel_sum_oracle, odd_wheel_sieve, trial_division_primes


class TestZetaEvaluation:
    def test_empty_product(self):
        result = zeta_p(FinitePrimes(()), 3 + 1j, 100)
        assert result.value == 1 + 0j
        assert result.log_tail_bound == 0.0

    def test_single_factor_at_two(self):
        result = zeta_p(FinitePrimes((2,)), 2.0, 10)
        assert result.value.real == pytest.approx(4 / 3, abs=1e-15)
        assert result.value.imag == 0.0
        assert result.log_tail_bound == 0.0

    def test_basel_value_within_tail_bound(self):
        result = zeta_p(AllPrimes(), 2.0, 10**5)
        oracle = basel_sum_oracle(10**6)
        assert abs(math.log(abs(result.value)) - math.log(oracle)) <= result.log_tail_bound

    def test_boundary_rejected(self):
        for s in (1.0, 1.0 + 5j, 0.5, 0.99 + 1j):
            with pytest.raises(DomainError):
                zeta_p(AllPrimes(), s, 100)

    def test_finite_exact_rational_cross_check(self):
        # At integer s the truncated product over a finite set is a rational
        # number; the float evaluation must sit within 10 ulp of it.
        for primes in ((2,), (2, 3), (3, 5, 11), (2, 7, 13, 19)):
            for s in (2, 3, 4):
                exact = Fraction(1)
                for p in primes:
                    exact /= 1 - Fraction(1, p**s)
                got = zeta_p(FinitePrimes(primes), float(s), 100).value
                assert got.imag == 0.0
                assert abs(got.real - float(exact)) <= 10 * math.ulp(float(exact))

    def test_nested_truncations_differ_by_tail_bound(self):
        for spec in (AllPrimes(), CofinitePrimes((2, 5))):
            for s in (1.5, 2.0 + 1j, 3.0 - 2j):
                small = zeta_p(spec, s, 10**3)
                large = zeta_p(spec, s, 10**5)
                gap = abs(math.log(abs(large.value)) - math.log(abs(small.value)))
                assert gap <= small.log_tail_bound

    def test_large_imaginary_part_keeps_phase(self):
        # At t = 1e9 a double-precision product of t * ln p carries only
        # ~1e-7 of absolute phase accuracy; the extended-precision reduction
        # must agree with mpmath to ~1e-12.
        t = 1e9
        got = zeta_p(FinitePrimes((2,)), 2.0 + t * 1j, 10).value
        with mpmath.mp.workprec(120):
            z = mpmath.power(2, -(2.0 + t * 1j))
            want = complex(1 / (1 - z))
        assert got == pytest.approx(want, abs=1e-12)


def _complex_loop(members: list[int], s: complex) -> complex:
    """The product as zeta_p took it on the real axis before the real
    reduce: one complex exp and one complex division per member, at the
    phases _reduced_phases gives for Im(s)."""
    value = complex(1.0, 0.0)
    for p, phase in zip(members, _reduced_phases(members, s.imag)[0]):
        value /= 1.0 - p ** -s.real * cmath.exp(-1j * phase)
    return value


# One set of each form, as in test_semigroup's SPEC_FORMS, and an empty
# finite set.
_REAL_AXIS_SETS = [
    AllPrimes(),
    FinitePrimes((2, 3, 7)),
    FinitePrimes(()),
    CofinitePrimes((2, 5)),
    IntervalPrimes(3.0, 40.0),
    ResiduePrimes(1, 4),
    LogFracPrimes(5.0, 0.2, 0.3),
]


class TestRealAxisProduct:
    @pytest.mark.parametrize("spec", _REAL_AXIS_SETS, ids=render_spec)
    def test_bits_match_the_complex_loop(self, spec):
        # sigma = 1100 takes every p**-sigma to 0.0.
        assert 2.0**-1100.0 == 0.0
        for limit in (1, 2, 1000, 10**5):
            members = primes_in(spec, limit)
            for sigma in (1.0 + 2.0**-40, 1.05, 2.0, 50.0, 1100.0):
                for imag in (0.0, -0.0):
                    s = complex(sigma, imag)
                    if limit < 2:
                        with pytest.raises(DomainError):
                            zeta_p(spec, s, limit)
                        continue
                    got = zeta_p(spec, s, limit).value
                    want = _complex_loop(members, s)
                    assert (got.real.hex(), got.imag.hex()) == (
                        want.real.hex(), want.imag.hex()), (limit, s)


class TestLogIdentityResidual:
    def test_empty_set(self):
        assert log_identity_residual(FinitePrimes(()), 2.0, 100) == 0.0

    def test_single_prime_closed_form(self):
        got = log_identity_residual(FinitePrimes((2,)), 2.0, 100)
        assert got == pytest.approx(-math.log(3 / 4) - 0.25, abs=1e-15)
        assert got == pytest.approx(0.0376820724517809, abs=1e-12)

    def test_all_primes_at_low_exponent(self):
        value = log_identity_residual(AllPrimes(), 1.5, 10**5)
        assert 0.0 <= value <= 0.6449

    def test_envelope_grid(self):
        specs = [AllPrimes(), CofinitePrimes((2,)), FinitePrimes((2, 3, 5, 7))]
        for spec in specs:
            for sigma in (1.25, 1.5, 2.0, 3.0):
                limit = 10**4
                residual = log_identity_residual(spec, sigma, limit)
                from musum.primes import primes_in

                envelope = math.fsum(p ** (-2 * sigma) for p in primes_in(spec, limit))
                assert 0.0 <= residual <= envelope

    def test_matches_direct_log_of_product(self):
        spec = CofinitePrimes((3,))
        sigma, limit = 1.7, 2000
        residual = log_identity_residual(spec, sigma, limit)
        from musum.primes import primes_in

        direct = math.log(abs(zeta_p(spec, sigma, limit).value)) - math.fsum(
            p**-sigma for p in primes_in(spec, limit)
        )
        assert residual == pytest.approx(direct, abs=1e-9)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            log_identity_residual(AllPrimes(), 1.0, 100)

    @pytest.mark.parametrize("limit", [10**3, 10**5])
    @pytest.mark.parametrize("spec", _REAL_AXIS_SETS, ids=render_spec)
    def test_streamed_members_keep_the_bits_of_the_listed_ones(self, spec, limit):
        # The residual and the truncated Euler product iterate the members
        # and take p ** -sigma once per prime; the expressions they replace
        # listed the members first and took the power twice.  The members
        # here are listed by the oracle sieve and decided one at a time.
        members = [p for p in odd_wheel_sieve(limit) if is_member(spec, p)]
        product = 1.0
        for p in members:
            product *= 1.0 - 1.0 / p
        assert euler_product_partial(spec, limit).hex() == product.hex()
        for sigma in (1.05, 1.5, 2.0):
            listed = math.fsum(-math.log1p(-(p ** -sigma)) - p ** -sigma for p in members)
            assert log_identity_residual(spec, sigma, limit).hex() == listed.hex(), sigma


class TestPathologicalFamilies:
    def test_constructor(self):
        assert pathological_set(1.0, 0.1, 0.0) == LogFracPrimes(1.0, 0.1, 0.0)
        assert pathological_set(1.0, 0.1, 0.5) == LogFracPrimes(1.0, 0.1, 0.5)

    def test_width_saturates(self):
        spec = pathological_set(1.0, 0.5, 0.0)
        from musum.primes import is_member

        assert all(is_member(spec, p) for p in trial_division_primes(500))

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            pathological_set(0.0, 0.1, 0.0)

    def test_scan_trend_small_truncation(self):
        eps = [0.5, 0.2, 0.1, 0.05]
        up = [row.modulus for row in blowup_scan(1.0, 0.0, eps, prime_limit=10**4)]
        down = [row.modulus for row in blowup_scan(1.0, 0.5, eps, prime_limit=10**4)]
        assert all(a < b for a, b in zip(up, up[1:]))
        assert all(a > b for a, b in zip(down, down[1:]))

    def test_scan_finite_at_any_truncation(self):
        for limit in (100, 10**4):
            rows = blowup_scan(1.0, 0.0, [0.5], prime_limit=limit)
            assert len(rows) == 1
            assert math.isfinite(rows[0].modulus)

    def test_scan_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            blowup_scan(1.0, 0.0, [])
        with pytest.raises(DomainError):
            blowup_scan(1.0, 0.0, [0.1, 0.5])
        with pytest.raises(DomainError):
            blowup_scan(1.0, 0.0, [0.5, -0.1])

    @pytest.mark.parametrize("eps", [[1e-17], [1e-320], [5e-324], [2.0**-53], [0.5, 1e-17]])
    def test_scan_rejects_eps_lost_in_one_plus_eps(self, eps):
        # 1 + eps == 1.0 would evaluate at Re(s) = 1, where no bound holds
        with pytest.raises(DomainError, match="1 \\+ eps"):
            blowup_scan(1.0, 0.0, eps, prime_limit=100)

    def test_scan_accepts_the_smallest_eps_that_moves_one(self):
        (row,) = blowup_scan(1.0, 0.0, [2.0**-52], prime_limit=100)
        assert math.isfinite(row.modulus) and math.isfinite(row.log_tail_bound)

    @pytest.mark.parametrize(
        "t, shift, eps, width",
        [(1.0, 0.0, [0.5, 0.2, 0.05], 0.1), (2.5, 0.5, [0.3, 0.1], 0.2),
         (-3.0, 0.25, [1.0, 0.01], 0.5)],
    )
    def test_scan_rows_are_zeta_evaluations(self, t, shift, eps, width):
        limit = 3000
        spec = pathological_set(t, width, shift)
        for row in blowup_scan(t, shift, eps, prime_limit=limit, width=width):
            single = zeta_p(spec, complex(1.0 + row.eps, t), limit)
            assert row.value == single.value
            assert row.modulus == abs(single.value)
            assert row.log_tail_bound == single.log_tail_bound


class TestPhaseReduction:
    """The fixed-point phases with their reference fallback give the bits of
    the mpmath reference for every member."""

    _PRIMES = primes_in(AllPrimes(), 10**5)

    # Fallbacks over these primes with the 9-bit table at 128 bits; the
    # tighter band of today's may not send more phases to the reference.
    _EARLIER_FALLBACKS = {1e6: 815, -1e6: 843}

    @pytest.mark.parametrize("t", [-7.3, 29.9, 1e-5, 1e6, -1e6, 1e10])
    def test_bits_match_the_reference(self, t):
        phases, fallbacks = _reduced_phases(self._PRIMES, t)
        want = _reference_phases(self._PRIMES, t)
        assert [x.hex() for x in phases] == [x.hex() for x in want]
        if t in self._EARLIER_FALLBACKS:
            assert fallbacks <= self._EARLIER_FALLBACKS[t]
        if t == 1e10:
            # the band is about 2**-57 wide here, so some phases need the
            # reference
            assert fallbacks > 0

    @pytest.mark.parametrize(
        "t", [1e-300, -1e-300, 1e-20, -1e-20, -1e-25, 1e-10, 1e-8, 1e-6])
    def test_small_scales_match_the_reference(self, t):
        # For 0 < t*ln p < 2*pi nothing is reduced, so the band is relative
        # to the phase; for -2*pi < t*ln p < 0 the phase is 2*pi - |t*ln p|,
        # which cannot wrap to 0.  Either way few phases need the reference.
        phases, fallbacks = _reduced_phases(self._PRIMES, t)
        want = _reference_phases(self._PRIMES, t)
        assert [x.hex() for x in phases] == [x.hex() for x in want]
        assert fallbacks < len(self._PRIMES) / 100

    @pytest.mark.parametrize("t", [-7868766964.350387, 7868766964.350387])
    def test_phases_within_the_band_of_a_wrap_take_the_reference(self, t):
        # A continued-fraction convergent of ln(1390) / (2*pi) puts
        # |t| * ln(1390) within 2**-63 of a multiple of 2*pi, inside the
        # band, and the reference reduces it past the wrap: to just above 0
        # for t < 0, where the fixed-point phase lies just below 2*pi, and
        # to 2*pi rounded for t > 0.
        want = _reference_phases([1390], t)
        assert (want[0] < 1e-18) == (t < 0)
        assert _reduced_phases([1390], t) == (want, 1)

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_subnormal_scales_take_the_reference(self, t):
        # Every phase lies below the band, so all come from the reference,
        # which alone rounds subnormal values as mpmath does.
        phases, fallbacks = _reduced_phases(self._PRIMES, t)
        assert fallbacks == len(self._PRIMES)
        assert phases[0] == _reference_phases([2], t)[0]

    def test_bits_match_the_reference_up_to_one_million(self):
        members = primes_in(AllPrimes(), 10**6)
        phases, _ = _reduced_phases(members, 1.0)
        want = _reference_phases(members, 1.0)
        assert [x.hex() for x in phases] == [x.hex() for x in want]

    def test_reference_routes_leave_the_global_precision_alone(self, monkeypatch):
        # Any assignment to mpmath.mp.prec (mp.workprec makes one) raises;
        # a private context sets its own as usual, here built afresh.
        prec = type(mpmath.mp).prec

        def set_prec(ctx, value):
            if ctx is mpmath.mp:
                raise AssertionError(f"a library call set mpmath.mp.prec to {value}")
            prec.fset(ctx, value)

        monkeypatch.setattr(type(mpmath.mp), "prec", property(prec.fget, set_prec))
        _mp_context.cache_clear()
        spec = LogFracPrimes(5.0, 0.2, 0.3)
        small = primes_in(AllPrimes(), 500)
        assert [p for p in small if is_member(spec, p)] == primes_in(spec, 500)
        assert _reduced_phases(small, 1e-310)[1] == len(small)
        assert _reference_phases([2], 1.0)[0] == math.log(2)

    def test_no_public_call_reduces_phases_at_zero_scale(self, monkeypatch):
        # zeta_p takes the real-axis product at Im(s) = +-0.0, and blowup_scan
        # refuses t = 0 through LogFracPrimes, before any phase is reduced.
        def refuse(members, t):
            raise AssertionError(f"_reduced_phases called at t = {t!r}")

        monkeypatch.setattr(zeta, "_reduced_phases", refuse)
        for im in (0.0, -0.0):
            value = zeta_p(AllPrimes(), complex(2.0, im), 1000).value
            assert value.imag == 0.0 and 1.6 < value.real < 1.65
        with pytest.raises(DomainError, match="nonzero"):
            blowup_scan(0.0, 0.0, [0.5, 0.2], prime_limit=100)

    def test_series_constants_match_mpmath(self):
        # Each constant is its value rounded to _PHASE_FRAC_BITS fractional
        # bits, give or take the series' own error.
        ln2s, two_pi, log_top = _fixed_point_constants()
        assert (len(ln2s), len(log_top)) == (64, _LOG_TOP_LOW)
        with mpmath.mp.workprec(200):
            one = mpmath.mpf(2) ** _PHASE_FRAC_BITS
            tolerance = 0.5 + mpmath.mpf(2) ** -16
            assert abs(two_pi - 2 * mpmath.pi * one) < tolerance
            for k, ln in enumerate(ln2s):
                assert abs(ln - k * mpmath.log(2) * one) < tolerance, k
            for top, ln in enumerate(log_top, _LOG_TOP_LOW):
                assert abs(ln - mpmath.log(top) * one) < tolerance, top

    def test_fixed_log_matches_mpmath(self):
        # Every p up to the table's bit length, and 2**k - 1, 2**k and
        # 2**k + 1 and the first and last few tops times 2**s, with a
        # neighbour each side, where the series' z is 0 or largest.
        samples = set(range(2, 1 << _LOG_TOP_BITS))
        for k in range(1, 64):
            samples |= {2**k - 1, 2**k, 2**k + 1}
        tops = [*range(_LOG_TOP_LOW, _LOG_TOP_LOW + 4), *range(2 * _LOG_TOP_LOW - 4, 2 * _LOG_TOP_LOW)]
        for s in range(1, 12):
            samples |= {(top << s) + d for top in tops for d in (-1, 0, 1)}
        ln2s, _, log_top = _fixed_point_constants()
        with mpmath.mp.workprec(200):
            one = mpmath.mpf(2) ** _PHASE_FRAC_BITS
            for p in sorted(x for x in samples if 2 <= x < 2**64):
                error = _fixed_log(p, ln2s, log_top) - mpmath.log(p) * one
                assert abs(error) < 6, p

    def test_band_holds_the_error_budget(self):
        # With the bounds the two tests above check, in units u =
        # 2**-_PHASE_FRAC_BITS (6u for the log, about u/2 for 2*pi), |t| at
        # most |t*ln p| / ln 2 and at most |t*ln p| / (2*pi) + 1 periods
        # taken off put the fast phase within (1 + |t*ln p|) * 2**-92; the
        # reference adds 2**-93.
        u = 2.0**-_PHASE_FRAC_BITS
        half = 0.5 + 2.0**-16
        fast = max(6 / math.log(2) + half / (2 * math.pi), half) * u
        assert fast <= 2.0**-92
        assert 2.0**-92 + 2.0**-93 <= 2.0**-_PHASE_BAND_BITS


def _fixed_point_only(members, t):
    """The phases as stages 2 and 3 alone give them, with no double stage,
    and the number of reference calls."""
    phases = [0.0] * len(members)
    doubtful = _fixed_phases(enumerate(members), t, phases)
    for i, phase in zip(doubtful, _reference_phases([members[i] for i in doubtful], t)):
        phases[i] = phase
    return phases, len(doubtful)


def _group_edges():
    """Every p below 2**_LOG_TOP_BITS, and for each shift up to 52 the first
    and last two members of the groups of the first and last two tops."""
    samples = set(range(2, 1 << _LOG_TOP_BITS))
    tops = (_LOG_TOP_LOW, _LOG_TOP_LOW + 1, 2 * _LOG_TOP_LOW - 2, 2 * _LOG_TOP_LOW - 1)
    for shift in range(1, 53):
        for top in tops:
            base = top << shift
            samples |= {base, base + 1, base + (1 << shift) - 2, base + (1 << shift) - 1}
    return sorted(samples)


class TestDoubleStage:
    """Stage 1 decides phases in doubles and passes the rest to the fixed
    point: with it, every phase keeps the bits of stages 2 and 3 alone."""

    _PRIMES = primes_in(AllPrimes(), 10**6)

    @pytest.mark.parametrize("t", [
        1.0, -3.1, 6.6667, 29.9, -29.9,
        _DOUBLE_T_MIN, -_DOUBLE_T_MIN, _DOUBLE_T_MAX, -_DOUBLE_T_MAX,
        math.nextafter(_DOUBLE_T_MAX, math.inf), -math.nextafter(_DOUBLE_T_MIN, 0.0),
    ])
    def test_bits_match_the_fixed_point_up_to_one_million(self, t):
        phases, fallbacks = _reduced_phases(self._PRIMES, t)
        want, want_fallbacks = _fixed_point_only(self._PRIMES, t)
        assert [x.hex() for x in phases] == [x.hex() for x in want]
        assert fallbacks <= want_fallbacks

    @pytest.mark.parametrize("t", [1.0, -29.9, 0.37, _DOUBLE_T_MAX, -_DOUBLE_T_MIN])
    def test_group_edges_match_the_reference(self, t):
        members = _group_edges()
        phases, fallbacks = _reduced_phases(members, t)
        assert [x.hex() for x in phases] == [x.hex() for x in _reference_phases(members, t)]
        assert fallbacks <= _fixed_point_only(members, t)[1]
        # stage 1 decides a good share of them, so the edges test it
        assert len(_double_phases(members, t)[1]) < 3 / 4 * len(members)

    @pytest.mark.parametrize("top", [_LOG_TOP_LOW, 1031, 2 * _LOG_TOP_LOW - 1])
    def test_one_top_at_every_shift_matches_the_reference(self, top):
        # Consecutive members with one top and successive shifts lie in
        # different groups, each with its own offset.
        members = [(top << shift) + d for shift in range(1, 53) for d in (1, (1 << shift) - 1)]
        phases, _ = _reduced_phases(members, 1.0)
        assert [x.hex() for x in phases] == [x.hex() for x in _reference_phases(members, 1.0)]
        assert len(_double_phases(members, 1.0)[1]) < len(members) / 2

    @pytest.mark.parametrize("t, share", [(1.0, 0.95), (29.9, 0.7)])
    def test_stage_one_decides_most_phases(self, t, share):
        undecided = _double_phases(self._PRIMES, t)[1]
        assert len(undecided) <= (1 - share) * len(self._PRIMES)

    @pytest.mark.parametrize("t", [math.nextafter(_DOUBLE_T_MAX, math.inf), 1e6, -1e-5, 1e-300])
    def test_stage_one_is_off_outside_its_range(self, t, monkeypatch):
        def unreachable(members, t):
            raise AssertionError("stage 1 ran outside its range")

        monkeypatch.setattr(zeta, "_double_phases", unreachable)
        assert _reduced_phases([2, 3, 5], t) == _fixed_point_only([2, 3, 5], t)

    def test_series_within_its_budget(self):
        # S = ln(p / base) from u = 2*(p - base) / (p + base) as stage 1
        # evaluates it, within 2**-52 * S, at the largest u of each shift.
        with mpmath.mp.workprec(200):
            for shift in range(1, 53):
                for top in (_LOG_TOP_LOW, 2 * _LOG_TOP_LOW - 1):
                    base = top << shift
                    for a in (1, (1 << shift) - 1):
                        u = (a + a) / (2 * base + a)
                        uu = u * u
                        s = u + u * uu * (1 / 12 + uu / 80)
                        exact = mpmath.log(mpmath.mpf(base + a) / base)
                        assert abs(s - exact) <= 2.0**-52 * exact, (top, shift, a)

    def test_double_band_holds_the_error_budget(self):
        # The terms derived beside _DOUBLE_BAND_BITS at both ends of stage
        # 1's range; a band 2**4 narrower fails here.
        for big_t in (_DOUBLE_T_MIN, _DOUBLE_T_MAX):
            series = big_t * 2.0**-62  # S within 2**-52 * S, and S < 2**-10
            product = big_t * 2.0**-63
            split = 2.0**-96 + 2.0**-104
            sums = 2 * (big_t * 2.0**-63 + 2.0**-104)
            fixed = (1 + big_t * 64 * math.log(2)) * (2.0**-92 + 2.0**-93)
            budget = series + product + split + sums + fixed
            assert budget <= (1 + big_t) * 2.0**-60 * 5 / 8
            assert budget <= (1 + big_t) * 2.0**-_DOUBLE_BAND_BITS
        # The range: above its top the band is wider than the ulp of phases
        # in [1, 2); below its bottom every phase of t > 0 is below 2**-6.
        assert 2 * (1 + _DOUBLE_T_MAX) * 2.0**-_DOUBLE_BAND_BITS <= 2.0**-52
        assert 2 * (1 + 2 * _DOUBLE_T_MAX) * 2.0**-_DOUBLE_BAND_BITS > 2.0**-52
        assert _DOUBLE_T_MIN * 64 * math.log(2) < 2.0**-6


_NONFINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteArguments:
    """A nan or infinite real argument is a domain error, not a nan result."""

    @pytest.mark.parametrize("bad", _NONFINITE)
    def test_zeta_imaginary_part(self, bad):
        with pytest.raises(DomainError):
            zeta_p(AllPrimes(), complex(2.0, bad), 100)

    @pytest.mark.parametrize("bad", _NONFINITE)
    def test_zeta_real_part(self, bad):
        with pytest.raises(DomainError):
            zeta_p(AllPrimes(), complex(bad, 0.0), 100)

    @pytest.mark.parametrize("bad", _NONFINITE)
    def test_log_residual_sigma(self, bad):
        with pytest.raises(DomainError):
            log_identity_residual(AllPrimes(), bad, 100)

    @pytest.mark.parametrize("bad", _NONFINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_scan_eps(self, bad, position):
        eps = [0.5, 0.2]
        eps[position] = bad
        with pytest.raises(DomainError, match="finite"):
            blowup_scan(1.0, 0.0, eps, prime_limit=100)


class TestGsConstant:
    def test_integrand_vanishes_at_one(self):
        assert gs_integrand(1.0) == 0.0

    def test_value_matches_dilogarithm_oracle(self):
        # Closed form for the integral: ln(a)ln(1+a) + Li2(-a) - Li2(-1)
        # at a = sqrt(e).
        with mpmath.mp.workprec(120):
            a = mpmath.sqrt(mpmath.e)
            integral = (
                mpmath.log(a) * mpmath.log(1 + a)
                + mpmath.polylog(2, -a)
                - mpmath.polylog(2, -1)
            )
            want = float((1 - 2 * mpmath.log(1 + a) + 4 * integral) * mpmath.log(2))
        assert gs_constant() == pytest.approx(want, abs=1e-9)

    def test_leading_digits(self):
        # The expansion begins -0.4553 (truncation, not rounding).
        value = gs_constant()
        assert math.floor(abs(value) * 10**4) == 4553

    def test_panel_count_agreement(self):
        one = simpson_integral(gs_integrand, 1.0, math.exp(0.5), tol=1e-10, panels=1)
        many = simpson_integral(gs_integrand, 1.0, math.exp(0.5), tol=1e-10, panels=1024)
        assert one == pytest.approx(many, abs=1e-6)

    def test_quadrature_on_known_integral(self):
        assert simpson_integral(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(
            2.0, abs=1e-10
        )
