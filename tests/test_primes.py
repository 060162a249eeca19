import bisect
import functools
import math
import tracemalloc
from itertools import compress

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musum.errors import DomainError, ResourceError, SpecParseError
from musum.primes import (
    MAX_SIEVE_LIMIT,
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
    is_member,
    is_prime,
    member_flags,
    member_primes,
    parse_spec,
    primes_in,
    render_spec,
    sieve_primes,
)
from musum import primes as primes_module
from musum.primes import _MEMBER, _PRIME, _coded_primes, _logfrac_marks, _member_marks, _prime_flags
from musum.semigroup import _GENERATOR, code_tables, count_members, enumerate_terms, member_table
from musum.semigroup import smooth_split
from musum.sums import partial_sum

from oracles import odd_wheel_sieve, plain_sieve_flags, trial_division_primes


class TestSievePrimes:
    def test_flags_match_the_plain_sieve_across_chunk_edges(self, monkeypatch):
        # Chunks of 1 to 3 cut every run of multiples into many; 10**6 also
        # runs at the real chunk.
        for limit in range(2001):
            monkeypatch.setattr(primes_module, "_CHUNK", 1 + limit % 3)
            assert _prime_flags(limit) == plain_sieve_flags(limit), limit
        want = plain_sieve_flags(10**6)
        assert _prime_flags(10**6) == want
        monkeypatch.setattr(primes_module, "_CHUNK", 3)
        assert _prime_flags(10**6) == want

    def test_flags_take_one_allocation(self):
        limit = 10**6
        tracemalloc.start()
        try:
            _prime_flags(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * limit

    def test_no_primes_below_two(self):
        assert sieve_primes(1).primes == ()
        assert sieve_primes(0).primes == ()

    def test_textbook_primes(self):
        assert sieve_primes(10).primes == (2, 3, 5, 7)

    def test_against_trial_division(self):
        assert list(sieve_primes(10**4).primes) == trial_division_primes(10**4)

    def test_count_at_one_million_against_second_sieve(self):
        table = sieve_primes(10**6)
        assert len(table.primes) == 78498
        assert list(table.primes) == odd_wheel_sieve(10**6)

    def test_ceiling(self):
        with pytest.raises(ResourceError):
            sieve_primes(10**8 + 1)

    def test_negative_limit(self):
        with pytest.raises(DomainError):
            sieve_primes(-1)


# Every sieve and table entry point, each called far enough to reach its
# bound check.
_GUARDED = {
    "sieve_primes": sieve_primes,
    "member_flags": lambda x: member_flags(AllPrimes(), x),
    "member_primes": lambda x: member_primes(FinitePrimes((2, 3)), x),
    "member_table": lambda x: member_table(ResiduePrimes(1, 4), x),
    "code_tables": lambda x: next(code_tables(ResiduePrimes(1, 4), x)),
    "smooth_split": lambda x: smooth_split(AllPrimes(), x),
    "enumerate_terms": lambda x: enumerate_terms(AllPrimes(), x),
    "count_members": lambda x: count_members(CofinitePrimes((2,)), x),
    "float partial_sum": lambda x: partial_sum(AllPrimes(), x, mode="float"),
}


class TestOneCeilingGuard:
    """Every sieve and table answers a bound below 0 or above the ceiling
    with the error of the one check, check_limit, before it sieves."""

    @pytest.mark.parametrize("x", [-1, MAX_SIEVE_LIMIT + 1])
    @pytest.mark.parametrize("name", list(_GUARDED))
    def test_refused_before_the_sieve(self, monkeypatch, name, x):
        def refuse(limit):
            raise AssertionError(f"sieved up to {limit} before the bound check")

        monkeypatch.setattr(primes_module, "_prime_flags", refuse)
        with pytest.raises((DomainError, ResourceError)) as want:
            primes_module.check_limit(x)
        with pytest.raises(want.type) as got:
            _GUARDED[name](x)
        if name != "float partial_sum" or x >= 0:  # its own x >= 0 check answers first
            assert str(got.value) == str(want.value)

    def test_the_ceiling_itself_is_allowed(self):
        primes_module.check_limit(MAX_SIEVE_LIMIT)
        assert list(member_primes(FinitePrimes((2, 3)), MAX_SIEVE_LIMIT)) == [2, 3]


class TestMembership:
    def test_finite(self):
        assert not is_member(FinitePrimes((2, 3)), 5)
        assert is_member(FinitePrimes((2, 3)), 3)

    def test_cofinite_excludes_its_list(self):
        assert not is_member(CofinitePrimes((7,)), 7)
        assert is_member(CofinitePrimes((7,)), 11)

    def test_logfrac_at_two(self):
        # t*ln(2)/(2*pi) = 0.110318... whose distance to the nearest integer
        # exceeds 0.1, so 2 is not a member.
        spec = LogFracPrimes(1.0, 0.1, 0.0)
        assert not is_member(spec, 2)

    def test_logfrac_width_half_accepts_everything(self):
        spec = LogFracPrimes(1.0, 0.5, 0.0)
        assert all(is_member(spec, p) for p in sieve_primes(200).primes)

    def test_interval_is_half_open(self):
        spec = IntervalPrimes(5.0, 11.0)
        assert not is_member(spec, 5)
        assert is_member(spec, 7)
        assert is_member(spec, 11)

    def test_residue(self):
        spec = ResiduePrimes(1, 4)
        assert is_member(spec, 5)
        assert not is_member(spec, 7)

    def test_nonprime_argument_rejected(self):
        with pytest.raises(DomainError):
            is_member(AllPrimes(), 4)

    def test_composite_in_finite_list_rejected(self):
        with pytest.raises(DomainError):
            FinitePrimes((4,))


class TestPrimesIn:
    def test_all(self):
        assert primes_in(AllPrimes(), 10) == [2, 3, 5, 7]

    def test_residue_one_mod_four(self):
        assert primes_in(ResiduePrimes(1, 4), 30) == [5, 13, 17, 29]

    def test_interval_ten_to_hundred(self):
        window = primes_in(IntervalPrimes(10.0, 100.0), 100)
        assert len(window) == 21
        assert window[0] == 11 and window[-1] == 97

    @pytest.mark.parametrize(
        "spec",
        [
            AllPrimes(),
            FinitePrimes((2, 5, 11)),
            CofinitePrimes((3, 7)),
            IntervalPrimes(4.5, 60.0),
            ResiduePrimes(3, 4),
            LogFracPrimes(2.0, 0.2, 0.25),
        ],
    )
    def test_filter_agrees_with_pointwise_membership(self, spec):
        limit = 120
        members = primes_in(spec, limit)
        for p in sieve_primes(limit).primes:
            assert (p in members) == is_member(spec, p)

    def test_empty_cofinite_equals_all(self):
        assert primes_in(CofinitePrimes(()), 10**5) == primes_in(AllPrimes(), 10**5)


# One set of each form, listed at every limit.
_LISTED_SPECS = [
    AllPrimes(),
    FinitePrimes((2, 5, 11)),
    CofinitePrimes((2, 7)),
    IntervalPrimes(4.5, 60.0),
    ResiduePrimes(3, 4),
    LogFracPrimes(2.0, 0.2, 0.25),
]


@pytest.mark.parametrize("spec", _LISTED_SPECS, ids=render_spec)
def test_odd_only_listing_matches_compress_over_every_n(spec):
    # The listings step over odd n only after 2; the reference reads every n.
    for limit in [*range(2001), 10**6]:
        flags = member_flags(spec, limit)
        want = list(compress(range(limit + 1), flags))
        assert list(_coded_primes(flags, _PRIME)) == want, limit
        assert primes_in(spec, limit) == want, limit
        assert list(_coded_primes(_member_marks(spec, limit), _MEMBER)) == want, limit
        if isinstance(spec, AllPrimes):
            assert sieve_primes(limit).primes == tuple(want), limit


# Every array and translation that primes are listed from: the sieve flags,
# the marks of each form, and a code table's generators (as table_primes
# lists them).
_LISTINGS = [
    ("prime", _prime_flags, _PRIME),
    *((render_spec(spec), functools.partial(_member_marks, spec), _MEMBER)
      for spec in _LISTED_SPECS),
    ("generator", functools.partial(member_table, ResiduePrimes(1, 4)), _GENERATOR),
]


@pytest.mark.parametrize("build, codes", [listing[1:] for listing in _LISTINGS],
                         ids=[listing[0] for listing in _LISTINGS])
def test_wheel_listing_matches_compress_over_every_n(build, codes, monkeypatch):
    # A listing of more than one run of odd n (2 * _CHUNK n) reads the wheel
    # in blocks of max(1, _CHUNK // 128) turns from the turn that holds
    # start.  Chunks of 1 to 3 send all but the shortest listings through
    # one-turn blocks.  Each stop up to 2001 is read off one array, whose
    # entries past the stop must not be listed: from a start that cycles
    # over the first 67 n of the last 700 before the stop (0..66 below
    # 700), and from both sides of the one-run threshold.  At 1e6, with
    # the real chunk, the stops lie on both sides of the threshold and of
    # the first block edge past it, and at and just below the end.
    def check(array, pairs):
        for start, stop in pairs:
            want = list(compress(range(start, stop), array[start:stop].translate(codes)))
            assert list(_coded_primes(array, codes, stop, start)) == want, (start, stop)

    chunk = primes_module._CHUNK
    array = build(2000)
    for stop in range(2002):
        monkeypatch.setattr(primes_module, "_CHUNK", 1 + stop % 3)
        run = 2 * primes_module._CHUNK
        start = max(stop - 700, 0) + stop // 3 % 67
        check(array, [(start, stop), (max(stop - run, 0), stop), (max(stop - run - 1, 0), stop)])
    assert list(_coded_primes(array, codes)) == list(compress(range(2001), array.translate(codes)))
    monkeypatch.setattr(primes_module, "_CHUNK", chunk)
    array = build(10**6)
    span = 30 * (chunk // 128)
    pairs = [(0, 10**6 + 1), (8, 10**6), (500_012, 10**6 - 1)]
    for start in (0, 7, 8, 38):
        edge = start - start % 30 + span * (2 * chunk // span + 1)
        pairs += [(start, start + 2 * chunk + k) for k in (0, 1)]
        pairs += [(start, edge + k) for k in (-1, 0, 1)]
    check(array, pairs)


def _spec_strategy():
    small_primes = st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    reals = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    return st.one_of(
        st.just(AllPrimes()),
        st.builds(lambda ps: FinitePrimes(tuple(ps)), st.lists(small_primes, max_size=6)),
        st.builds(lambda ps: CofinitePrimes(tuple(ps)), st.lists(small_primes, max_size=6)),
        st.builds(IntervalPrimes, reals, reals),
        st.builds(
            ResiduePrimes,
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=2, max_value=60),
        ),
        st.builds(
            LogFracPrimes,
            reals.filter(lambda t: abs(t) > 1e-9),
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        ),
    )


class TestGrammar:
    def test_parse_finite(self):
        assert parse_spec("finite:2,3,5") == FinitePrimes((2, 3, 5))

    def test_parse_logfrac(self):
        assert parse_spec("logfrac:t=1.0,w=0.1,s=0.5") == LogFracPrimes(1.0, 0.1, 0.5)

    def test_parse_residue(self):
        assert parse_spec("residue:1 mod 4") == ResiduePrimes(1, 4)

    def test_parse_interval(self):
        assert parse_spec("interval:10.0..100.0") == IntervalPrimes(10.0, 100.0)

    def test_empty_finite_list(self):
        assert parse_spec("finite:") == FinitePrimes(())

    def test_bad_width_rejected(self):
        with pytest.raises(SpecParseError, match="width"):
            parse_spec("logfrac:t=1.0,w=0.7,s=0.0")

    def test_unknown_form(self):
        with pytest.raises(SpecParseError):
            parse_spec("primes:2,3")

    def test_syntax_error_position(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("finite:2,x")
        assert err.value.position == 9

    @pytest.mark.parametrize("text,message,position", [
        ("finite:4", "4 is not prime", 7),
        ("finite:9,4", "9 is not prime", 7),
        ("finite:4,x", "4 is not prime", 7),
        ("cofinite:2,1", "1 is not prime", 11),
    ])
    def test_composite_reports_message_and_position(self, text, message, position):
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_each_listed_prime_is_tested_once(self, monkeypatch):
        calls = []
        test = primes_module.is_prime
        monkeypatch.setattr(primes_module, "is_prime", lambda n: calls.append(n) or test(n))

        def tested(make):
            del calls[:]
            return make(), len(calls)

        finite, count = tested(lambda: parse_spec("finite:2,3,5,3"))
        assert count == 4
        cofinite, count = tested(lambda: parse_spec("cofinite:7,2"))
        assert count == 2
        direct, count = tested(lambda: FinitePrimes((2, 3, 5)))
        assert count == 3
        assert (finite, hash(finite)) == (direct, hash(direct))
        assert (cofinite, hash(cofinite)) == (CofinitePrimes((2, 7)), hash(CofinitePrimes((2, 7))))
        with pytest.raises(DomainError):  # direct construction keeps its check
            FinitePrimes((4,))

    @settings(max_examples=200, deadline=None)
    @given(_spec_strategy())
    def test_round_trip(self, spec):
        assert parse_spec(render_spec(spec)) == spec


def test_is_prime_agrees_with_trial_division():
    small = set(trial_division_primes(2000))
    for n in range(2000):
        assert is_prime(n) == (n in small)


def test_is_prime_rejects_strong_pseudoprime_to_bases_up_to_37():
    # OEIS A014233: the least strong pseudoprime to every prime base 2..37.
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)


def test_logfrac_precision_beats_doubles():
    # The membership comparison runs at >= 64 fraction bits; a double-only
    # evaluation of the same quantity agrees to ~1e-15, so any representable
    # width away from that band must classify identically.
    spec = LogFracPrimes(1.0, 0.25, 0.0)
    for p in (2, 3, 5, 7, 1009, 99991):
        y = math.log(p) / (2 * math.pi)
        frac = y - math.floor(y)
        dist = min(frac, 1.0 - frac)
        if abs(dist - spec.width) > 1e-12:
            assert is_member(spec, p) == (dist <= spec.width)


_EDGE_SPECS = [
    AllPrimes(),
    FinitePrimes(()),
    FinitePrimes((2, 5, 97, 101, 9973, 10007)),
    CofinitePrimes(()),
    CofinitePrimes((3, 97, 9973, 10007)),
    IntervalPrimes(-10.5, 50.0),
    IntervalPrimes(-20.0, -3.0),
    IntervalPrimes(2.5, 96.9),
    IntervalPrimes(2.0, 3.0),
    IntervalPrimes(7.0, 7.0),
    IntervalPrimes(50.0, 10.0),
    IntervalPrimes(90.0, 1e12),
    IntervalPrimes(1e12, 2e12),
    ResiduePrimes(0, 7),
    ResiduePrimes(14, 7),
    ResiduePrimes(-1, 4),
    ResiduePrimes(2, 4),
    ResiduePrimes(3, 10007),
    LogFracPrimes(-2.5, 0.1, 0.3),
    LogFracPrimes(1e8, 0.1, 0.0),
    LogFracPrimes(-1e8, 0.3, 0.5),
    LogFracPrimes(3.0, 0.0, 0.2),
    LogFracPrimes(3.0, 0.5, 0.7),
]


class TestMemberFlags:
    """member_flags decides every prime at once; is_member decides one prime
    by the per-prime predicate.  They must agree everywhere."""

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 97, 1000, 9973])
    @pytest.mark.parametrize("spec", _EDGE_SPECS, ids=render_spec)
    def test_agrees_with_is_member(self, spec, limit):
        flags = member_flags(spec, limit)
        assert len(flags) == limit + 1
        want = bytearray(limit + 1)
        for p in sieve_primes(limit).primes:
            want[p] = is_member(spec, p)
        assert flags == want
        assert primes_in(spec, limit) == list(compress(range(limit + 1), want))

    @pytest.mark.parametrize("spec", _EDGE_SPECS, ids=render_spec)
    def test_limit_guard_precedes_allocation(self, spec):
        with pytest.raises(DomainError):
            member_flags(spec, -1)
        with pytest.raises(ResourceError):
            member_flags(spec, MAX_SIEVE_LIMIT + 1)
        # a table this large could not be allocated, so the guard came first
        with pytest.raises(ResourceError):
            member_flags(spec, 10**18)

    def test_finite_primes_in_skips_the_sieve(self):
        tracemalloc.start()
        try:
            got = primes_in(FinitePrimes((2, 3, 1000003)), MAX_SIEVE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [2, 3, 1000003]
        assert peak < 10**6
        assert primes_in(FinitePrimes((2, 3, 1000003)), 1000002) == [2, 3]

    def test_listing_stays_within_the_sieve_bound(self):
        # The wheel's block, selector and offsets are made per call, of a
        # size set by _CHUNK, so the members drained at 1e6 cost no more
        # than the marks and a few chunks.
        limit = 10**6
        tracemalloc.start()
        try:
            for _ in member_primes(AllPrimes(), limit):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * limit

    def test_primes_in_shares_the_guard(self):
        with pytest.raises(ResourceError):
            primes_in(FinitePrimes((2,)), 10**18)
        with pytest.raises(DomainError):
            primes_in(FinitePrimes((2,)), -1)


# Reference for the identity test below: t*ln(p)/(2*pi) - s in fixed point
# with _REF_BITS fraction bits, from 160-bit logarithms.  Its error is below
# 2**-140 for the grid's |t| <= 1e4, far inside the 2**-64 margin beyond
# which the 96-bit test of is_member must agree with it.
_REF_BITS = 160
_REF_ONE = 1 << _REF_BITS
_REF_MARGIN = 1 << (_REF_BITS - 64)


def _ref_fixed(value) -> int:
    return int(mpmath.floor(value * _REF_ONE))


def _ref_distances(t: float, shift: float, logs: list[int]):
    """Fixed-point distance from t*ln(p)/(2*pi) - shift to the nearest
    integer, for each fixed-point logarithm in ``logs``."""
    with mpmath.mp.workprec(_REF_BITS + 32):
        inv_two_pi = _ref_fixed(1 / (2 * mpmath.pi))
    num, den = t.as_integer_ratio()
    scale = num * inv_two_pi
    drop = _REF_BITS + den.bit_length() - 1  # den is a power of two
    snum, sden = shift.as_integer_ratio()
    offset = (snum << _REF_BITS) // sden
    for log in logs:
        frac = (((scale * log) >> drop) - offset) & (_REF_ONE - 1)
        yield min(frac, _REF_ONE - frac)


def _placed_shift(t: float, width: float, p: int, side: int) -> float:
    """A shift putting t*ln(p)/(2*pi) - shift within 2**-53 of distance
    ``width`` from an integer (above it for side 1, below for side -1)."""
    with mpmath.mp.workprec(200):
        y = mpmath.mpf(t) * mpmath.log(p) / (2 * mpmath.pi) - side * mpmath.mpf(width)
        return float(y - mpmath.floor(y)) % 1.0


# (t, width, shift) triples; the placed ones put one sampled prime within
# 1e-15 of the width boundary.
_PLACED = [(1.0, 0.1, 2, 1), (-2.5, 0.25, 7919, -1), (5.0, 0.1, 104729, 1),
           (1234.5, 0.3, 999983, -1), (1e4, 0.05, 65537, 1)]
_IDENTITY_GRID = [(t, w, _placed_shift(t, w, p, side)) for t, w, p, side in _PLACED] + [
    (0.37, 0.2, 0.0), (-7.0, 0.45, 0.5), (5.0, 0.0, 0.0)]


def test_logfrac_decisions_identical_up_to_one_million():
    """The double-precision filter with its reference fallback decides every
    prime up to 1e6 as the 96-bit reference test does, on a grid whose
    placed shifts make the fallback band do work."""
    limit = 10**6
    primes = _prime_flags(limit)
    plist = list(compress(range(limit + 1), primes))
    logs = [mpmath.libmp.to_fixed(mpmath.libmp.mpf_log(mpmath.libmp.from_int(p), _REF_BITS + 32),
                                  _REF_BITS) for p in plist]
    total_fallbacks = 0
    for (t, width, shift), placed in zip(_IDENTITY_GRID, _PLACED + [None] * 3):
        spec = LogFracPrimes(t, width, shift)
        marks = bytearray(primes)
        fallbacks = _logfrac_marks(spec, marks)
        wnum, wden = width.as_integer_ratio()
        boundary = (wnum << _REF_BITS) // wden
        for p, dist in zip(plist, _ref_distances(t, shift, logs)):
            if abs(dist - boundary) > _REF_MARGIN:
                want = dist <= boundary
            else:
                want = is_member(spec, p)
            assert (marks[p] == 2) == want, (spec, p)
            if placed is not None and p == placed[2]:
                assert abs(dist - boundary) < 1e-15 * _REF_ONE
        if placed is not None:
            assert fallbacks >= 1, spec
        total_fallbacks += fallbacks
    assert total_fallbacks > 0


def _per_prime_logfrac_marks(spec: LogFracPrimes, flags: bytearray) -> list[int]:
    """The log-fraction marks as the walk over every prime made them before
    the interval marks: the double filter for each prime flagged 1, and the
    reference test inside its band.  Returns the primes the reference
    decided."""
    scale = spec.t / (2.0 * math.pi)
    decided = []
    for p in compress(range(len(flags)), flags):
        y = scale * math.log(p) - spec.shift
        frac = y - math.floor(y)
        gap = (frac if frac <= 0.5 else 1.0 - frac) - spec.width
        if abs(gap) > primes_module._LOGFRAC_BAND * (1.0 + abs(y)):
            if gap < 0.0:
                flags[p] = 2
            continue
        decided.append(p)
        if primes_module._logfrac_member(spec, p):
            flags[p] = 2
    return decided


def _shift_in_band(t: float, width: float, p: int, side: int) -> float:
    """A shift putting t*ln(p)/(2*pi) - shift at distance width + side * d
    from an integer, with d = 2**-31 * (1 + |t*ln(p)/(2*pi)|): inside the
    filter band, so the walk sends p to the reference, but far outside any
    window narrower than the one _LOGFRAC_WINDOW states."""
    with mpmath.mp.workprec(200):
        u = mpmath.mpf(t) * mpmath.log(p) / (2 * mpmath.pi)
        y = u - side * (width + mpmath.mpf(2) ** -31 * (1 + abs(u)))
        return float(y - mpmath.floor(y)) % 1.0


# Sets with one prime in the filter band, on either side of the boundary.
# At these small |t| the band spans several integers around p, so a window
# narrower than stated, which its rounding to integers would otherwise
# hide, misses p.
_IN_BAND = [LogFracPrimes(t, w, _shift_in_band(t, w, p, side))
            for t, w, p in ((1e-6, 0.1, 1999), (-1e-4, 0.25, 999983))
            for side in (1, -1)]

# Both signs of t, from a subnormal scale to the 1e8 ceiling; widths 0, 0.1
# and 1/2; shifts at 0 and just below 1.  The intervals are marked while
# four times their number stays below the primes: up to |t| of about 50 at
# limit 2000 and about 8e3 at 1e6.  So |t| = 3e3 and 5e3 take the
# intervals only at 1e6, and 1e5 and 1e8 never.
_BELOW_ONE = 1.0 - 2.0**-53
_INTERVAL_GRID = [
    *(LogFracPrimes(t, w, s) for t in (1.0, -37.5) for w in (0.0, 0.1, 0.5)
      for s in (0.0, _BELOW_ONE)),
    LogFracPrimes(-1.0, 0.1, 0.0),
    LogFracPrimes(37.5, 0.0, _BELOW_ONE),
    LogFracPrimes(3e3, 0.1, 0.0),
    LogFracPrimes(-5e3, 0.5, _BELOW_ONE),
    LogFracPrimes(1e5, 0.0, 0.3),
    LogFracPrimes(-1e8, 0.1, _BELOW_ONE),
    LogFracPrimes(-2.5, 0.25, 0.25),
    LogFracPrimes(1e-10, 0.1, 0.3),
    LogFracPrimes(5e-324, 0.1, 0.0),
    *_IN_BAND,
]


@pytest.fixture(scope="module")
def flags_to_a_million():
    return _prime_flags(10**6)


@pytest.mark.parametrize("spec", _INTERVAL_GRID, ids=render_spec)
def test_interval_marks_match_the_per_prime_walk(spec, flags_to_a_million):
    # The marks and the count of reference decisions, at every limit up to
    # 2000 (each a prefix of the walk's at 2000) and at 1e6.  From |t| =
    # 3e3 up every limit up to 2000 takes the walk itself, so one limit in
    # 40 is read there.
    want = _prime_flags(2000)
    decided = _per_prime_logfrac_marks(spec, want)
    for limit in range(0, 2001, 40 if abs(spec.t) >= 3e3 else 1):
        marks = _prime_flags(limit)
        fallbacks = _logfrac_marks(spec, marks)
        assert marks == want[: limit + 1], limit
        assert fallbacks == bisect.bisect_right(decided, limit), limit
    marks = bytearray(flags_to_a_million)
    want = bytearray(flags_to_a_million)
    fallbacks = _logfrac_marks(spec, marks)
    assert fallbacks == len(_per_prime_logfrac_marks(spec, want))
    assert marks == want
    if spec in _IN_BAND:
        assert fallbacks >= 1


def test_a_window_that_holds_every_prime():
    # A shift equal to the width puts an endpoint at u = 0, and at t = 1e-10
    # every prime up to 1e5 lies within the filter band of it, so its
    # window holds them all and each takes the reference.
    spec = LogFracPrimes(1e-10, 0.1, 0.1)
    marks = _prime_flags(10**5)
    want = bytearray(marks)
    decided = _per_prime_logfrac_marks(spec, want)
    assert _logfrac_marks(spec, marks) == len(decided) == want.count(1) + want.count(2)
    assert marks == want


class TestMemberFlagsOfEveryPrime:
    def test_are_the_sieve_flags_untranslated(self, monkeypatch):
        calls = []
        translate = primes_module._translate
        monkeypatch.setattr(primes_module, "_translate",
                            lambda *args: calls.append(args) or translate(*args))
        chunk = primes_module._CHUNK
        for limit in [*range(2001), 4 * chunk - 1, 4 * chunk + 1]:
            assert member_flags(AllPrimes(), limit) == _prime_flags(limit), limit
        assert calls == []

    def test_are_listed_off_the_sieve_flags(self, monkeypatch):
        # member_primes of every prime reads the sieve flags through _PRIME,
        # and gives the list the marks give through _MEMBER, with no pass
        # that translates the flags into marks.
        calls = []
        translate = primes_module._translate
        monkeypatch.setattr(primes_module, "_translate",
                            lambda *args: calls.append(args) or translate(*args))
        for limit in [*range(2001), 10**6]:
            marks = list(_coded_primes(_member_marks(AllPrimes(), limit), _MEMBER))
            calls.clear()
            assert list(member_primes(AllPrimes(), limit)) == marks, limit
            assert calls == [], limit
