import ast
import math
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, starmap, zip_longest
from operator import add, eq, itemgetter, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musum.errors import DomainError, ResourceError, UsageError
from musum import primes as primes_module
from musum import semigroup as semigroup_module
from musum.experiments import convergence_table, gran_residual, mean_mobius, mertens_window
from musum.primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
    _prime_flags,
    is_member,
    member_flags,
    parse_spec,
    primes_in,
    render_spec,
)
from musum.semigroup import (
    _FLIP,
    _SQUARE,
    EnumerationOptions,
    _code_table,
    code_tables,
    count_members,
    count_members_outside,
    density,
    enumerate_terms,
    member_table,
    mobius,
    smooth_split,
    table_fsums,
    table_mobius_sum,
    table_primes,
    table_terms,
)
from musum.sums import EXACT_CEILING, partial_sum, zorn_check

from oracles import mobius_bruteforce, semigroup_members


class TestMobius:
    def test_unit(self):
        assert mobius(1) == 1

    def test_three_distinct_primes(self):
        assert mobius(30) == -1

    def test_square_factor(self):
        assert mobius(12) == 0

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            mobius(0)

    def test_cofactor_past_trial_division(self):
        # Trial division stops at 1e6: a cofactor up to 1e12 is then prime,
        # a larger one only if it is below MR_PROVEN_BOUND and is_prime says so.
        assert mobius(6 * (10**9 + 7)) == -1
        assert mobius(999983**2) == 0
        assert mobius(2**61 - 1) == -1
        assert mobius(2 * (2**61 - 1)) == 1
        # a composite; a strong pseudoprime to the bases 2..37; a prime past
        # the bound, where is_prime proves nothing
        for n in ((10**9 + 7) * (10**9 + 9), 318665857834031151167461, 2**89 - 1):
            with pytest.raises(ResourceError, match="cannot factor"):
                mobius(n)

    def test_against_bruteforce(self):
        # Past 3000: primes near 1e5 squared, cubed or times another's square.
        # mobius calls n squarefree when its distinct primes multiply back to n.
        near = [99991**2, 99991**3, 99991 * 99989**2, 99989 * 99991**2, 99991 * 99989]
        for n in [*range(1, 3000), *near]:
            assert mobius(n) == mobius_bruteforce(n)

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(20240901)
        checked = 0
        while checked < 10**4:
            m = rng.randrange(1, 10**5)
            n = rng.randrange(1, 10**5)
            if math.gcd(m, n) == 1:
                # Factorising m*n outright is affordable up to ~1e6.
                if m * n <= 10**6:
                    assert mobius(m * n) == mobius(m) * mobius(n)
            else:
                # A shared prime forces a square divisor of the product.
                assert mobius(m * n) == 0
            checked += 1
        # Spot checks across the full range, where m*n approaches 1e10.
        for _ in range(200):
            m = rng.randrange(1, 10**5)
            n = rng.randrange(1, 10**5)
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def _stream(spec, x, **kw):
    return list(enumerate_terms(spec, x, EnumerationOptions(**kw)))


class TestEnumerate:
    def test_two_three_semigroup(self):
        expected = [(1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (8, 0), (9, 0)]
        assert _stream(FinitePrimes((2, 3)), 10) == expected
        assert _stream(FinitePrimes((2, 3)), 10, backend="heap") == expected
        assert _stream(FinitePrimes((2, 3)), 10, backend="sieve") == expected

    def test_terms_are_plain_tuples(self):
        for backend in ("heap", "sieve"):
            terms = _stream(FinitePrimes((2, 3)), 10, backend=backend)
            assert {type(t) for t in terms} == {tuple}

    def test_all_primes_up_to_five(self):
        assert _stream(AllPrimes(), 5) == [(1, 1), (2, -1), (3, -1), (4, 0), (5, -1)]

    def test_empty_generating_set(self):
        assert _stream(FinitePrimes(()), 10) == [(1, 1)]

    def test_x_zero_is_empty(self):
        assert _stream(AllPrimes(), 0) == []

    def test_first_term_is_one(self):
        for spec in (AllPrimes(), FinitePrimes((5,)), CofinitePrimes((2,))):
            assert _stream(spec, 1) == [(1, 1)]

    def test_squarefree_only_drops_zero_terms(self):
        terms = _stream(FinitePrimes((2, 3)), 30, squarefree_only=True)
        assert terms == [(1, 1), (2, -1), (3, -1), (6, 1)]

    def test_heap_requires_finite(self):
        with pytest.raises(UsageError):
            list(enumerate_terms(AllPrimes(), 10, EnumerationOptions(backend="heap")))

    def test_against_bruteforce_oracle(self):
        spec = CofinitePrimes((2, 5))
        got = _stream(spec, 200)
        want = semigroup_members(lambda p: p not in (2, 5), 200)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
                 max_size=5),
        st.integers(min_value=0, max_value=10**4),
    )
    def test_backend_oracle_equivalence(self, primes, x):
        spec = FinitePrimes(tuple(primes))
        sieve = _stream(spec, x, backend="sieve")
        heap = _stream(spec, x, backend="heap")
        assert sieve == heap

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=5000),
    )
    def test_stream_strictly_increasing(self, primes, x):
        ns = [n for n, _ in enumerate_terms(FinitePrimes(tuple(primes)), x)]
        assert ns[0] == 1
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_semigroup_and_complement_overlap_only_at_one(self):
        rng = random.Random(7)
        pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        for _ in range(10):
            spec = FinitePrimes(tuple(rng.sample(pool, rng.randrange(1, 6))))
            inside = {n for n, _ in enumerate_terms(spec, 10**4)}
            banned = set(spec.primes)
            outside = {
                n
                for n, _ in semigroup_members(lambda p: p not in banned, 10**4)
            }
            assert inside & outside == {1}


class TestCounts:
    def test_powers_of_two(self):
        assert count_members(FinitePrimes((2,)), 1024) == 11

    def test_all_counts_everything(self):
        for x in (1, 17, 300):
            assert count_members(AllPrimes(), x) == x

    def test_empty_set(self):
        assert count_members(FinitePrimes(()), 7) == 1

    def test_density_all(self):
        assert density(AllPrimes(), 100) == 1.0

    def test_density_powers_of_two(self):
        assert density(FinitePrimes((2,)), 1024) == 11 / 1024

    def test_density_decreases_for_interval_set(self):
        spec = IntervalPrimes(10.0, 100.0)
        assert density(spec, 10**6) < density(spec, 10**4)

    def test_complement_count(self):
        # Complement of {2,3}: members <= 10 are 1, 5, 7.
        assert count_members_outside(FinitePrimes((2, 3)), 10) == 3
        # Complement of the full prime set is the trivial semigroup {1}.
        assert count_members_outside(AllPrimes(), 57) == 1


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


def _oracle(index, x, complement=False):
    """The brute-force members of the index-th spec form (or of its
    complement) up to x, as a prefix of one oracle run at _ORACLE_X."""
    key = (index, complement)
    if key not in _ORACLE:
        pred = SPEC_FORMS[index][1]
        member = (lambda p: not pred(p)) if complement else pred
        _ORACLE[key] = semigroup_members(member, _ORACLE_X)
    return [(n, mu) for n, mu in _ORACLE[key] if n <= x]


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
class TestCodeTableAgainstOracle:
    def test_terms(self, index):
        spec = SPEC_FORMS[index][0]
        for x in TABLE_XS:
            want = _oracle(index, x)
            assert _stream(spec, x, backend="sieve") == want, x
            squarefree = [(n, mu) for n, mu in want if mu]
            assert _stream(spec, x, backend="sieve", squarefree_only=True) == squarefree, x

    def test_counts(self, index):
        spec = SPEC_FORMS[index][0]
        for x in TABLE_XS:
            members = _oracle(index, x)
            assert count_members(spec, x) == len(members), x
            assert count_members_outside(spec, x) == len(_oracle(index, x, True)), x
            if x >= 1:
                assert mean_mobius(spec, x) == sum(mu for _, mu in members) / x, x
            assert list(table_primes(member_table(spec, x), x)) == primes_in(spec, x), x

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=_ORACLE_X))
    def test_random_bounds(self, index, x):
        spec = SPEC_FORMS[index][0]
        members = _oracle(index, x)
        assert _stream(spec, x, backend="sieve") == members
        assert count_members(spec, x) == len(members)
        assert count_members_outside(spec, x) == len(_oracle(index, x, True))


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
def test_table_mobius_sum_on_every_segment(index):
    spec, pred = SPEC_FORMS[index]
    table = member_table(spec, 300)
    mus = dict(semigroup_members(pred, 300))
    below = list(accumulate((mus.get(n, 0) for n in range(301)), initial=0))
    for a in range(302):
        for b in range(a, 302):
            assert table_mobius_sum(table, a, b) == below[b] - below[a], (a, b)


def _replaced_complement_table(spec, x):
    """The code table of <P'> that code_tables built before its flags were
    sieved from the member primes: the primes that are not members, marked
    as the members of P', run through _code_table."""
    primes = _prime_flags(x)
    complement = map(sub, primes, member_flags(spec, x))
    return _code_table(bytearray(map(add, primes, complement)), x)


_NONZERO = bytes(1) + bytes([1]) * 255


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
def test_complement_flags_match_the_replaced_code_table(index):
    spec = SPEC_FORMS[index][0]
    for x in [*range(2001), 10**6]:
        flags = next(code_tables(spec, x))
        assert flags == _replaced_complement_table(spec, x).translate(_NONZERO), x
        if 1 <= x <= 2000:
            assert zorn_check(spec, x).equal, x


def _per_member_flags(spec, x):
    """The flags of <P'> as code_tables sieved them before its large member
    primes went in bands and finite sets skipped the sieve: one slice for
    each member prime up to x."""
    outside = bytearray(b"\x01") * (x + 1)
    outside[0] = 0
    for p in primes_in(spec, x):
        outside[p::p] = bytes(x // p)
    return outside


# Finite sets: empty, 2 alone, and two that hold primes above x at many of
# the x tested (every member, at the smallest x).
_FINITE_EDGES = [FinitePrimes(()), FinitePrimes((2,)), FinitePrimes((2, 3, 97)),
                 FinitePrimes((1009, 65537))]


@pytest.mark.parametrize("spec", [spec for spec, _ in SPEC_FORMS] + _FINITE_EDGES, ids=render_spec)
def test_complement_flags_match_the_per_member_sieve(spec, monkeypatch):
    assert next(code_tables(spec, 10**6)) == _per_member_flags(spec, 10**6)
    for x in _SHORT_CHUNK_XS:
        _set_chunk(monkeypatch, 1 + x % 3)
        assert next(code_tables(spec, x)) == _per_member_flags(spec, x), x


def _members_cut_at_the_root(spec, x):
    """The members above isqrt(x) as smooth_split took them before it listed
    only those: every member prime up to x, then those up to isqrt(x) deleted."""
    marks = primes_module._member_marks(spec, x)
    members = array("I", primes_module._coded_primes(marks, primes_module._MEMBER))
    del members[: bisect_right(members, math.isqrt(x))]
    return members


@pytest.mark.parametrize("text", ["all", "residue:1 mod 4", "finite:2,3,101", "interval:150..1e9",
                                  "logfrac:t=1,w=0.1,s=0"])
def test_smooth_split_lists_the_members_above_the_root(text):
    spec = parse_spec(text)
    for x in [*range(2001), 10**5]:
        assert smooth_split(spec, x)[1] == _members_cut_at_the_root(spec, x), x


@pytest.mark.parametrize(
    "route, sieves",
    [(zorn_check, 0), (count_members_outside, 0), (lambda spec, x: gran_residual(spec, [x]), 1)],
    ids=["zorn_check", "count_members_outside", "gran_residual"],
)
def test_finite_sets_sieve_only_for_the_table_of_p(route, sieves, monkeypatch):
    # The flags of <P'> come from the list; only gran_residual reads the
    # table of <P>, which takes the one membership pass.
    calls = []

    def counted(limit):
        calls.append(limit)
        return sieve(limit)

    sieve = primes_module._prime_flags
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("musum") and (
            getattr(module, "_prime_flags", None) is sieve
        ):
            monkeypatch.setattr(module, "_prime_flags", counted)
    route(FinitePrimes((2, 3, 97)), 10**4)
    assert len(calls) == sieves


# Member flags to start codes, as the per-prime walk took them: 4 at a
# member prime, 1 everywhere else.
_FLAG_START = bytes((1, 4)) + bytes(254)


def _per_prime_code_table(primes, members, x):
    """The code table as _code_table built it before the large primes were
    walked in bands and before prime flags, member flags and table shared
    one array: one slice step for every prime up to x, each run whole."""
    table = members.translate(_FLAG_START)
    table[0] = 0
    for p in compress(range(x + 1), primes):
        if table[p] == 4:
            table[2 * p :: p] = table[2 * p :: p].translate(_FLIP)
            square = p * p
            if square <= x:
                table[square::square] = table[square::square].translate(_SQUARE)
        else:
            table[p::p] = bytes(x // p)
    return table


# The x of the short-chunk test below.  Their per-prime-walk tables do not
# depend on the chunk, so each is built once, by whichever of the two walk
# tests reaches it first, and kept; no other x is kept.
_SHORT_CHUNK_XS = [*range(64), *range(64, 2001, 7)]
_KEPT_WALK_XS = set(_SHORT_CHUNK_XS)
_WALK_TABLES = {}


def _walk_tables(index, x, members):
    """The per-prime-walk tables of <P>, of <P'> as flags and of the
    sqrt(x)-smooth members, for the index-th form at x."""
    key = (index, x)
    if key in _WALK_TABLES:
        return _WALK_TABLES[key]
    primes = _prime_flags(x)
    root = math.isqrt(x)
    complement = bytearray(map(sub, primes, members))
    tables = (
        _per_prime_code_table(primes, members, x),
        _per_prime_code_table(primes, complement, x).translate(_NONZERO),
        _per_prime_code_table(primes, members[: root + 1] + bytes(x - root), x),
    )
    if x in _KEPT_WALK_XS:
        _WALK_TABLES[key] = tables
    return tables


# mu by table code, as the codes are documented in semigroup: 0 outside <P>,
# then mu +1, mu -1, mu 0 and a generating prime.
_MU_BY_CODE = (0, 1, -1, 0, -1)


def _decoded_terms(table):
    """(n, mu(n)) for every member n of a whole code table, each mu looked up
    by its code in _MU_BY_CODE."""
    mus = map(_MU_BY_CODE.__getitem__, compress(table, table))
    return zip(compress(range(len(table)), table), mus)


def _assert_every_route_matches_the_per_prime_walk(index, x, terms=False):
    """Every table route against the per-prime walk at x; with ``terms``,
    table_terms too, with either flag, against the walk's table decoded
    term by term."""
    spec = SPEC_FORMS[index][0]
    members = member_flags(spec, x)
    want, outside_want, smooth = _walk_tables(index, x, members)
    assert member_table(spec, x) == want, x
    if terms:  # compared as streams: at 10**6 the lists would take over 100 MB
        for squarefree_only in (False, True):
            decoded = _decoded_terms(want)
            if squarefree_only:
                decoded = filter(itemgetter(1), decoded)
            got = table_terms(want, x, squarefree_only)
            assert all(starmap(eq, zip_longest(got, decoded))), (x, squarefree_only)
    outside, table = code_tables(spec, x)
    assert outside == outside_want, x
    assert table == want, x
    root = math.isqrt(x)
    table, large = smooth_split(spec, x)
    assert table == smooth, x
    assert large.tolist() == list(compress(range(root + 1, x + 1), members[root + 1 :])), x


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
def test_every_table_route_matches_the_per_prime_walk(index):
    # x where the band x/2 < p <= x holds one or two chunks of odd n, or one
    # odd n more.
    chunk = primes_module._CHUNK
    edges = [4 * chunk * m + d for m in (1, 2) for d in (-1, 0, 1, 2)]
    band_one = {len(range((x // 2 + 1) | 1, x + 1, 2)) for x in edges}
    assert band_one == {chunk, chunk + 1, 2 * chunk, 2 * chunk + 1}
    for x in [*range(2001), *edges, 10**6]:
        _assert_every_route_matches_the_per_prime_walk(index, x, terms=x == 10**6)


def _set_chunk(monkeypatch, chunk):
    """Every musum module that reads the chunk reads ``chunk``."""
    for module in (primes_module, semigroup_module):
        monkeypatch.setattr(module, "_CHUNK", chunk)


@pytest.mark.parametrize("index", range(len(SPEC_FORMS)))
def test_short_chunks_match_the_per_prime_walk(index, monkeypatch):
    # Chunks of 1 to 3 n put chunk edges all through the sieve, the marks,
    # the walk's runs of multiples and every band (bands start at x = 256).
    for x in _SHORT_CHUNK_XS:
        _set_chunk(monkeypatch, 1 + x % 3)
        _assert_every_route_matches_the_per_prime_walk(index, x, terms=True)


@pytest.mark.parametrize("chunk", [1, 2, 3, primes_module._CHUNK])
def test_float_sums_across_chunk_edges_match_one_fsum(chunk, monkeypatch):
    # table_fsums reads each segment between grid points in runs of a chunk,
    # so the segments here are a chunk long, one n shorter or longer, or two
    # chunks; every sum must have the bits of one fsum over the table's own
    # quotients, each taken term by term.
    x = 2000 if chunk <= 3 else 8 * chunk
    table = member_table(CofinitePrimes((3,)), x)
    quotients = [_MU_BY_CODE[code] / n for n, code in enumerate(table) if code in (1, 2, 4)]
    counts = [0]
    for code in table[1:]:
        counts.append(counts[-1] + (code in (1, 2, 4)))
    lengths = [n for n in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, 1) if n]
    grid, stop = [], 0
    while stop + lengths[len(grid) % len(lengths)] <= x + 1:
        stop += lengths[len(grid) % len(lengths)]
        grid.append(stop - 1)
    grid.append(x)
    _set_chunk(monkeypatch, chunk)
    got = list(table_fsums(table, grid))
    want = [(math.fsum(quotients[: counts[g]]).hex(), counts[g]) for g in grid]
    assert [(value.hex(), count) for value, count in got] == want


_EIGHT = FinitePrimes((2, 3, 5, 7, 11, 13, 17, 19))
_NINE = FinitePrimes(_EIGHT.primes + (23,))


@pytest.mark.parametrize("x", [10**3, 10**5, 10**6])
def test_auto_takes_the_heap_for_finite_sets_of_at_most_eight_primes(x, monkeypatch):
    # Stand-ins record the route that enumerate_terms and tally take.
    routes = []
    monkeypatch.setattr(semigroup_module, "_heap_stream",
                        lambda primes, x, squarefree_only: routes.append("heap") or iter(()))
    monkeypatch.setattr(semigroup_module, "member_table",
                        lambda spec, x: routes.append("sieve") or bytearray(x + 1))
    cases = [(FinitePrimes((7,)), "heap"), (_EIGHT, "heap"), (_NINE, "sieve")]
    cases += [(spec, "sieve") for spec, _ in SPEC_FORMS if not isinstance(spec, FinitePrimes)]
    for spec, route in cases:
        routes.clear()
        list(enumerate_terms(spec, x))
        count_members(spec, x)
        assert routes == [route, route], (spec, x)


# The peak bytes per n of x that semigroup's route-cost comment states for each
# route, plus the few KB of Python objects and chunks any call holds, plus
# 4 bytes per member prime where smooth_split keeps the members as one
# array, and for the <P'> routes, whose band chunks beside two arrays of x
# bytes need more than those few KB.  The exact sum runs at its own
# ceiling, with 0.4 bytes per n to spare for its integers, and for all
# with five integers the size of its result's denominator, which the last
# step of its tree holds.
# The set is 1 mod 4, and all for a second member_table and zorn_check
# case, in which every chunk of every band holds member primes.  A finite
# set's <P'> flags need no marks, so its gran_residual holds one array at a
# time if the flags are gone before the table of <P> is built.
@pytest.mark.parametrize(
    "route, spec, x, per_n, per_member, per_result",
    [
        (member_table, ResiduePrimes(1, 4), 10**6, 1.25, 0, 0),
        (member_table, AllPrimes(), 10**6, 1.25, 0, 0),
        (count_members_outside, ResiduePrimes(1, 4), 10**6, 2, 4, 0),
        (zorn_check, ResiduePrimes(1, 4), 10**6, 2, 4, 0),
        (zorn_check, AllPrimes(), 10**6, 2, 4, 0),
        (lambda spec, x: convergence_table(spec, [x]), ResiduePrimes(1, 4), 10**6, 1.25, 0, 0),
        (lambda spec, x: gran_residual(spec, [x]), ResiduePrimes(1, 4), 10**6, 2, 4, 0),
        (lambda spec, x: gran_residual(spec, [x]), FinitePrimes((2, 3, 5)), 10**6, 1.25, 0, 0),
        (partial_sum, ResiduePrimes(1, 4), EXACT_CEILING, 1.4, 4, 0),
        (partial_sum, AllPrimes(), EXACT_CEILING, 1.4, 4, 5),
        (lambda spec, x: partial_sum(spec, x, "float"), ResiduePrimes(1, 4), 10**6, 1.25, 0, 0),
    ],
    ids=["member_table", "member_table_all", "count_members_outside", "zorn_check",
         "zorn_check_all", "convergence_table", "gran_residual", "gran_residual_finite",
         "partial_sum", "partial_sum_all", "partial_sum_float"],
)
def test_table_routes_stay_within_their_stated_memory(route, spec, x, per_n, per_member,
                                                       per_result):
    members = len(primes_in(spec, x))
    result = per_result and partial_sum(spec, x).value_exact.denominator.bit_length() / 8
    tracemalloc.start()
    try:
        route(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_n * x + per_member * members + per_result * result + 64 * 1024


@pytest.mark.parametrize(
    "route",
    [
        lambda: zorn_check(ResiduePrimes(1, 4), 1000),
        lambda: gran_residual(ResiduePrimes(1, 4), [10, 1000]),
        lambda: convergence_table(ResiduePrimes(1, 4), [10, 1000]),
        lambda: mertens_window(1000),
        lambda: partial_sum(ResiduePrimes(1, 4), EXACT_CEILING),
    ],
    ids=["zorn_check", "gran_residual", "convergence_table", "mertens_window", "partial_sum"],
)
def test_table_routes_mark_members_once(route, monkeypatch):
    calls = []

    def counted(spec, flags):
        calls.append(spec)
        return mark(spec, flags)

    mark = primes_module._mark_members
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("musum") and (
            getattr(module, "_mark_members", None) is mark
        ):
            monkeypatch.setattr(module, "_mark_members", counted)
    route()
    assert len(calls) == 1


# Sieving, marking and table building stay behind primes and semigroup, and
# so do the translations of the codes: the other modules read tables only
# through the public readers.  No other module imports an underscore name
# from the two, apart from these.
_PRIVATE_IMPORTS = {
    "sums.py": {"_heap_stream", "_distinct_prime_factors"},
    "experiments.py": {"_heap_stream"},
    "zeta.py": {"_mp_context"},
}
_PACKAGE = Path(primes_module.__file__).parent


@pytest.mark.parametrize("name", sorted(
    path.name for path in _PACKAGE.glob("*.py") if path.name not in ("primes.py", "semigroup.py")))
def test_table_internals_stay_behind_semigroup(name):
    source = _PACKAGE / name
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] in ("primes", "semigroup")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported <= _PRIVATE_IMPORTS.get(name, set())
