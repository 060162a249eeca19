"""Ordered enumeration of the multiplicative semigroup generated by a prime
set, with Mobius values.

For a prime set P, the semigroup <P> is the set of natural numbers all of
whose prime factors lie in P; it always contains 1 (the empty product).  Two
independent backends, which cross-validate each other (tests require their
streams to be identical), produce (n, mu(n)) in strictly increasing n:

* ``sieve`` builds a code table with one byte per n up to x in the one
  array that the prime sieve and the membership marks of ``primes`` were
  made in (see ``_code_table``): one slice step over the multiples of each
  small prime, and for the large primes, grouped in bands by how many
  multiples k they have up to x, one strided slice per multiplier j <= k
  and chunk of a band, however many primes the chunk holds.  Every run
  longer than a chunk is taken a chunk at a time, so no temporary grows
  with x.
  Every count over <P> is a ``bytes.count`` on the table: the sum of mu(n)
  over a segment, ``table_mobius_sum``, is three of them, one per code with
  mu +-1.  Every term is read through one reader, ``table_runs``: it
  translates each run of the table once, into mu(n) as a signed byte, and
  ``itertools.compress`` picks out the run's members and their mu(n) at C
  speed.  A table built up to x answers every bound below x through its
  prefix.  ``table_fsums`` gives the correctly rounded float sums of
  mu(n)/n at each point of an ascending grid: ``math.fsum`` over
  ``map(truediv, ...)`` of each run's mu(n) and n, so no Python frame runs
  per term.  Between grid points the exact prefix rides along as two
  doubles, so each segment is read twice, not once per later point;
* ``heap``  (finite P only) walks the products of P's primes depth first,
  each once, in no set order; ``enumerate_terms`` sorts them.  The CLI's
  ``--backend`` keeps the name of the heap merge that the walk replaced.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, starmap
from operator import mul, truediv
from typing import Iterator, Sequence

from .errors import DomainError, ResourceError, UsageError
from .primes import _CHUNK, _MEMBER, _PRIME, MR_PROVEN_BOUND, FinitePrimes, PrimeSetSpec
from .primes import _coded_primes, _member_marks, _runs, _translate, _zero, check_limit, is_prime

# Route costs: every table is built on the sieve's one array up to x, which
# check_limit bounds.  Peak bytes per n (tracemalloc at x = 1e6):
# 1.09 for member_table, float partial_sum, convergence_table,
# mertens_window, enumerate (which streams its rows off the table) and all
# that reads one table: the array itself, which is sieved, marked and
# turned into the table in place, and about 90 KB of chunks, which the
# sieve, the walk and every reader take a _CHUNK at a time.  100 MB at 1e8.
# count_members_outside, zorn_check and gran_residual also hold the flags of
# <P'> beside the marks while they sieve them, reading the members off the
# marks a chunk at a time: 2.09 at 1e6, 201 MB at 1e8; a finite set's flags
# need no marks.  The flags are gone before the table of <P> is built.  Exact
# partial_sum of an infinite set reads smooth_split: 1 per n plus 4 per
# member prime, and its prefix and tree integers: 1.95 per n at the exact
# ceiling of 1e5 for 1 mod 4, 2.94 for all, whose peak is the tree's last
# step: the halves' numerators and denominators (2R, R the size of the
# result's denominator, 1.44 bits per n of x) and three products of size R.
# The term-wise exact routes of
# sums (coprime, shifted, weighted) read one table, and their buckets add one
# int per prime in (sqrt(x), x], about 140 bytes each: a peak of about 1.5 MB
# at 1e5, where the table takes 0.1 MB.  The one reader, table_runs, holds
# per run the run's codes and its signed mask: two chunks, within the chunks
# above.  The ceiling also makes table_fsums exact: each term
# +-1/n with n <= 10**8 < 2**27 rounds to a multiple of 2**-79, so every
# prefix S of rounded terms is one too, and |S| < H(10**8) < 20 puts
# S - fsum(S) within ulp/2 <= 2**-48 of 0: at most 31 bits, which a double
# holds exactly.
# A finite set's walk (_product_stream) holds no table, only its stack: the
# unwalked siblings at each depth take disjoint ranges of the list, so it
# holds at most one entry per listed prime p <= x, about 130 bytes each (a
# 3-tuple, n, an index and a list slot): 165 KB for the 1229 primes below
# 1e4 at any x.  enumerate's heap route also holds its sorted list of terms,
# about 100 bytes each: 4.3 MB for the 8 smallest primes at 1e8.

# auto backend: for a finite set of at most 8 primes the heap steps only
# through the members, far fewer than the x + 1 entries the sieve walks.
_AUTO_HEAP_MAX_PRIMES = 8

# Table codes: 0 = not in <P>, 1 = mu +1, 2 = mu -1, 3 = member with mu 0,
# 4 = a generating prime (mu -1); while the table is built, 5 = a prime not
# yet walked that is not a member.  The flip and the square act on multiples
# of a prime other than itself, which are never prime, so they meet codes
# 0..3 only; the other entries of each translation are padding.
_START = bytes((1, 5, 4)) + bytes(253)  # marks to start codes
_UNWALKED = bytes(4) + bytes((1, 1)) + bytes(250)  # a prime, codes 4 and 5
_FLIP = bytes((0, 2, 1, 3)) + bytes(252)  # one more prime factor
_SQUARE = bytes((0, 3, 3, 3)) + bytes(252)  # a square factor
_GENERATOR = bytes((0, 0, 0, 0, 1)) + bytes(251)  # a generating prime
_SIGNED_MU = bytes((0, 1, 255, 0, 255)) + bytes(251)  # mu as a signed byte

# The band walk (_band_add) adds an action to each code: 8 flips it, 16
# zeroes it and 0 keeps it.  _ACTION reads the action off a band prime's own
# code: 8 at a member (4), 16 at any other (5).  Its sum 12 (4 + 8) stays 4,
# and 21 (5 + 16) is 0, as are 16..19.  On the 0/1 flags of <P'> it is 2 at
# a member's mark (2), so that of the sums 0..3 only 1 stays a flag.
_ACTION = bytes(4) + bytes((8, 16)) + bytes(250)
_BAND = bytes((0, 1, 2, 3, 4, 0, 0, 0, 0, 2, 1, 3, 4)) + bytes(243)
_OUTSIDE_ACTION = bytes((0, 0, 2)) + bytes(253)
_OUTSIDE_BAND = bytes((0, 1, 0, 0)) + bytes(252)


@dataclass(frozen=True)
class EnumerationOptions:
    squarefree_only: bool = False
    backend: str = "auto"  # sieve | heap | auto


def _distinct_prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division up
    to 1e6.  A cofactor that trial division leaves unproven is taken as prime
    only if it is below MR_PROVEN_BOUND and passes is_prime; otherwise no
    factor is found in bounded time and ResourceError is raised."""
    out = []
    m = n
    d = 2
    while d * d <= m and d <= 10**6:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if d * d <= m and not (m < MR_PROVEN_BOUND and is_prime(m)):  # stopped at 1e6, not sqrt(m)
        raise ResourceError(f"cannot factor {n}: its cofactor past 1e6 is not provably prime")
    if m > 1:
        out.append(m)
    return tuple(out)


def mobius(n: int) -> int:
    """Classical Mobius function: 0 if a square divides n, else (-1)**(number
    of distinct prime factors); mobius(1) = 1.  ResourceError if n cannot be factored."""
    if n < 1:
        raise DomainError(f"mobius is defined for n >= 1, got {n}")
    primes = _distinct_prime_factors(n)
    # n is squarefree exactly when its distinct primes multiply back to n.
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def _code_table(table: bytearray, x: int) -> bytearray:
    """Codes of 0..x for the semigroup generated by the member primes marked
    in ``table`` (see primes._mark_members), built in place in that one
    array: the marks are not needed once the table is.

    Every n starts as mu +1, each member prime as a generator (code 4) and
    each other prime as code 5.  For each prime p <= x: a member flips the
    sign of its other multiples and sets its square's multiples to mu 0; a
    non-member zeroes its multiples, itself included.  Zero is fixed by both
    translations and 3 by the flip, so the order of the primes does not
    matter, and no prime's own code changes before its own turn: codes 4
    and 5 mark the primes not yet walked, and the walk finds them by those
    codes, translating each run of the table when it reaches it.  Every run
    of multiples is taken _CHUNK entries at a time, so the array is the only
    allocation that grows with x.

    The primes up to x // top take one step each; the larger ones are walked
    in bands (_band_add).  Such a p > sqrt(x) has no square multiple up to
    x, and each j*p with j >= 2 is composite, so it holds a code 0..3
    whatever the order.
    """
    _translate(table, _START)
    table[0] = 0
    top = _band_top(x)
    long = x // (_CHUNK + 1)  # the primes with more than a chunk of multiples
    for p in _coded_primes(table, _UNWALKED, x // top + 1):
        if p <= long:  # a run of at most _CHUNK multiples at a time
            if table[p] == 4:
                _translate(table, _FLIP, 2 * p, p)
                _translate(table, _SQUARE, p * p, p * p)  # empty if p * p is past the table
            else:
                _zero(table, p, p)
        elif table[p] == 4:  # one run: the slice _translate or _zero would take
            table[2 * p :: p] = table[2 * p :: p].translate(_FLIP)
            square = p * p
            if square <= x:
                table[square::square] = table[square::square].translate(_SQUARE)
        else:
            table[p::p] = bytearray(x // p)
    _band_add(table, table, _ACTION, _BAND, x)
    return table


def _band_top(x: int) -> int:
    """The primes up to x // top take one step each, the rest go in bands."""
    return max(1, min(8, math.isqrt(x // 64)))


def _band_add(target: bytearray, source: bytearray, action: bytes, result: bytes, x: int) -> None:
    """For each odd p in a band x // (k + 1) < p <= x // k, k < top =
    min(8, isqrt(x // 64)): adds source[p], translated through ``action``, to
    target[j*p] for j <= k, and translates the sums through ``result``.  A
    band's odd n are one integer a _CHUNK at a time, added to the k strided
    slices of their multiples (carry-free while each sum is below 256).  No
    bands below x = 256 (top 1): a band pays for its k slices only when it
    holds many primes."""
    for k in range(1, _band_top(x)):
        for run in _runs((x // (k + 1) + 1) | 1, x // k + 1, 2):
            a, b = run.start, run.stop
            size = len(range(a, b, 2))
            addend = int.from_bytes(source[run].translate(action), "little")
            for j in range(1, k + 1) if addend else ():
                entries = slice(j * a, j * b, 2 * j)
                total = int.from_bytes(target[entries], "little") + addend
                target[entries] = total.to_bytes(size, "little").translate(result)


def member_table(spec: PrimeSetSpec, x: int) -> bytearray:
    """The code table of <P> up to x."""
    check_limit(x)
    return _code_table(_member_marks(spec, x), x)


def code_tables(spec: PrimeSetSpec, x: int) -> Iterator[bytearray]:
    """The membership flags of <P'> up to x, then the code table of <P>, each
    built when asked for; the limit is checked at the call.  <P'> is the
    n >= 1 that no member prime divides, so its flags are sieved from the
    members alone, sharing no code with the table of <P>.  A finite set's
    come from its list (a p > x zeroes an empty slice), with no marks until
    the table of <P> needs them; any other set's member primes up to
    x // top take one step each, and the larger ones go in bands."""
    check_limit(x)
    return _code_tables(spec, x)


def _code_tables(spec: PrimeSetSpec, x: int) -> Iterator[bytearray]:
    finite = isinstance(spec, FinitePrimes)
    marks = None if finite else _member_marks(spec, x)
    members = spec.primes if finite else _coded_primes(marks, _MEMBER, x // _band_top(x) + 1)
    outside = bytearray(b"\x01") * (x + 1)
    outside[0] = 0
    for p in members:
        if x // p > _CHUNK:
            _zero(outside, p, p)
        else:  # one run: the slice _zero would take, without its call
            outside[p::p] = bytearray(x // p)
    if not finite:
        _band_add(outside, marks, _OUTSIDE_ACTION, _OUTSIDE_BAND, x)
    yield outside
    del outside  # gone before the table of <P> is built
    yield _code_table(_member_marks(spec, x) if finite else marks, x)


def smooth_split(spec: PrimeSetSpec, x: int) -> tuple[bytearray, array]:
    """The code table up to x of the semigroup generated by the members up to
    isqrt(x), and the members above it, ascending, from one membership pass:
    the members above isqrt(x) are read off the marks, then marked as other
    primes."""
    check_limit(x)
    marks = _member_marks(spec, x)
    root = math.isqrt(x)
    members = array("I", _coded_primes(marks, _MEMBER, start=root + 1))
    _translate(marks, _PRIME, root + 1)
    return _code_table(marks, x), members


def table_runs(table: bytearray, start: int, stop: int, squarefree_only: bool) -> Iterator[tuple]:
    """For each run of a code table from start to stop: two iterators, of its
    members n, ascending, and of their mu(n).  The run is translated once,
    into mu as a signed byte, and that mask selects the squarefree members;
    without squarefree_only the run's codes select every member, mu 0 too."""
    for run in _runs(start, stop, 1):
        codes = table[run]
        signed = codes.translate(_SIGNED_MU)
        mask = signed if squarefree_only else codes
        mus = compress(memoryview(signed).cast("b"), mask)
        yield compress(range(run.start, run.stop), mask), mus


def table_terms(table: bytearray, x: int, squarefree_only: bool) -> Iterator[tuple[int, int]]:
    """(n, mu(n)) for the members n <= x of a code table, ascending; with
    squarefree_only, the mu == 0 members are left out."""
    return chain.from_iterable(starmap(zip, table_runs(table, 0, x + 1, squarefree_only)))


def table_count_squarefree(table: bytearray, start: int, stop: int) -> int:
    """The number of squarefree members start <= n < stop of a code table."""
    return stop - start - table.count(0, start, stop) - table.count(3, start, stop)


def table_primes(table: bytearray, x: int) -> Iterator[int]:
    """The generating primes p <= x of a code table, ascending."""
    return _coded_primes(table, _GENERATOR, x + 1)


def table_mobius_sum(table: bytearray, start: int, stop: int) -> int:
    """The sum of mu(n) over the members start <= n < stop of a code table."""
    return table.count(1, start, stop) - table.count(2, start, stop) - table.count(4, start, stop)


def _quotients(table: bytearray, start: int, stop: int, extra: tuple) -> Iterator[float]:
    """mu(n) / n for the squarefree members start <= n < stop, then
    ``extra``."""
    runs = (map(truediv, mus, ns) for ns, mus in table_runs(table, start, stop, True))
    return chain.from_iterable(chain(runs, (extra,)))


def table_fsums(table: bytearray, grid: Sequence[int]) -> Iterator[tuple[float, int]]:
    """For each x of an ascending grid, the sum of mu(n)/n over the
    squarefree members n <= x of a code table, correctly rounded, and their
    number.

    ``math.fsum`` is correctly rounded whatever the order of its terms
    (Shewchuk 1997), so each value has the bits of any fsum of the same
    terms.  Each segment between grid points is read twice: with the exact
    prefix held as hi + lo, the next value is fsum(segment, hi, lo) and the
    next lo is fsum(segment, hi, lo, -value), exact below MAX_SIEVE_LIMIT
    (see Route costs).  The second read is skipped after the last point.
    """
    hi = lo = 0.0
    count = start = 0
    for i, x in enumerate(grid, 1):
        stop = x + 1
        value = math.fsum(_quotients(table, start, stop, (hi, lo)))
        count += table_count_squarefree(table, start, stop)
        yield value, count
        if i < len(grid):
            lo = math.fsum(_quotients(table, start, stop, (hi, lo, -value)))
        hi, start = value, stop


def table_floor_sum(table: bytearray, x: int) -> int:
    """The sum of mu(d) * (x // d) over the members d <= x of a code table.

    Term-wise for d <= isqrt(x).  Above it, x // d takes each value
    q <= x // (isqrt(x) + 1) on the block x // (q + 1) < d <= x // q, which
    adds q times its sum of mu: three ``bytes.count`` calls for each of
    about sqrt(x) blocks (the floor-block grouping of Deleglise & Rivat
    1996).
    """
    s = math.isqrt(x)
    runs = table_runs(table, 0, s + 1, True)
    total = sum(sum(map(mul, mus, map(x.__floordiv__, ns))) for ns, mus in runs)
    for q in range(1, x // (s + 1) + 1):
        total += q * table_mobius_sum(table, max(s, x // (q + 1)) + 1, x // q + 1)
    return total


def _product_stream(primes: tuple[int, ...], x: int, squarefree_only: bool
                    ) -> Iterator[tuple[int, int]]:
    """(n, mu(n)) for each product n <= x of the ascending generators
    ``primes`` once, in no set order: depth first from 1, each member is
    extended by the generators from the last one it used (after it with
    squarefree_only) to the first product past x.  Each product is formed
    in index order, so ascending real generators > 1 work too."""
    stack = [(1, 1, -1)] if x >= 1 else []
    while stack:
        n, mu, i = stack.pop()
        yield n, mu
        for j in range(i + 1 if squarefree_only else max(i, 0), len(primes)):
            m = n * primes[j]
            if m > x:
                break
            stack.append((m, 0 if j == i else -mu, j))


def _heap_primes(spec: PrimeSetSpec, backend: str) -> tuple[int, ...] | None:
    """The primes whose products the heap route walks, or None for the table."""
    if backend not in ("sieve", "heap", "auto"):
        raise UsageError(f"unknown backend {backend!r} (expected sieve, heap or auto)")
    if backend == "heap" and not isinstance(spec, FinitePrimes):
        raise UsageError("the heap backend requires a finite prime set")
    small = isinstance(spec, FinitePrimes) and len(spec.primes) <= _AUTO_HEAP_MAX_PRIMES
    return spec.primes if backend == "heap" or backend == "auto" and small else None


def enumerate_terms(
    spec: PrimeSetSpec, x: int, options: EnumerationOptions = EnumerationOptions()
) -> Iterator[tuple[int, int]]:
    """Yield (n, mu(n)) for every n in <P> with n <= x exactly once, in
    strictly increasing order.  With squarefree_only, mu == 0 terms are
    omitted.  x = 0 yields an empty stream."""
    check_limit(x)
    primes = _heap_primes(spec, options.backend)
    if primes is not None:
        return iter(sorted(_product_stream(primes, x, options.squarefree_only)))
    return table_terms(member_table(spec, x), x, options.squarefree_only)


def squarefree_terms(spec: PrimeSetSpec, x: int) -> Iterator[tuple[int, int]]:
    """(n, mu(n)) for the nonzero-mu members of <P> up to x: ascending off
    the table, and in no set order for a finite set, whose products are
    walked with no table since it has at most 2**|P| squarefree members."""
    if isinstance(spec, FinitePrimes):
        return _product_stream(spec.primes, x, True)
    return table_terms(member_table(spec, x), x, True)


def tally(spec: PrimeSetSpec, x: int) -> tuple[int, int]:
    """(#{n <= x : n in <P>}, sum of mu(n) over those n) by the auto
    backend."""
    check_limit(x)
    primes = _heap_primes(spec, "auto")
    if primes is not None:
        mus = [mu for _, mu in _product_stream(primes, x, False)]
        return len(mus), sum(mus)
    table = member_table(spec, x)
    return x + 1 - table.count(0), table_mobius_sum(table, 0, x + 1)  # table[0] == 0


def count_members(spec: PrimeSetSpec, x: int) -> int:
    """#{n <= x : n in <P>}."""
    return tally(spec, x)[0]


def count_members_outside(spec: PrimeSetSpec, x: int) -> int:
    """#{n <= x : every prime factor of n lies outside P} -- the size of the
    complementary semigroup <P'> up to x, counted on its flags, sieved from
    the members of P, rather than by subtraction."""
    return next(code_tables(spec, x)).count(1)


def density(spec: PrimeSetSpec, x: int) -> float:
    """count_members(spec, x) / x."""
    if x < 1:
        raise DomainError(f"density requires x >= 1, got {x}")
    return count_members(spec, x) / x
