"""Prime generation and symbolic prime-set descriptions.

A prime set P is described symbolically so that membership of any prime is
decidable by a pure predicate, without materialising the set.  Six forms are
supported:

* ``AllPrimes``      -- every prime;
* ``FinitePrimes``   -- an explicit finite list;
* ``CofinitePrimes`` -- every prime except an explicit finite list;
* ``IntervalPrimes`` -- primes p with lo < p <= hi (half-open on the left, so
  a window such as "primes between sqrt(x) and x" is expressible exactly);
* ``ResiduePrimes``  -- primes p = a (mod m);
* ``LogFracPrimes``  -- primes whose scaled logarithm t*ln(p)/(2*pi) lies
  within ``width`` of an integer after subtracting ``shift``.  Width 0.5
  therefore accepts every prime.

The textual grammar (used by the CLI ``--set`` argument) is::

    all | finite:p1,p2,... | cofinite:p1,p2,... | interval:LO..HI
        | residue:A mod M | logfrac:t=T,w=W,s=S

``parse_spec`` and ``render_spec`` round-trip every representable value.

Membership of every prime up to a limit is decided in one pass over one
array of a byte per n: the sieve flags each prime with 1, and
``_mark_members`` turns the 1 of each member into a 2 in place.  The five
arithmetic forms mark by slice translations.  A log-fraction set up to L is
the union of about |t|*ln(L)/(2*pi) + 1 intervals of p, one per integer
that t*ln(p)/(2*pi) - shift comes within the width of, and these are
marked by slice translations too.  Only the primes in a window around an
endpoint, of proved relative width (see _LOGFRAC_WINDOW), are decided one
at a time: in double precision wherever the distance to the width boundary
exceeds a generous bound on the rounding error, and by the
extended-precision test of ``is_member`` inside that band, so every route
makes the same decision for every prime.  When the intervals would cost
more than that walk over every prime, every prime takes it.
``member_flags`` reads 0/1 flags off the marks and ``member_primes`` the
members themselves; the code table of ``semigroup`` is built on the same
array.  Every strided or long run of the array is read and written _CHUNK
entries at a time, so no temporary grows with the limit.  Listings read
long runs off the mod-30 wheel, making ints only for members (_coded_primes).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields
from itertools import chain, compress, repeat
from operator import add
from typing import Iterator

from .errors import DomainError, ResourceError, SpecParseError

# check_limit refuses every sieve and table above this limit; the flags hold
# a byte per n, 100 MB at the ceiling, and building them takes no more than
# that and a few chunks.  The package makes no claims about prime counting
# beyond it.
MAX_SIEVE_LIMIT = 10**8

# The most entries that one step over a run of a byte-per-n array reads or
# writes: each temporary of the sieve, the marking, the code table's walk
# and its readers holds at most a chunk, whatever the limit.
_CHUNK = 1 << 14

_SPOKES = (1, 7, 11, 13, 17, 19, 23, 29)  # the units mod 30, which hold every prime from 7 up

# Translations of the marks, which hold 1 at a prime, 2 at a member prime
# and 0 elsewhere: _PRIME gives 1 at every prime, _MEMBER 1 at a member
# prime, and _MARK marks every prime as a member.
_PRIME = bytes((0, 1, 1)) + bytes(253)
_MEMBER = bytes((0, 0, 1)) + bytes(253)
_MARK = bytes((0, 2, 2)) + bytes(253)

# Working precision (binary digits) of the reference log-fraction test,
# which ``is_member`` runs for every prime and ``member_flags`` runs only
# inside the band below.  The decision is the one at 96 bits in mpmath.
LOGFRAC_PRECISION_BITS = 96

# Certified double-precision filter.  In doubles, y = t*ln(p)/(2*pi) - shift
# comes out within a few multiples of 2**-52 * (1 + |y|) of its exact value,
# even if math.log is off by several ulps; the 96-bit reference value is far
# closer still, and the distance to the nearest integer moves by at most as
# much as y does.  So wherever the double distance is more than
# 2**-30 * (1 + |y|) away from the width, the double decision is the
# reference decision; inside that band the reference test decides.
_LOGFRAC_BAND = 2.0**-30

# Interval marks.  The walk's gap, the distance from y = t*ln(p)/(2*pi) -
# shift to the nearest integer less the width, is in magnitude the distance
# from u(p) to the nearest endpoint c of the member intervals (see
# _logfrac_marks), and negative inside them.  The walk runs on the primes
# that the window of an endpoint holds, and that window holds every p with
# |u(p) - c| <= _LOGFRAC_WINDOW * (2 + |c|).  Half of that margin,
# 2**-29 * (2 + |c|), takes in every prime that the filter sends to the
# reference: there |y| <= |c| + 1 + margin, and the band
# 2**-30 * (1 + |y|) plus the double error of y fits inside it.  So every
# prime outside the windows takes the double decision in the walk, which is
# the exact one, and lies strictly on one side of every endpoint, so the
# interval marks give it the same decision.  The other half covers the
# doubles that place the window: c = k + shift -+ width, within
# 2**-51 * (1 + |c|); c -+ margin; its product with 2*pi/|t|, within
# 2**-51 relatively; and exp, within an ulp, which is within 2**-51 * u(p)
# for p >= 2.  Together they stay below 2**-48 * (2 + |c|).  floor and
# ceil then round the window out to integers.  A window wholly below 2
# holds no prime, and one that errs past 2 only walks more primes.
_LOGFRAC_WINDOW = 2.0**-28

# The prime bases 2..41 admit no strong pseudoprime below MR_PROVEN_BOUND
# (OEIS A014233); 2..37 admit 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test over the prime bases 2..41.

    Proven for every n < MR_PROVEN_BOUND (about 3.3 * 10**24), far beyond the
    sieving ceiling of this package; above it, a strong probable-prime test.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending and complete."""

    limit: int
    primes: tuple[int, ...]


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes: every prime <= limit, ascending.

    Raises ResourceError above MAX_SIEVE_LIMIT.
    """
    check_limit(limit)
    return PrimeTable(limit, tuple(_coded_primes(_prime_flags(limit), _PRIME)))


def check_limit(limit: int) -> None:
    """The one bound check of every sieve and table, made before anything is
    allocated: DomainError below 0, ResourceError above MAX_SIEVE_LIMIT."""
    if limit < 0:
        raise DomainError(f"enumeration bound must be >= 0, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(f"enumeration up to {limit} exceeds the configured ceiling "
                            f"{MAX_SIEVE_LIMIT}")


def _runs(start: int, stop: int, step: int) -> Iterator[slice]:
    """The slices that cut range(start, stop, step) into runs of _CHUNK
    entries (the last may be shorter); a range of at most a chunk is one."""
    span = step * _CHUNK
    if stop - start <= span:
        return iter((slice(start, stop, step),))
    return (slice(a, min(a + span, stop), step) for a in range(start, stop, span))


def _zero(array: bytearray, start: int, step: int) -> None:
    """array[start::step] = 0 for start < len(array), a run of at most
    _CHUNK bytes at a time.  Each run is a new bytearray, which slice
    assignment does not copy again (it copies bytes)."""
    span = step * _CHUNK
    while len(array) - start > span:
        array[start : start + span : step] = bytearray(_CHUNK)
        start += span
    array[start::step] = bytearray((len(array) - 1 - start) // step + 1)


def _translate(array: bytearray, codes: bytes, start: int = 0, step: int = 1,
               stop: int | None = None) -> None:
    """array[start:stop:step] translated through ``codes`` in place, a run
    of at most _CHUNK entries at a time."""
    stop = len(array) if stop is None else stop
    span = step * _CHUNK
    while stop - start > span:
        array[start : start + span : step] = array[start : start + span : step].translate(codes)
        start += span
    array[start:stop:step] = array[start:stop:step].translate(codes)


def _prime_flags(limit: int) -> bytearray:
    """flags[n] = 1 if n is prime else 0, for 0 <= n <= limit, in one
    allocation of a byte per n.  The caller checks the limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            count = (limit - p * p) // p + 1
            if count > _CHUNK:
                _zero(flags, p * p, p)
            else:  # one run: the slice _zero would take, without its call
                flags[p * p :: p] = bytearray(count)
    return flags


def _coded_primes(array: bytearray, codes: bytes, stop: int | None = None,
                  start: int = 0) -> Iterator[int]:
    """The primes start <= p < stop (by default, all of the array) whose
    entry ``codes`` maps to nonzero, ascending; ``codes`` maps 0 and every
    composite's entry to 0.  A listing of at most one run of odd n (2 *
    _CHUNK n) reads 2, then the odd n of that run.  A longer one reads 2, 3
    and 5, then blocks of max(1, _CHUNK // 128) turns of the mod-30 wheel:
    strided slices gather a block's 8 spokes into one selector over a tuple
    of offsets, so only members become ints.  Each call builds that tuple,
    which no table then outlives, and which a single run would not repay.
    Each run or block is translated when the walk reaches it, so a caller
    may change composites' entries ahead of the walk, and a prime's at its turn."""
    stop = len(array) if stop is None else stop
    if stop - start > 2 * _CHUNK:
        head = tuple(p for p in (2, 3, 5) if start <= p < stop and codes[array[p]])
        return chain.from_iterable(chain((head,), _wheel_blocks(array, codes, max(start, 7), stop)))
    head = (2,) if start <= 2 < stop and codes[array[2]] else ()
    odd = (compress(range(run.start, run.stop, 2), array[run].translate(codes))
           for run in _runs(max(start | 1, 3), stop, 2))
    return chain.from_iterable(chain((head,), odd))


def _wheel_blocks(array: bytearray, codes: bytes, start: int, stop: int) -> Iterator[Iterator[int]]:
    """The listing of _coded_primes from p >= 7, block by block."""
    span = 30 * max(1, _CHUNK // 128)
    offsets = tuple(chain.from_iterable(zip(*(range(spoke, span, 30) for spoke in _SPOKES))))
    for base in range(start - start % 30, stop, span):
        block = array[base : min(base + span, stop)]
        if base < start:  # the first turn's n below start, read as 0
            block[: start - base] = bytes(start - base)
        block += bytes(-len(block) % 30)  # the last turn, padded with 0
        selector = bytearray(len(block) // 30 * 8)
        for k, spoke in enumerate(_SPOKES):
            selector[k::8] = block[spoke::30]
        yield map(add, compress(offsets, selector.translate(codes)), repeat(base))


class PrimeSetSpec:
    """Base class for the symbolic prime-set forms above."""

    __slots__ = ()


def _normalized_prime_tuple(primes, what: str) -> tuple[int, ...]:
    out = tuple(sorted(set(int(p) for p in primes)))
    for p in out:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime ({what} lists may only contain primes)")
    return out


@dataclass(frozen=True)
class AllPrimes(PrimeSetSpec):
    pass


@dataclass(frozen=True)
class FinitePrimes(PrimeSetSpec):
    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", _normalized_prime_tuple(self.primes, "finite"))


@dataclass(frozen=True)
class CofinitePrimes(PrimeSetSpec):
    excluded: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "excluded", _normalized_prime_tuple(self.excluded, "cofinite"))


@dataclass(frozen=True)
class IntervalPrimes(PrimeSetSpec):
    """Primes p with lo < p <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("interval bounds must be finite reals")


@dataclass(frozen=True)
class ResiduePrimes(PrimeSetSpec):
    """Primes p = a (mod m); a is stored reduced into [0, m)."""

    a: int
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"residue modulus must be >= 2, got {self.m}")
        object.__setattr__(self, "a", int(self.a) % int(self.m))


@dataclass(frozen=True)
class LogFracPrimes(PrimeSetSpec):
    """Primes p whose value t*ln(p)/(2*pi) - shift is within ``width`` of an
    integer (distance to the nearest integer, so width 0.5 accepts every
    prime).  Membership is the comparison at LOGFRAC_PRECISION_BITS of
    precision."""

    t: float
    width: float
    shift: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "shift", float(self.shift))
        if self.t == 0.0 or not math.isfinite(self.t):
            raise DomainError("logfrac scale t must be a finite nonzero real")
        # |t| <= 1e8 keeps |y| below 1e8 * ln(1e8) / (2*pi) + 1 < 2**29 for
        # every prime up to MAX_SIEVE_LIMIT, where the filter band is < 1/2.
        if abs(self.t) > 1e8:
            raise DomainError(f"logfrac scale |t| must be at most 1e8, got {self.t!r}")
        if not 0.0 <= self.width <= 0.5:
            raise DomainError(f"logfrac width must lie in [0, 0.5], got {self.width}")
        if not 0.0 <= self.shift < 1.0:
            raise DomainError(f"logfrac shift must lie in [0, 1), got {self.shift}")


@functools.cache
def _mp_context(prec: int):
    """A private mpmath context at ``prec`` bits, built on first use.  The
    reference routes run in it, so they never set the precision of the
    process-wide ``mpmath.mp``, and importing this module loads no mpmath."""
    from mpmath import MPContext

    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _logfrac_member(spec: LogFracPrimes, p: int) -> bool:
    """The reference log-fraction test at LOGFRAC_PRECISION_BITS: the distance
    from t*ln(p)/(2*pi) - shift to the nearest integer, in mpmath."""
    mp = _mp_context(LOGFRAC_PRECISION_BITS)
    y = mp.mpf(spec.t) * mp.log(p) / (2 * mp.pi) - mp.mpf(spec.shift)
    frac = y - mp.floor(y)
    return min(frac, 1 - frac) <= spec.width


def is_member(spec: PrimeSetSpec, p: int) -> bool:
    """True iff the prime p belongs to the set described by ``spec``, decided
    for p alone (log-fraction sets by the reference test).

    Raises DomainError when p is not prime.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if isinstance(spec, AllPrimes):
        return True
    if isinstance(spec, FinitePrimes):
        return p in spec.primes
    if isinstance(spec, CofinitePrimes):
        return p not in spec.excluded
    if isinstance(spec, IntervalPrimes):
        return spec.lo < p <= spec.hi
    if isinstance(spec, ResiduePrimes):
        return p % spec.m == spec.a
    if isinstance(spec, LogFracPrimes):
        return _logfrac_member(spec, p)
    raise TypeError(f"unknown prime-set form: {type(spec).__name__}")


def member_flags(spec: PrimeSetSpec, limit: int) -> bytearray:
    """flags[n] = 1 if n is a member of the set else 0, for 0 <= n <= limit,
    read off the marks in place (for every prime, the sieve flags as they
    are).

    Raises DomainError below 0 and ResourceError above MAX_SIEVE_LIMIT, for
    every form.
    """
    check_limit(limit)
    if isinstance(spec, AllPrimes):
        return _prime_flags(limit)
    flags = _member_marks(spec, limit)
    _translate(flags, _MEMBER)
    return flags


def _member_marks(spec: PrimeSetSpec, limit: int) -> bytearray:
    """The marks of 0..limit: 2 at a member prime, 1 at any other prime, 0
    elsewhere.  The caller checks the limit."""
    return _mark_members(spec, _prime_flags(limit))


def _mark_members(spec: PrimeSetSpec, flags: bytearray) -> bytearray:
    """Marks the members among the primes flagged 1 in ``flags`` with 2, in
    place, and returns ``flags``."""
    size = len(flags)
    if isinstance(spec, AllPrimes):
        _translate(flags, _MARK)
    elif isinstance(spec, FinitePrimes):
        for p in spec.primes:
            if p < size:
                flags[p] = 2
    elif isinstance(spec, CofinitePrimes):
        _translate(flags, _MARK)
        for p in spec.excluded:
            if p < size:
                flags[p] = 1
    elif isinstance(spec, IntervalPrimes):
        # lo < p <= hi for an integer p means floor(lo) < p <= floor(hi).
        start = max(math.floor(spec.lo) + 1, 0)
        stop = min(math.floor(spec.hi) + 1, size)
        if start < stop:
            _translate(flags, _MARK, start, 1, stop)
    elif isinstance(spec, ResiduePrimes):
        _translate(flags, _MARK, spec.a, spec.m)
    elif isinstance(spec, LogFracPrimes):
        _logfrac_marks(spec, flags)
    else:
        raise TypeError(f"unknown prime-set form: {type(spec).__name__}")
    return flags


def _logfrac_marks(spec: LogFracPrimes, flags: bytearray) -> int:
    """Marks the members of a log-fraction set among the primes flagged 1 in
    ``flags`` with 2, in place; returns the number of primes the reference
    test had to decide (see _LOGFRAC_BAND).

    The members are the primes p whose u(p) = |t|*ln(p)/(2*pi) lies in
    [z - width, z + width] for z = k + shift (k - shift when t < 0) and some
    integer k.  These intervals of p are marked by slice translation, and
    the walk runs only in the window of each endpoint (see _LOGFRAC_WINDOW),
    so that the marks and the count are the walk's.  When the intervals, at
    about four walk steps each, would cost more than the walk over the
    primes, counted as limit / ln(limit) (a lower bound from 17 up), every
    prime takes the walk instead."""
    limit = len(flags) - 1
    if limit < 2:
        return 0
    to_u = abs(spec.t) / (2.0 * math.pi)
    centre = spec.shift if spec.t > 0.0 else -spec.shift
    width = spec.width
    # u(2) > z_(first - 1) + width + 1 and u(limit) < z_last - width - 1.
    first = math.floor(to_u * math.log(2) - centre - width) - 1
    last = math.ceil(to_u * math.log(limit) - centre + width) + 1
    # Per interval: two windows, their sort and a translation.
    if 4 * (last - first + 1) > limit / math.log(limit):
        return _logfrac_walk(spec, flags, _coded_primes(flags, _PRIME))
    to_log = 2.0 * math.pi / abs(spec.t)  # ln p = u * to_log; inf for tiny |t|
    exp, floor, ceil = math.exp, math.floor, math.ceil
    past = limit + 1  # stands for any p past the limit; exp(40) is past them all
    windows = []
    for k in range(first, last + 1):
        z = k + centre
        for end in (z - width, z + width):
            margin = _LOGFRAC_WINDOW * (2.0 + abs(end))
            low, high = end - margin, end + margin
            ln_low, ln_high = low * to_log, high * to_log
            windows.append((0 if low <= 0.0 else floor(exp(ln_low)) if ln_low < 40.0 else past,
                            0 if high <= 0.0 else ceil(exp(ln_high)) if ln_high < 40.0 else past))
    # In ascending order of their starts, the n below a window that no
    # earlier window holds lie past as many endpoints as there are earlier
    # windows: inside an interval after an odd number, outside after an
    # even one.
    windows.sort()
    fallbacks = 0
    start = 2  # every n < start is decided
    inside = False
    for low, high in windows:
        if low > limit:
            break
        if high < start:  # wholly below start: only its endpoint's parity counts
            inside = not inside
            continue
        if inside:  # an empty or reversed range translates nothing
            _translate(flags, _MARK, start, 1, low)
        low, high = max(low, start), min(high, limit)
        if flags.find(1, low, high + 1) >= 0:  # -1 when low > high
            fallbacks += _logfrac_walk(spec, flags, _coded_primes(flags, _PRIME, high + 1, low))
        start = high + 1
        inside = not inside
    if inside:
        _translate(flags, _MARK, start, 1, limit + 1)
    return fallbacks


def _logfrac_walk(spec: LogFracPrimes, flags: bytearray, primes: Iterator[int]) -> int:
    """Marks each of ``primes`` (flagged 1) that is a member with 2, by the
    double filter and inside its band by the reference test; returns the
    number of primes the reference decided."""
    scale = spec.t / (2.0 * math.pi)
    shift = spec.shift
    width = spec.width
    log = math.log
    floor = math.floor
    fallbacks = 0
    for p in primes:
        y = scale * log(p) - shift
        frac = y - floor(y)
        gap = (frac if frac <= 0.5 else 1.0 - frac) - width
        if abs(gap) > _LOGFRAC_BAND * (1.0 + abs(y)):
            if gap < 0.0:
                flags[p] = 2
            continue
        fallbacks += 1
        if _logfrac_member(spec, p):
            flags[p] = 2
    return fallbacks


def member_primes(spec: PrimeSetSpec, limit: int) -> Iterator[int]:
    """The members of the set that are <= limit, ascending, as an iterator
    over the marks; a finite set's are read off its list, without sieving,
    and every prime off the sieve flags, without marks.
    The limit is checked at the call."""
    check_limit(limit)
    if isinstance(spec, FinitePrimes):
        return (p for p in spec.primes if p <= limit)
    if isinstance(spec, AllPrimes):
        return _coded_primes(_prime_flags(limit), _PRIME)
    return _coded_primes(_member_marks(spec, limit), _MEMBER)


def primes_in(spec: PrimeSetSpec, limit: int) -> list[int]:
    """Ascending list of the members of the set that are <= limit."""
    return list(member_primes(spec, limit))


_INT_RE = re.compile(r"-?\d+$")
_RESIDUE_RE = re.compile(r"(-?\d+) mod (\d+)$")


def _parse_real(token: str, pos: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SpecParseError(f"expected a real number {what}, got {token!r}", pos) from None
    if not math.isfinite(value):
        raise SpecParseError(f"{what} must be finite, got {token!r}", pos)
    return value


def _parse_prime_list(body: str, offset: int) -> tuple[int, ...]:
    """The listed primes, sorted and without repeats, each checked once."""
    if body == "":
        return ()
    primes = []
    pos = offset
    for token in body.split(","):
        if not _INT_RE.match(token):
            raise SpecParseError(f"expected an integer prime, got {token!r}", pos)
        value = int(token)
        if not is_prime(value):
            raise SpecParseError(f"{value} is not prime", pos)
        primes.append(value)
        pos += len(token) + 1
    return tuple(sorted(set(primes)))


def parse_spec(text: str) -> PrimeSetSpec:
    """Parse the prime-set grammar; raises SpecParseError with a position."""
    if text == "all":
        return AllPrimes()
    head, sep, body = text.partition(":")
    if not sep:
        raise SpecParseError(f"unrecognised prime-set form {text!r}", 0)
    offset = len(head) + 1
    if head in ("finite", "cofinite"):
        # The list is checked as it is parsed, so __post_init__'s check is skipped.
        spec = object.__new__(FinitePrimes if head == "finite" else CofinitePrimes)
        object.__setattr__(spec, fields(spec)[0].name, _parse_prime_list(body, offset))
        return spec
    if head == "interval":
        lo_text, sep2, hi_text = body.partition("..")
        if not sep2:
            raise SpecParseError("interval requires the form LO..HI", offset)
        lo = _parse_real(lo_text, offset, "lower bound")
        hi = _parse_real(hi_text, offset + len(lo_text) + 2, "upper bound")
        return IntervalPrimes(lo, hi)
    if head == "residue":
        m = _RESIDUE_RE.match(body)
        if not m:
            raise SpecParseError("residue requires the form A mod M", offset)
        try:
            return ResiduePrimes(int(m.group(1)), int(m.group(2)))
        except DomainError as exc:
            raise SpecParseError(str(exc), offset + m.start(2)) from None
    if head == "logfrac":
        m = re.match(r"t=([^,]*),w=([^,]*),s=([^,]*)$", body)
        if not m:
            raise SpecParseError("logfrac requires the form t=T,w=W,s=S", offset)
        t = _parse_real(m.group(1), offset + m.start(1), "t")
        w = _parse_real(m.group(2), offset + m.start(2), "w")
        s = _parse_real(m.group(3), offset + m.start(3), "s")
        try:
            return LogFracPrimes(t, w, s)
        except DomainError as exc:
            raise SpecParseError(str(exc), offset) from None
    raise SpecParseError(f"unrecognised prime-set form {head!r}", 0)


def render_spec(spec: PrimeSetSpec) -> str:
    """Inverse of parse_spec: parse_spec(render_spec(s)) == s."""
    if isinstance(spec, AllPrimes):
        return "all"
    if isinstance(spec, FinitePrimes):
        return "finite:" + ",".join(str(p) for p in spec.primes)
    if isinstance(spec, CofinitePrimes):
        return "cofinite:" + ",".join(str(p) for p in spec.excluded)
    if isinstance(spec, IntervalPrimes):
        return f"interval:{spec.lo!r}..{spec.hi!r}"
    if isinstance(spec, ResiduePrimes):
        return f"residue:{spec.a} mod {spec.m}"
    if isinstance(spec, LogFracPrimes):
        return f"logfrac:t={spec.t!r},w={spec.width!r},s={spec.shift!r}"
    raise TypeError(f"unknown prime-set form: {type(spec).__name__}")
