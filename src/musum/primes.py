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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from mpmath import mp

from .errors import DomainError, ResourceError, SpecParseError

# Sieving above this limit is refused rather than attempted; the byte-per-odd
# sieve would need ~50 MB at the ceiling and the package makes no claims
# about prime counting beyond it.
MAX_SIEVE_LIMIT = 10**8

# Working precision (binary digits) for the log-fraction membership test.
# Doubles carry 53 fraction bits; the policy asks for at least 64, so the
# comparison is done in mpmath at 96 bits.  Membership within 1e-12 of the
# boundary is accepted as-is and may be platform-sensitive.
LOGFRAC_PRECISION_BITS = 96

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    The witness set is sufficient for every n < 3.3 * 10**24, far beyond the
    sieving ceiling of this package.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    if limit < 0:
        raise DomainError(f"sieve limit must be >= 0, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(
            f"sieve limit {limit} exceeds the configured ceiling {MAX_SIEVE_LIMIT}"
        )
    if limit < 2:
        return PrimeTable(limit, ())
    return PrimeTable(limit, tuple(i for i, f in enumerate(_prime_flags(limit)) if f))


def _prime_flags(limit: int) -> bytearray:
    """flags[n] = 1 if n is prime else 0, for 0 <= n <= limit; one byte per
    n.  The caller checks the limit."""
    flags = (bytearray(2) + bytearray([1]) * (limit - 1))[: limit + 1]
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return flags


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
    prime).  The comparison runs at LOGFRAC_PRECISION_BITS of precision."""

    t: float
    width: float
    shift: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "shift", float(self.shift))
        if self.t == 0.0 or not math.isfinite(self.t):
            raise DomainError("logfrac scale t must be a finite nonzero real")
        if not 0.0 <= self.width <= 0.5:
            raise DomainError(f"logfrac width must lie in [0, 0.5], got {self.width}")
        if not 0.0 <= self.shift < 1.0:
            raise DomainError(f"logfrac shift must lie in [0, 1), got {self.shift}")


def _logfrac_distance(spec: LogFracPrimes, p: int):
    """Distance from t*ln(p)/(2*pi) - shift to the nearest integer (mpmath)."""
    with mp.workprec(LOGFRAC_PRECISION_BITS):
        y = mp.mpf(spec.t) * mp.log(p) / (2 * mp.pi) - mp.mpf(spec.shift)
        frac = y - mp.floor(y)
        return min(frac, 1 - frac)


def _member(spec: PrimeSetSpec, p: int) -> bool:
    """Membership predicate; assumes p is prime."""
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
        with mp.workprec(LOGFRAC_PRECISION_BITS):
            return _logfrac_distance(spec, p) <= mp.mpf(spec.width)
    raise TypeError(f"unknown prime-set form: {type(spec).__name__}")


def is_member(spec: PrimeSetSpec, p: int) -> bool:
    """True iff the prime p belongs to the set described by ``spec``.

    Raises DomainError when p is not prime.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _member(spec, p)


def primes_in(spec: PrimeSetSpec, limit: int) -> list[int]:
    """Ascending list of the members of the set that are <= limit."""
    table = sieve_primes(limit)
    if isinstance(spec, AllPrimes):
        return list(table.primes)
    if isinstance(spec, FinitePrimes):
        return [p for p in spec.primes if p <= limit]
    if isinstance(spec, CofinitePrimes):
        banned = set(spec.excluded)
        return [p for p in table.primes if p not in banned]
    return [p for p in table.primes if _member(spec, p)]


_INT_RE = re.compile(r"-?\d+$")
_RESIDUE_RE = re.compile(r"(-?\d+) mod (\d+)$")


def _parse_int(token: str, pos: int, what: str) -> int:
    if not _INT_RE.match(token):
        raise SpecParseError(f"expected an integer {what}, got {token!r}", pos)
    return int(token)


def _parse_real(token: str, pos: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SpecParseError(f"expected a real number {what}, got {token!r}", pos) from None
    if not math.isfinite(value):
        raise SpecParseError(f"{what} must be finite, got {token!r}", pos)
    return value


def _parse_prime_list(body: str, offset: int, what: str) -> tuple[int, ...]:
    if body == "":
        return ()
    primes = []
    pos = offset
    for token in body.split(","):
        value = _parse_int(token, pos, "prime")
        if not is_prime(value):
            raise SpecParseError(f"{value} is not prime", pos)
        primes.append(value)
        pos += len(token) + 1
    return tuple(primes)


def parse_spec(text: str) -> PrimeSetSpec:
    """Parse the prime-set grammar; raises SpecParseError with a position."""
    if text == "all":
        return AllPrimes()
    head, sep, body = text.partition(":")
    if not sep:
        raise SpecParseError(f"unrecognised prime-set form {text!r}", 0)
    offset = len(head) + 1
    if head == "finite":
        return FinitePrimes(_parse_prime_list(body, offset, "finite"))
    if head == "cofinite":
        return CofinitePrimes(_parse_prime_list(body, offset, "cofinite"))
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
        a = int(m.group(1))
        modulus = int(m.group(2))
        if modulus < 2:
            raise SpecParseError(f"residue modulus must be >= 2, got {modulus}", offset + m.start(2))
        return ResiduePrimes(a, modulus)
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
