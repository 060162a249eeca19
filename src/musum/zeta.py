"""Numerical evaluation of the zeta function of a prime-generated semigroup
on the half-plane Re(s) > 1, with a rigorous truncation certificate.

For a prime set P the function

    zeta_P(s) = sum over n in <P> of n**-s = product over p in P of
                (1 - p**-s)**-1

converges absolutely for Re(s) > 1 and in general has *no* continuation
beyond that half-plane, so evaluation at Re(s) <= 1 is refused outright.
Truncating the product at p <= L changes log zeta_P by at most
2 * sum over primes p > L of p**-sigma, which is over-estimated by the
integral 2 * L**(1-sigma) / ((sigma-1) * ln L); for finite P the tail is the
finite sum over the remaining generators instead.

Factors are computed in double-precision complex arithmetic, but the phase
t*ln(p) mod 2*pi of p**-it is reduced from an extended-precision logarithm
so that large |t| cannot wash out the angle.  The phases are defined as the
doubles that the mpmath reduction at _PHASE_PRECISION_BITS returns
(``_reference_phases``).  ``_reduced_phases`` gets the same bits in three
stages of Ziv's scheme for correct rounding, each keeping a phase only when
no value inside its error band rounds differently or lets the reference wrap
past 0 or 2*pi, and passing the rest on.  Stage 1 works in doubles for
2**-12 <= |t| <= 127: the members sharing an 11-bit leading part `top` and
a `shift` form a group with one fixed-point offset t*ln(top * 2**shift) mod
2*pi, split into two doubles, to which each member adds a short atanh series
in doubles, within a band of (1 + |t|) * 2**-60.  Stage 2 computes t*ln(p)
mod 2*pi in integer fixed point to within (1 + |t*ln p|) * 2**-92 from an
11-bit table of logarithms (Tang 1990), with a band that also covers the
reference's own error.  Stage 3 is the reference itself.  Most phases are
decided in stage 1; stage 2 takes those near a rounding boundary.

On the real axis (Im(s) = 0, of either sign) every phase is 0.0, and each
factor of the complex loop comes out as exactly (1 - p**-sigma, +0.0):
exp(-1j * 0.0) is (1.0, -0.0), and multiplying it by p**-sigma and
subtracting from 1.0 leaves the imaginary part +0.0.  CPython divides
complex numbers by Smith's method, which for a divisor with zero imaginary
part divides the real part by the real divisor and keeps the imaginary
part at +0.0.  So ``zeta_p`` there reduces the doubles 1 - p**-sigma with
float division at C speed, straight off the member iterator, and gets the
bits of the complex loop.

``blowup_scan`` drives this along s = 1 + eps + i*t for descending eps over
the log-fraction prime families: the shift-0 family has every factor's
modulus strictly increasing as eps decreases (the phases cluster near 0), so
the truncated modulus blows up monotonically; the shift-1/2 family clusters
phases near pi and decays monotonically.  These are fixed-truncation trends
standing in for genuine eps -> 0 limits, which no finite computation can
certify.

``gs_constant`` evaluates the sharp lower-bound constant

    (1 - 2*ln(1 + sqrt(e)) + 4 * I) * ln 2,   I = integral of ln(t)/(t+1)
                                                  over [1, sqrt(e)]

by adaptive Simpson quadrature; its decimal expansion begins -0.4553.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub, truediv
from typing import Iterable, Iterator

from .errors import DomainError
from .primes import FinitePrimes, LogFracPrimes, PrimeSetSpec, _mp_context, member_primes, primes_in

# Working precision (binary digits) of the reference phase reduction.  At
# 96 bits, ln p, its product with t, 2*pi and the reduced value each carry a
# relative rounding error of at most 2**-95, so the reference lies within
# (1 + |t*ln p|) * 2**-93 of the exact t*ln(p) mod 2*pi, unless the exact
# value is that close to 0 or 2*pi and the reduction wraps.
_PHASE_PRECISION_BITS = 96

# Fixed-point phases, in units u = 2**-_PHASE_FRAC_BITS: 2*pi, k*ln 2 and
# ln(top) are integers within (1/2 + 2**-16) * u of their values, and
# _fixed_log is within 6u of ln p.  With ln p >= ln 2 and at most
# |t*ln p| / (2*pi) + 1 periods taken off, the fast phase is within
# (1 + |t*ln p|) * 2**-92 of the exact one, and the reference within
# (1 + |t*ln p|) * 2**-93.  Once a period is taken off (t*ln p >= 2*pi, or
# t < 0), the band is 2**-_PHASE_BAND_BITS * (1 + |t*ln p|), which holds
# the sum of both.  For 0 < t*ln p < 2*pi nothing is reduced: mpmath's mod
# returns its 96-bit product unchanged, within 2**-95 of t*ln p relatively,
# and the fast phase is within 2**-92 relatively, so the band is
# 2**-_PHASE_BAND_BITS times the phase itself.  Either band holds both the
# exact value and the reference.  The correctly rounded double of the fast
# phase is the reference's whenever both ends of the band round to the same
# normal double and the reference cannot wrap: the band stays above 0, and
# below 2*pi unless -2*pi < t*ln p < 0, where the reference adds its one
# period without reducing.  Subnormal phases, which mpmath rounds twice, all
# take the reference.
_PHASE_FRAC_BITS = 96
_PHASE_BAND_BITS = 91
# ln p = k*ln 2 + ln(top) + 2*atanh(z) for the _LOG_TOP_BITS leading bits
# `top` of p, with 0 <= z < 2**-_LOG_TOP_BITS, so three terms of the series
# past 2*z reach u; the constants are summed with _SERIES_GUARD_BITS more
# fractional bits and then rounded.
_LOG_TOP_BITS = 11
_LOG_TOP_LOW = 1 << (_LOG_TOP_BITS - 1)
_SERIES_GUARD_BITS = 32
# Stage 1 adds to the group offset G = t*ln(base) mod 2*pi, the stage-2
# phase of base = top * 2**shift, the tail t*S in doubles, S = ln(p / base) =
# u + u**3/12 + u**5/80 + ... for u = 2*(p - base) / (p + base) < 2**-10, so
# S < 2**-10.  Its errors, in radians with T = |t|: u's rounding and the
# series' own roundings and cut (u**7/448 < 2**-68 * u) leave S within
# 2**-52 * S, so t*S within T * 2**-62, and rounding t*S adds T * 2**-63.
# G = ghi + glo splits G to within 2**-96 when ghi * scale is not an
# integer, and rounding glo adds 2**-104 (|glo| <= 2**-51).  Rounding
# glo + t*S and that sum plus or minus the band each add T * 2**-63 +
# 2**-104.  G, as a stage-2 phase, and the reference are within
# (1 + |t*ln p|) * (2**-92 + 2**-93) <= (1 + T) * 2**-86 of the exact values,
# for p < 2**64.  All these sum to under (1 + T) * 2**-60 * 5/8, and the band
# is (1 + T) * 2**-_DOUBLE_BAND_BITS.  When both ends of ghi + (w +- band),
# for w the double glo + t*S, round to one normal double below 2*pi, every
# value in the band does too: the exact phase and the reference, neither of
# which can then wrap past 0 or 2*pi, so the double is the reference's.
# Stage 1 runs for _DOUBLE_T_MIN <= |t| <= _DOUBLE_T_MAX, where the band can
# decide.  Above 127 its full width 2 * (1 + T) * 2**-60 exceeds 2**-52, the
# ulp of phases in [1, 2), so it could decide only phases above 2, and fewer
# than half of those.  For 0 < t < 2**-12 every phase t*ln p of p < 2**64 is
# below 2**-6, where the ulp is at most 2**-59, within the band's width, so
# it could decide none.
_DOUBLE_BAND_BITS = 60
_DOUBLE_T_MIN = 2.0**-12
_DOUBLE_T_MAX = 127.0
_SMALLEST_NORMAL = sys.float_info.min

DEFAULT_PRIME_LIMIT = 10**6
DEFAULT_PATHOLOGICAL_WIDTH = 0.1


@dataclass(frozen=True)
class ZetaEval:
    """Truncated product value plus the log-scale truncation certificate."""

    s: complex
    prime_limit: int
    value: complex
    log_tail_bound: float


@dataclass(frozen=True)
class ScanRow:
    eps: float
    value: complex
    modulus: float
    log_tail_bound: float


def _require_right_of_one(sigma: float) -> None:
    if not sigma > 1.0:
        raise DomainError(
            f"evaluation requires Re(s) > 1, got {sigma}; the function need "
            "not continue to the boundary line for a general prime set"
        )


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{what} must be a finite real, got {value}")


def _inverse_series(q: int, bits: int, sign: int) -> int:
    """atanh(1/q) (sign 1) or arctan(1/q) (sign -1) times 2**bits, for an
    integer q >= 2, with each term truncated."""
    power = (1 << bits) // q
    total = power
    q2 = q * q
    k = 3
    term_sign = sign
    while power:
        power //= q2
        total += term_sign * (power // k)
        k += 2
        term_sign *= sign
    return total


@functools.cache
def _fixed_point_constants() -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """k*ln 2 for 0 <= k < 64, 2*pi (Machin's formula) and ln(top) for each
    top with _LOG_TOP_BITS bits, from _LOG_TOP_LOW up, each summed with
    _SERIES_GUARD_BITS guard bits and rounded to _PHASE_FRAC_BITS fractional
    bits.  Each ln(top + 1) adds 2*atanh(1 / (2*top + 1)) to ln(top).  Built
    on first use (about 2 ms) so that importing costs nothing."""
    bits = _PHASE_FRAC_BITS + _SERIES_GUARD_BITS
    half = 1 << (_SERIES_GUARD_BITS - 1)
    ln2 = 2 * _inverse_series(3, bits, 1)
    two_pi = 32 * _inverse_series(5, bits, -1) - 8 * _inverse_series(239, bits, -1)
    log = (_LOG_TOP_BITS - 1) * ln2
    logs = [(log + half) >> _SERIES_GUARD_BITS]
    for top in range(_LOG_TOP_LOW, 2 * _LOG_TOP_LOW - 1):
        log += 2 * _inverse_series(2 * top + 1, bits, 1)
        logs.append((log + half) >> _SERIES_GUARD_BITS)
    ln2s = tuple((k * ln2 + half) >> _SERIES_GUARD_BITS for k in range(64))
    return ln2s, (two_pi + half) >> _SERIES_GUARD_BITS, tuple(logs)


def _fixed_log(p: int, ln2s: tuple[int, ...], log_top: tuple[int, ...]) -> int:
    """ln p times 2**_PHASE_FRAC_BITS, within 6 of it, for an integer
    2 <= p < 2**64, from the fixed-point k*ln 2 and ln(top) tables."""
    shift = p.bit_length() - _LOG_TOP_BITS
    if shift <= 0:
        return log_top[(p << -shift) - _LOG_TOP_LOW] - ln2s[-shift]
    top = p >> shift
    base = top << shift
    # ln(p / base) = 2*atanh(a/b) with 0 <= a/b < 2**-_LOG_TOP_BITS; zk is
    # 2*(a/b)**k times 2**_PHASE_FRAC_BITS, each floor below loses less than
    # 1 + 1/k, and the k = 9 term is below 2**-5.
    a = p - base
    b = p + base
    a2 = a * a
    b2 = b * b
    z = (a << (_PHASE_FRAC_BITS + 1)) // b
    z3 = z * a2 // b2
    z5 = z3 * a2 // b2
    series = z + z3 // 3 + z5 // 5 + z5 * a2 // b2 // 7
    return log_top[top - _LOG_TOP_LOW] + ln2s[shift] + series


def _reference_phases(members: list[int], t: float) -> list[float]:
    """t * ln(p) mod 2*pi for each member, reduced in mpmath at
    _PHASE_PRECISION_BITS; these bits define the phases."""
    mp = _mp_context(_PHASE_PRECISION_BITS)
    two_pi = 2 * mp.pi
    tt = mp.mpf(t)
    return [float((tt * mp.log(p)) % two_pi) for p in members]


def _fixed_point_scale(t: float):
    """(num, scale, period, to_double) for the phases of t.  t = num / den
    exactly, with den a power of two; the phase of p is r / scale for r =
    num * L mod period, with L the fixed-point ln p, scale = den <<
    _PHASE_FRAC_BITS and period = den times the fixed-point 2*pi.
    to_double(x) is x / scale, correctly rounded.  While 2 * period fits a
    double, x * (1 / scale) rounds x once and scales it exactly by a power of
    two down to the smallest normal, below which phases take the reference;
    it is four times as fast as int / int."""
    num, den = t.as_integer_ratio()
    scale = den << _PHASE_FRAC_BITS
    period = _fixed_point_constants()[1] * den
    to_double = (1.0 / scale).__rmul__ if period.bit_length() < 1023 else scale.__rtruediv__
    return num, scale, period, to_double


def _double_phases(members: list[int], t: float) -> tuple[list[float], list[int]]:
    """Stage 1: the phases decided in doubles (see _DOUBLE_BAND_BITS), with
    0.0 in place of the others, and the indices of the others."""
    ln2s, _, log_top = _fixed_point_constants()
    num, scale, period, to_double = _fixed_point_scale(t)
    fscale = float(scale)
    band = (1.0 + abs(t)) * 2.0**-_DOUBLE_BAND_BITS
    smallest, tau = _SMALLEST_NORMAL, math.tau  # 2*pi rounded down
    phases = [0.0] * len(members)
    undecided = []
    end = 0
    for i, p in enumerate(members):
        if p >= end:  # a new group: the members with p's top and shift
            shift = max(p.bit_length() - _LOG_TOP_BITS, 0)
            base = p >> shift << shift
            end = base + (1 << shift)
            g = num * _fixed_log(base, ln2s, log_top) % period
            ghi = to_double(g)
            glo = to_double(g - int(ghi * fscale))
        # ln(p / base) = u + u**3/12 + u**5/80 + ..., 0 <= u < 2**-10
        a = p - base
        u = (a + a) / (p + base)
        uu = u * u
        w = glo + t * (u + u * uu * (1 / 12 + uu / 80))
        low = ghi + (w - band)
        if low == ghi + (w + band) and smallest < low < tau:
            phases[i] = low
        else:
            undecided.append(i)
    return phases, undecided


def _fixed_phases(pairs: Iterable[tuple[int, int]], t: float, phases: list[float]) -> list[int]:
    """Stage 2: sets phases[i] for each pair (i, p) whose phase the 96-bit
    fixed point decides (see _PHASE_BAND_BITS); returns the other indices."""
    ln2s, _, log_top = _fixed_point_constants()
    num, scale, period, to_double = _fixed_point_scale(t)
    floor_band = scale >> _PHASE_BAND_BITS
    doubtful = []
    for i, p in pairs:
        product = num * _fixed_log(p, ln2s, log_top)
        r = product % period
        if r == product:  # 0 < t*ln p < 2*pi: a relative band
            band = r >> _PHASE_BAND_BITS
        else:
            band = floor_band + (abs(product) >> _PHASE_BAND_BITS)
        if r < period - band or r - product == period:  # or one period added
            # Rounding is monotone.  Up to r = band the lower end rounds to
            # 0.0 or below and the upper end above it, so phases that small
            # take the reference.
            low = to_double(r - band)
            if low == to_double(r + band) and low > _SMALLEST_NORMAL:
                phases[i] = low
                continue
        doubtful.append(i)
    return doubtful


def _reduced_phases(members: list[int], t: float) -> tuple[list[float], int]:
    """The reference phases of the members, and the number of members whose
    phase the reference had to give: stage 1 in doubles where its |t| range
    allows, stage 2 in fixed point for the rest, then the reference (t != 0)."""
    if _DOUBLE_T_MIN <= abs(t) <= _DOUBLE_T_MAX:
        phases, undecided = _double_phases(members, t)
        pairs = zip(undecided, map(members.__getitem__, undecided))
    else:
        phases, pairs = [0.0] * len(members), enumerate(members)
    doubtful = _fixed_phases(pairs, t, phases)
    if doubtful:
        reference = _reference_phases([members[i] for i in doubtful], t)
        for i, phase in zip(doubtful, reference):
            phases[i] = phase
    return phases, len(doubtful)


def _require_prime_limit(prime_limit: int) -> None:
    if prime_limit < 2:
        raise DomainError(f"prime limit must be >= 2, got {prime_limit}")


def _tail_bound(spec: PrimeSetSpec, sigma: float, prime_limit: int) -> float:
    if isinstance(spec, FinitePrimes):
        return 2.0 * math.fsum(p ** -sigma for p in spec.primes if p > prime_limit)
    return 2.0 * prime_limit ** (1.0 - sigma) / ((sigma - 1.0) * math.log(prime_limit))


def _unit_factors(phases: list[float]) -> Iterator[complex]:
    """exp(-i*phase) for each phase: the factor p**-(i*t) of each member."""
    return map(cmath.exp, map(mul, repeat(-1j), phases))


def _truncated_product(members: list[int], units: Iterable[complex], sigma: float) -> complex:
    """Product of (1 - p**-sigma * unit)**-1 over the members and their
    unit factors, in ascending order."""
    value = complex(1.0, 0.0)
    for p, unit in zip(members, units):
        value /= 1.0 - p ** -sigma * unit
    return value


def zeta_p(spec: PrimeSetSpec, s: complex, prime_limit: int) -> ZetaEval:
    """Product of (1 - p**-s)**-1 over members p <= prime_limit."""
    s = complex(s)
    _require_right_of_one(s.real)
    _require_finite("Re(s)", s.real)
    _require_finite("Im(s)", s.imag)
    _require_prime_limit(prime_limit)
    if s.imag == 0.0:  # the real-axis product (module docstring), off the member iterator
        powers = map(pow, member_primes(spec, prime_limit), repeat(-s.real))
        value = complex(functools.reduce(truediv, map(sub, repeat(1.0), powers), 1.0), 0.0)
    else:
        members = primes_in(spec, prime_limit)
        phases = _reduced_phases(members, s.imag)[0]
        value = _truncated_product(members, _unit_factors(phases), s.real)
    return ZetaEval(
        s=s,
        prime_limit=prime_limit,
        value=value,
        log_tail_bound=_tail_bound(spec, s.real, prime_limit),
    )


def log_identity_residual(spec: PrimeSetSpec, sigma: float, prime_limit: int) -> float:
    """log of the truncated product at real s = sigma minus the truncated
    sum of p**-sigma.

    Each summand -log(1 - z) - z with z = p**-sigma in (0, 1/2) lies in
    (0, z**2), so the residual is non-negative and at most the truncated sum
    of p**(-2*sigma); it is accumulated per prime to avoid cancellation.
    """
    _require_right_of_one(sigma)
    _require_finite("sigma", sigma)
    _require_prime_limit(prime_limit)
    powers = map(pow, member_primes(spec, prime_limit), repeat(-sigma))
    return math.fsum(-math.log1p(-z) - z for z in powers)


# The log-fraction prime family at scale t, (t, width, shift).  Shift 0
# concentrates the phases of p**-it near 1, making the product blow up as s
# approaches 1 + i*t from the right; shift 1/2 concentrates them near -1,
# making it vanish.
pathological_set = LogFracPrimes


def blowup_scan(
    t: float,
    shift: float,
    eps_list: list[float],
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    width: float = DEFAULT_PATHOLOGICAL_WIDTH,
) -> list[ScanRow]:
    """Evaluate |zeta_P(1 + eps + i*t)| over descending eps for the
    log-fraction family; emits one row per eps."""
    if not eps_list:
        raise DomainError("eps grid must be nonempty")
    if not all(math.isfinite(e) for e in eps_list):
        raise DomainError("eps values must be finite reals")
    if any(e <= 0 for e in eps_list):
        raise DomainError("eps values must be strictly positive")
    if any(1.0 + e == 1.0 for e in eps_list):
        raise DomainError(
            "eps values must leave 1 + eps > 1 in double precision, so that "
            "Re(s) > 1"
        )
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps values must be strictly descending")
    _require_prime_limit(prime_limit)
    spec = LogFracPrimes(t, width, shift)
    members = primes_in(spec, prime_limit)
    units = list(_unit_factors(_reduced_phases(members, t)[0]))
    rows = []
    for eps in eps_list:
        sigma = 1.0 + eps
        value = _truncated_product(members, units, sigma)
        rows.append(
            ScanRow(
                eps=eps,
                value=value,
                modulus=abs(value),
                log_tail_bound=_tail_bound(spec, sigma, prime_limit),
            )
        )
    return rows


def gs_integrand(t: float) -> float:
    return math.log(t) / (t + 1.0)


def simpson_integral(f, a: float, b: float, tol: float = 1e-10, panels: int = 1) -> float:
    """Adaptive Simpson quadrature with Richardson correction, targeting an
    absolute error of ``tol`` over [a, b] split into ``panels`` uniform
    starting panels."""
    if panels < 1:
        raise DomainError(f"panel count must be >= 1, got {panels}")

    def simpson(lo, flo, hi, fhi):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        return mid, fmid, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def refine(lo, flo, hi, fhi, whole, mid, fmid, budget, depth):
        lm, flm, left = simpson(lo, flo, mid, fmid)
        rm, frm, right = simpson(mid, fmid, hi, fhi)
        delta = left + right - whole
        if depth > 60 or abs(delta) <= 15.0 * budget:
            return left + right + delta / 15.0
        return refine(lo, flo, mid, fmid, left, lm, flm, budget / 2.0, depth + 1) + refine(
            mid, fmid, hi, fhi, right, rm, frm, budget / 2.0, depth + 1
        )

    total = 0.0
    edges = [a + (b - a) * k / panels for k in range(panels + 1)]
    for lo, hi in zip(edges, edges[1:]):
        flo, fhi = f(lo), f(hi)
        mid, fmid, whole = simpson(lo, flo, hi, fhi)
        total += refine(lo, flo, hi, fhi, whole, mid, fmid, tol / panels, 1)
    return total


SQRT_E = math.exp(0.5)


def gs_constant() -> float:
    """The sharp lower-bound constant for the semigroup partial sums,
    (1 - 2*ln(1 + sqrt(e)) + 4 * integral of ln(t)/(t+1) over [1, sqrt(e)])
    times ln 2; decimal expansion -0.4553970..."""
    integral = simpson_integral(gs_integrand, 1.0, SQRT_E, tol=1e-10)
    return (1.0 - 2.0 * math.log1p(SQRT_E) + 4.0 * integral) * math.log(2.0)
