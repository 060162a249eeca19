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
of p**-it is reduced modulo 2*pi from an extended-precision logarithm so
that large |t| cannot wash out the angle.

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
import math
from dataclasses import dataclass

from .errors import DomainError
from .primes import FinitePrimes, LogFracPrimes, PrimeSetSpec, primes_in

# Phase reduction precision; see LOGFRAC_PRECISION_BITS in primes.
_PHASE_PRECISION_BITS = 96

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


def _reduced_phases(members: list[int], t: float) -> list[float]:
    """t * ln(p) mod 2*pi for each member, reduced in extended precision."""
    if t == 0.0:
        return [0.0] * len(members)
    from mpmath import mp

    with mp.workprec(_PHASE_PRECISION_BITS):
        two_pi = 2 * mp.pi
        tt = mp.mpf(t)
        return [float((tt * mp.log(p)) % two_pi) for p in members]


def _tail_bound(spec: PrimeSetSpec, sigma: float, prime_limit: int) -> float:
    if isinstance(spec, FinitePrimes):
        return 2.0 * math.fsum(p ** -sigma for p in spec.primes if p > prime_limit)
    return 2.0 * prime_limit ** (1.0 - sigma) / ((sigma - 1.0) * math.log(prime_limit))


def _truncated_product(members: list[int], phases: list[float], sigma: float) -> complex:
    """Product of (1 - p**-sigma * exp(-i*phase))**-1 over the members, in
    ascending order."""
    value = complex(1.0, 0.0)
    for p, phase in zip(members, phases):
        value /= 1.0 - p ** -sigma * cmath.exp(-1j * phase)
    return value


def zeta_p(spec: PrimeSetSpec, s: complex, prime_limit: int) -> ZetaEval:
    """Product of (1 - p**-s)**-1 over members p <= prime_limit."""
    s = complex(s)
    _require_right_of_one(s.real)
    _require_finite("Re(s)", s.real)
    _require_finite("Im(s)", s.imag)
    if prime_limit < 2:
        raise DomainError(f"prime limit must be >= 2, got {prime_limit}")
    members = primes_in(spec, prime_limit)
    return ZetaEval(
        s=s,
        prime_limit=prime_limit,
        value=_truncated_product(members, _reduced_phases(members, s.imag), s.real),
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
    if prime_limit < 2:
        raise DomainError(f"prime limit must be >= 2, got {prime_limit}")
    members = primes_in(spec, prime_limit)
    return math.fsum(-math.log1p(-(p ** -sigma)) - p ** -sigma for p in members)


def pathological_set(t: float, width: float, shift: float) -> LogFracPrimes:
    """The log-fraction prime family at scale t.

    Shift 0 concentrates the phases of p**-it near 1, making the product
    blow up as s approaches 1 + i*t from the right; shift 1/2 concentrates
    them near -1, making it vanish.
    """
    if t == 0.0:
        raise DomainError("the scale t must be nonzero")
    return LogFracPrimes(t, width, shift)


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
    spec = pathological_set(t, width, shift)
    members = primes_in(spec, prime_limit)
    phases = _reduced_phases(members, t)
    rows = []
    for eps in eps_list:
        sigma = 1.0 + eps
        value = _truncated_product(members, phases, sigma)
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
