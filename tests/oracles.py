"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately implemented by a different route than the
library: trial division instead of sieves, direct factorisation instead of
smallest-prime-factor walks, closed forms instead of quadrature.  Tests that
compare the two routes lose their value if either side leans on the other.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def odd_wheel_sieve(limit: int) -> list[int]:
    """Second sieve implementation (odd numbers only), distinct from the
    library's byte sieve."""
    if limit < 2:
        return []
    size = (limit - 1) // 2  # flags[i] represents 2*i + 3
    flags = bytearray([1]) * size
    for i in range(size):
        if flags[i]:
            p = 2 * i + 3
            if p * p > limit:
                break
            start = (p * p - 3) // 2
            flags[start::p] = b"\x00" * len(range(start, size, p))
    return [2] + [2 * i + 3 for i in range(size) if flags[i]]


def plain_sieve_flags(limit: int) -> bytearray:
    """flags[n] = 1 if n is prime else 0, for 0 <= n <= limit: the textbook
    sieve, one Python step per crossed-out multiple and no slice
    assignment."""
    flags = bytearray(limit + 1)
    for n in range(2, limit + 1):
        flags[n] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = 0
    return flags


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime factor of n, for 2 <= n <= limit (spf[0]
    = 0, spf[1] = 1): the textbook sieve, one Python step per multiple."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorisation, exponents included."""
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def mobius_bruteforce(n: int) -> int:
    fac = factorize(n)
    if any(e >= 2 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def big_omega(n: int) -> int:
    return sum(factorize(n).values())


def semigroup_members(member_pred, x: int) -> list[tuple[int, int]]:
    """All (n, mu(n)) with n <= x whose prime factors all satisfy
    ``member_pred``; factorisation by trial division."""
    out = []
    for n in range(1, x + 1):
        fac = factorize(n)
        if all(member_pred(p) for p in fac):
            out.append((n, mobius_bruteforce(n)))
    return out


def partial_sum_bruteforce(member_pred, x: int) -> Fraction:
    total = Fraction(0)
    for n, mu in semigroup_members(member_pred, x):
        total += Fraction(mu, n)
    return total


def totient_table(limit: int) -> list[int]:
    """Euler phi for 0..limit by the standard multiplicative sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def basel_sum_oracle(terms: int) -> float:
    """Sum of n**-2 for n <= terms plus the integral tail estimate 1/terms."""
    return math.fsum(1.0 / (n * n) for n in range(1, terms + 1)) + 1.0 / terms
