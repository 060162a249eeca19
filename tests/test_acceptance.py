"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at runtime.

The sharp-constant criterion reads the published -0.4553... as a 4-decimal
truncation, -0.4554 < value <= -0.4553; the closed-form check of the same
constant to 1e-9 lives in tests/test_zeta.py.
"""

import math
import random
import time
from fractions import Fraction

from musum.experiments import (
    beurling_partial_sum,
    BeurlingSystem,
    mean_mobius,
    mertens_window,
    regression_threshold,
    semiprime_crossing,
    semiprime_sum,
    load_fixtures,
)
from musum.primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
    primes_in,
    sieve_primes,
)
from musum.semigroup import EnumerationOptions, enumerate_terms
from musum.sums import (
    euler_product,
    partial_sum,
    partial_sum_coprime,
    partial_sum_divisors,
    partial_sum_shifted,
    spec_of_coprime_modulus,
    weighted_partial_sum,
    WeightFunction,
    zorn_check,
)
from musum.sweeps import run_sweep
from musum.zeta import blowup_scan, gs_constant, log_identity_residual, zeta_p

from oracles import basel_sum_oracle, totient_table

_PRIMES_TO_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97)


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_theorem1_exact_bound():
    started = time.perf_counter()
    rng = random.Random(0xE1)
    worst = Fraction(0)
    for _ in range(1000):
        spec = FinitePrimes(tuple(rng.sample(_PRIMES_TO_100, rng.randrange(0, 13))))
        x = rng.randrange(1, 10**4 + 1)
        value = partial_sum(spec, x, mode="exact").value_exact
        assert abs(value) <= 1, (spec, x)
        worst = max(worst, abs(value))
    for _ in range(200):
        spec = CofinitePrimes(tuple(rng.sample(_PRIMES_TO_100, rng.randrange(0, 6))))
        x = rng.randrange(1, 10**4 + 1)
        value = partial_sum(spec, x, mode="exact").value_exact
        assert abs(value) <= 1, (spec, x)
        worst = max(worst, abs(value))
    elapsed = time.perf_counter() - started
    _criterion(
        "theorem1-exact-bound",
        elapsed < 60.0,
        f"1200/1200 trials within the unit bound, max |S| = {float(worst):.6f}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_equality_at_x_equals_one():
    specs = [
        AllPrimes(),
        FinitePrimes(()),
        FinitePrimes((2, 3)),
        CofinitePrimes((2, 7)),
        IntervalPrimes(10.0, 100.0),
        ResiduePrimes(1, 4),
        LogFracPrimes(1.0, 0.1, 0.0),
    ]
    ok = all(partial_sum(spec, 1).value_exact == 1 for spec in specs)
    _criterion("equality-at-x-1", ok, f"{len(specs)} spec forms, all exactly 1")


def _finite_specs_with_product_up_to(bound: int):
    """Every finite prime set whose generator product is <= bound."""
    table = sieve_primes(bound).primes
    found = []

    def extend(idx: int, chosen: tuple[int, ...], product: int):
        found.append((chosen, product))
        for k in range(idx, len(table)):
            p = table[k]
            if product * p > bound:
                break
            extend(k + 1, chosen + (p,), product * p)

    extend(0, (), 1)
    return found


def test_extremal_saturation():
    started = time.perf_counter()
    specs = _finite_specs_with_product_up_to(10**4)
    for chosen, product in specs:
        spec = FinitePrimes(chosen)
        limit = euler_product(spec)
        assert partial_sum(spec, product).value_exact == limit, spec
        assert partial_sum(spec, 10 * product).value_exact == limit, spec
    elapsed = time.perf_counter() - started
    _criterion(
        "extremal-saturation",
        True,
        f"{len(specs)} finite sets with generator product <= 1e4, exact at "
        f"x = product and x = 10*product, {elapsed:.1f}s",
    )


def test_zorn_identity():
    result = run_sweep("zorn", 500, seed=0x20A)
    _criterion(
        "zorn-identity",
        result.ok and result.passed == 500,
        f"{result.passed}/500 exact integer identities",
    )


def test_mock_corollaries():
    rng = random.Random(0xA0C)
    for _ in range(500):
        P = rng.randrange(1, 10**4 + 1)
        x = rng.randrange(1, 10**4 + 1)
        report = partial_sum_coprime(P, x, mode="exact")
        assert abs(report.value_exact) <= 1, (P, x)
    for _ in range(500):
        N = rng.randrange(1, 10**4 + 1)
        x = rng.randrange(1, 10**4 + 1)
        report = partial_sum_divisors(N, x, mode="exact")
        assert abs(report.value_exact) <= 1, (N, x)
    for _ in range(500):
        m = rng.randrange(1, 201)
        x = rng.randrange(1, 10**4 + 1)
        report = partial_sum_shifted(m, x, mode="exact")
        assert abs(report.value_exact) <= 1, (m, x)
    # Cross-operation equivalences, exact.
    for _ in range(200):
        P = rng.randrange(1, 10**4 + 1)
        x = rng.randrange(1, 10**4 + 1)
        assert (
            partial_sum_coprime(P, x).value_exact
            == partial_sum(spec_of_coprime_modulus(P), x).value_exact
        ), (P, x)
    for _ in range(50):
        x = rng.randrange(1, 10**4 + 1)
        assert (
            partial_sum_shifted(1, x).value_exact
            == partial_sum(AllPrimes(), x).value_exact
        ), x
    _criterion(
        "mock-corollaries",
        True,
        "500 trials per restricted sum within the unit bound; 200 coprime and "
        "50 shift-1 equivalences exact",
    )


def test_divisor_identity():
    phi = totient_table(10**4)
    for N in range(1, 10**4 + 1):
        got = partial_sum_divisors(N, N).value_exact
        assert got == Fraction(phi[N], N), N
    _criterion("divisor-identity", True, "phi(N)/N exact for every N <= 1e4")


def test_weighted_generalization():
    rng = random.Random(0xBEEF)
    for _ in range(200):
        assignments = {}
        for p in rng.sample(_PRIMES_TO_100[:15], rng.randrange(0, 7)):
            den = rng.randrange(1, 13)
            assignments[p] = Fraction(rng.randrange(0, den + 1), den)
        a = WeightFunction(assignments, default_value=rng.randrange(2))
        x = rng.randrange(1, 10**4 + 1)
        report = weighted_partial_sum(a, x, mode="exact")
        assert abs(report.value_exact) <= 1, (a, x)
    for _ in range(50):
        chosen = tuple(rng.sample(_PRIMES_TO_100, rng.randrange(0, 6)))
        x = rng.randrange(1, 10**4 + 1)
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
    _criterion(
        "weighted-generalization",
        True,
        "200 rational weight functions within the unit bound; 100 extreme "
        "0/1 reproductions exact",
    )


def test_landau_decay():
    started = time.perf_counter()
    values = {
        x: partial_sum(AllPrimes(), x, mode="float").value_float
        for x in (10**2, 10**4, 10**6)
    }
    magnitudes = [abs(values[x]) for x in (10**2, 10**4, 10**6)]
    decreasing = magnitudes[0] > magnitudes[1] > magnitudes[2]
    threshold = regression_threshold(AllPrimes(), "partial_sum_abs", 10**6)
    below = magnitudes[2] < threshold
    elapsed = time.perf_counter() - started
    _criterion(
        "landau-decay",
        decreasing and below and elapsed < 120.0,
        f"|S| = {magnitudes[0]:.4f} > {magnitudes[1]:.5f} > {magnitudes[2]:.6f} "
        f"< {threshold} (frozen), {elapsed:.1f}s (< 120s)",
    )


def test_mertens_window_at_one_million():
    window = mertens_window(10**6)
    target = 1.0 - math.log(2.0)
    sum_ok = abs(window.sum - target) <= 0.05
    product_ok = abs(window.product - 0.5) <= 0.05
    _criterion(
        "mertens-window",
        sum_ok and product_ok,
        f"sum = {window.sum:.5f} (target {target:.5f} +- 0.05), "
        f"product = {window.product:.5f} (target 0.5 +- 0.05)",
    )


def test_gs_constant_window():
    value = gs_constant()
    # The published digits -0.4553... are a truncation, not a rounding.
    ok = -0.4554 < value <= -0.4553
    _criterion(
        "gs-constant",
        ok,
        f"value = {value:.10f}; required window (-0.4554, -0.4553], "
        f"the 4-decimal truncation -0.4553...",
    )


def test_zeta_sanity():
    result = zeta_p(AllPrimes(), 2.0, 10**5)
    oracle = basel_sum_oracle(10**6)
    gap = abs(math.log(abs(result.value)) - math.log(oracle))
    value_ok = gap <= result.log_tail_bound
    residual_ok = True
    for spec in (AllPrimes(), CofinitePrimes((2,)), FinitePrimes((2, 3, 5, 7)),
                 ResiduePrimes(1, 4)):
        for sigma in (1.25, 1.5, 2.0, 3.0):
            residual = log_identity_residual(spec, sigma, 10**4)
            envelope = math.fsum(p ** (-2 * sigma) for p in primes_in(spec, 10**4))
            residual_ok &= 0.0 <= residual <= envelope
    _criterion(
        "zeta-sanity",
        value_ok and residual_ok,
        f"log-gap to the direct-sum oracle {gap:.2e} <= tail bound "
        f"{result.log_tail_bound:.2e}; residual envelope held on a 16-point grid",
    )


def test_pathological_scans():
    started = time.perf_counter()
    eps = [0.5, 0.2, 0.1, 0.05]
    up = [r.modulus for r in blowup_scan(1.0, 0.0, eps, prime_limit=10**6)]
    down = [r.modulus for r in blowup_scan(1.0, 0.5, eps, prime_limit=10**6)]
    increasing = all(a < b for a, b in zip(up, up[1:]))
    decreasing = all(a > b for a, b in zip(down, down[1:]))
    elapsed = time.perf_counter() - started
    _criterion(
        "pathological-scans",
        increasing and decreasing,
        f"shift 0 moduli {['%.4f' % v for v in up]} strictly increasing; "
        f"shift 1/2 moduli {['%.4f' % v for v in down]} strictly decreasing; "
        f"fixed truncation 1e6, {elapsed:.1f}s",
    )


def test_counterexamples():
    semiprime_ok = semiprime_sum(10).value_exact == Fraction(19, 15)
    crossing = semiprime_crossing(2.0, 10**6)
    crossing_ok = (
        crossing is not None
        and crossing <= 10**6
        and semiprime_sum(crossing).value_exact > 2
        and semiprime_sum(crossing - 1).value_exact <= 2
    )
    beurling_value = beurling_partial_sum(BeurlingSystem((1.1, 1.2, 1.3)), 1.3)
    beurling_ok = abs(beurling_value - (-1.5117)) <= 5e-4 and abs(beurling_value) > 1
    _criterion(
        "counterexamples",
        semiprime_ok and crossing_ok and beurling_ok,
        f"semiprime sum at 10 = 19/15 exactly, first crossing of 2 at x = {crossing}; "
        f"Beurling value {beurling_value:.6f}, |value| > 1",
    )


def test_oracle_equivalence_sieve_vs_heap():
    rng = random.Random(0x5EED)
    for _ in range(100):
        spec = FinitePrimes(tuple(rng.sample(_PRIMES_TO_100, rng.randrange(0, 7))))
        x = rng.randrange(0, 10**4 + 1)
        sieve_bytes = "\n".join(
            f"{n},{mu}"
            for n, mu in enumerate_terms(spec, x, EnumerationOptions(backend="sieve"))
        ).encode()
        heap_bytes = "\n".join(
            f"{n},{mu}"
            for n, mu in enumerate_terms(spec, x, EnumerationOptions(backend="heap"))
        ).encode()
        assert sieve_bytes == heap_bytes, (spec, x)
    _criterion(
        "oracle-equivalence",
        True,
        "sieve and heap streams byte-identical on 100 random finite sets",
    )


def test_frozen_regressions_cover_the_asymptotics():
    # The genuine asymptotic statements (decay rates, non-uniformity,
    # continuation failure) cannot be verified at desk scale; the frozen
    # thresholds and fixed-grid trends above stand in for them.  This pins
    # the fixtures those stand-ins read.
    fixtures = load_fixtures()
    version_ok = fixtures["version"] == 1
    mean = mean_mobius(AllPrimes(), 10**6)
    mean_threshold = regression_threshold(AllPrimes(), "mean_mobius_abs", 10**6)
    mean_ok = mean_threshold == 0.01 and abs(mean) < mean_threshold
    cofinite = partial_sum(CofinitePrimes((2,)), 10**4, mode="float").value_float
    cof_threshold = regression_threshold(CofinitePrimes((2,)), "partial_sum_abs", 10**4)
    cof_ok = cof_threshold == 0.05 and abs(cofinite) < cof_threshold
    _criterion(
        "frozen-regressions",
        version_ok and mean_ok and cof_ok,
        f"fixtures v{fixtures['version']}; mean at 1e6 = {mean:.6f} < 0.01; "
        f"cofinite-2 sum at 1e4 = {cofinite:.6f} < 0.05",
    )
