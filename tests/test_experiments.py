import math
from fractions import Fraction

import pytest

from musum.errors import DomainError
from musum.experiments import (
    EULER_MASCHERONI,
    BeurlingSystem,
    beurling_partial_sum,
    convergence_table,
    gran_residual,
    load_fixtures,
    mean_mobius,
    mertens_window,
    regression_threshold,
    semiprime_crossing,
    semiprime_sum,
)
from musum.primes import AllPrimes, CofinitePrimes, FinitePrimes, IntervalPrimes
from musum.sums import euler_product_partial, partial_sum

from oracles import (
    big_omega,
    factorize,
    mobius_bruteforce,
    partial_sum_bruteforce,
    trial_division_primes,
)


class TestConvergence:
    def test_finite_set_gap_closes_exactly(self):
        rows = convergence_table(FinitePrimes((2, 3)), [6, 100])
        for row in rows:
            assert row.gap == 0.0
            assert row.sum_value == pytest.approx(1 / 3)

    def test_gap_definition(self):
        rows = convergence_table(CofinitePrimes((2,)), [50, 500])
        for row in rows:
            assert row.gap == row.sum_value - row.product_value

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            convergence_table(AllPrimes(), [])
        with pytest.raises(DomainError):
            convergence_table(AllPrimes(), [100, 100])

    def test_all_primes_decay_small_grid(self):
        rows = convergence_table(AllPrimes(), [100, 10**4])
        values = [abs(r.sum_value) for r in rows]
        assert values[0] > values[1]

    def test_fixture_thresholds_present(self):
        fixtures = load_fixtures()
        assert fixtures["version"] == 1
        assert regression_threshold(AllPrimes(), "partial_sum_abs", 10**6) == 0.01
        assert regression_threshold(CofinitePrimes((2,)), "partial_sum_abs", 10**4) == 0.05
        assert regression_threshold(AllPrimes(), "partial_sum_abs", 123) is None

    def test_cofinite_regression_at_frozen_threshold(self):
        rows = convergence_table(CofinitePrimes((2,)), [10**4])
        threshold = regression_threshold(CofinitePrimes((2,)), "partial_sum_abs", 10**4)
        # The limit is 0 here: the excluded set is finite, so the member
        # reciprocal sum diverges and the product tends to zero.
        assert abs(rows[0].sum_value) < threshold

    def test_fixtures_directory_env_override(self, monkeypatch, tmp_path):
        (tmp_path / "regression.json").write_text(
            '{"version": 99, "thresholds": {"all/partial_sum_abs/x=10": 0.5}}'
        )
        monkeypatch.setenv("MUSUM_FIXTURES_DIR", str(tmp_path))
        assert load_fixtures()["version"] == 99
        assert regression_threshold(AllPrimes(), "partial_sum_abs", 10) == 0.5
        assert regression_threshold(AllPrimes(), "partial_sum_abs", 10**6) is None


class TestMertensWindow:
    def test_small_window_matches_reciprocal_oracle(self):
        window = [p for p in trial_division_primes(100) if p > 10]
        want = Fraction(1) - sum(Fraction(1, p) for p in window)
        got = partial_sum(IntervalPrimes(10.0, 100.0), 100).value_exact
        assert got == want
        result = mertens_window(100)
        assert result.sum == pytest.approx(float(want))

    def test_no_composite_member_enters_below_x(self):
        # Exactness of the reduction: members of the window semigroup <= x
        # are 1 and the primes themselves.
        for x in (100, 2500, 10**4):
            root = math.sqrt(x)
            window_pred = lambda p: root < p <= x
            want = partial_sum_bruteforce(window_pred, x)
            spec = IntervalPrimes(root, float(x))
            assert partial_sum(spec, x).value_exact == want

    def test_requires_x_at_least_four(self):
        with pytest.raises(DomainError):
            mertens_window(3)

    @pytest.mark.parametrize("x", [4, 5000, 30000, 10**5])
    def test_one_pass_matches_the_sum_and_product_routes(self, x):
        # The window reads its sum and product off one table; the separate
        # partial sum and truncated product give the same bits.
        spec = IntervalPrimes(math.sqrt(x), float(x))
        window = mertens_window(x)
        assert window.sum == partial_sum(spec, x, mode="float").value_float
        assert window.product == euler_product_partial(spec, x)


class TestMeanMobius:
    def test_at_one(self):
        assert mean_mobius(AllPrimes(), 1) == 1.0

    def test_powers_of_two_cancel(self):
        assert mean_mobius(FinitePrimes((2,)), 1024) == 0.0

    def test_matches_direct_average(self):
        x = 4000
        want = sum(mobius_bruteforce(n) for n in range(1, x + 1)) / x
        assert mean_mobius(AllPrimes(), x) == want


class TestGranResidual:
    def test_all_primes_reduces_to_mertens_function(self):
        x = 1000
        row = gran_residual(AllPrimes(), [x])[0]
        assert row.count_term == 1
        mertens = sum(mobius_bruteforce(n) for n in range(1, x + 1))
        assert row.mertens_term == pytest.approx((1 - EULER_MASCHERONI) * mertens)
        assert row.residual == pytest.approx(row.lhs - 1 - row.mertens_term)

    def test_gamma_constant(self):
        assert abs(EULER_MASCHERONI - 0.5772156649015329) < 1e-16

    def test_fields_against_bruteforce(self):
        x = 1000
        row = gran_residual(FinitePrimes((2, 3)), [x])[0]
        members = [
            (n, mobius_bruteforce(n))
            for n in range(1, x + 1)
            if all(p in (2, 3) for p in factorize(n))
        ]
        outside = sum(
            1
            for n in range(1, x + 1)
            if all(p not in (2, 3) for p in factorize(n))
        )
        assert row.count_term == outside
        lhs = x * float(sum(Fraction(mu, n) for n, mu in members))
        assert row.lhs == pytest.approx(lhs, abs=1e-9)
        mertens = sum(mu for _, mu in members)
        assert row.mertens_term == pytest.approx((1 - EULER_MASCHERONI) * mertens)
        assert row.residual == pytest.approx(
            row.lhs - row.count_term - row.mertens_term
        )

    def test_report_only_rows_exist_for_cofinite(self):
        rows = gran_residual(CofinitePrimes((2,)), [100, 10**4])
        assert [row.x for row in rows] == [100, 10**4]
        for row in rows:
            assert math.isfinite(row.residual)


class TestSemiprimeSemigroup:
    def test_at_one(self):
        assert semiprime_sum(1).value_exact == 1

    def test_at_ten(self):
        report = semiprime_sum(10)
        assert report.value_exact == Fraction(19, 15)
        assert report.term_count == 3  # 1, 6, 10; the terms at 4 and 9 vanish

    def test_membership_is_even_big_omega(self):
        # Cross-check the parity rule against an explicit closure under
        # semiprime products.
        limit = 400
        semiprimes = [
            n for n in range(2, limit + 1) if big_omega(n) == 2
        ]
        closure = {1}
        frontier = [1]
        while frontier:
            base = frontier.pop()
            for s in semiprimes:
                value = base * s
                if value <= limit and value not in closure:
                    closure.add(value)
                    frontier.append(value)
        parity_members = {n for n in range(1, limit + 1) if n == 1 or big_omega(n) % 2 == 0}
        assert closure == parity_members

    def test_monotone_and_exceeds_one_at_six(self):
        values = [semiprime_sum(x).value_exact for x in range(1, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert semiprime_sum(5).value_exact == 1
        assert semiprime_sum(6).value_exact == Fraction(7, 6) > 1

    def test_crossing_search(self):
        first = semiprime_crossing(2.0, 10**4)
        assert first == 129
        # Verify exactly: the sum is <= 2 just below and > 2 at the crossing.
        assert semiprime_sum(first - 1).value_exact <= 2
        assert semiprime_sum(first).value_exact > 2


class TestBeurling:
    def test_empty_product_only(self):
        system = BeurlingSystem((1.1, 1.2, 1.3))
        assert beurling_partial_sum(system, 1.0) == 1.0

    def test_failure_example(self):
        system = BeurlingSystem((1.1, 1.2, 1.3))
        value = beurling_partial_sum(system, 1.3)
        assert value == pytest.approx(1 - 1 / 1.1 - 1 / 1.2 - 1 / 1.3, abs=1e-12)
        assert value == pytest.approx(-1.5117, abs=5e-4)
        assert abs(value) > 1

    def test_all_generators_above_x(self):
        assert beurling_partial_sum(BeurlingSystem((1.5,)), 1.4) == 1.0

    def test_boundary_element_included(self):
        # x exactly at a generator's value includes that generator.
        assert beurling_partial_sum(BeurlingSystem((1.5,)), 1.5) == 1.0 - 1 / 1.5

    def test_colliding_values_are_distinct_symbols(self):
        system = BeurlingSystem((1.5, 1.5))
        assert beurling_partial_sum(system, 1.6) == pytest.approx(1 - 2 / 1.5)

    def test_generator_validation(self):
        with pytest.raises(DomainError):
            BeurlingSystem((0.9,))
        with pytest.raises(DomainError):
            BeurlingSystem((1.0,))
        with pytest.raises(DomainError):
            BeurlingSystem(tuple(1.0 + k / 10 for k in range(1, 14)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_generator_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            BeurlingSystem((1.1, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            beurling_partial_sum(BeurlingSystem((1.5, 2.0)), bad)

    def test_against_exhaustive_subsets(self):
        import itertools

        gens = (1.3, 1.7, 2.1, 3.9)
        system = BeurlingSystem(gens)
        x = 9.5
        want = 0.0
        for r in range(len(gens) + 1):
            for combo in itertools.combinations(gens, r):
                value = math.prod(combo)
                if value <= x * (1 + 1e-12):
                    want += (-1) ** r / value
        assert beurling_partial_sum(system, x) == pytest.approx(want, abs=1e-12)
