"""Partial sums of the Mobius function over multiplicative semigroups
generated by arbitrary prime sets.

For a set P of primes and the semigroup <P> of naturals whose prime factors
all lie in P, the partial sums of mu(n)/n over <P> are bounded by 1 in
magnitude and converge to the product of (1 - 1/p) over P.  This package
computes those sums exactly (arbitrary-precision rationals) or with
certified floating error, verifies the identities behind the bound, and
reproduces the limiting behaviour, the sharp-constant refinements, and the
counterexamples that show where the bound genuinely fails.
"""

from .errors import (
    DomainError,
    ResourceError,
    SpecParseError,
    UsageError,
    VerificationError,
)
from .experiments import (
    BeurlingSystem,
    ConvergenceRow,
    GranResidualRow,
    MertensWindow,
    beurling_partial_sum,
    convergence_table,
    gran_residual,
    mean_mobius,
    mertens_window,
    semiprime_crossing,
    semiprime_sum,
)
from .primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    PrimeSetSpec,
    PrimeTable,
    ResiduePrimes,
    is_member,
    is_prime,
    member_flags,
    parse_spec,
    primes_in,
    render_spec,
    sieve_primes,
)
from .semigroup import (
    EnumerationOptions,
    count_members,
    density,
    enumerate_terms,
    mobius,
)
from .sums import (
    SumReport,
    WeightFunction,
    ZornIdentity,
    euler_product,
    euler_product_partial,
    format_rational,
    partial_sum,
    partial_sum_coprime,
    partial_sum_divisors,
    partial_sum_shifted,
    weighted_partial_sum,
    zorn_check,
)
from .zeta import (
    ScanRow,
    ZetaEval,
    blowup_scan,
    gs_constant,
    log_identity_residual,
    pathological_set,
    simpson_integral,
    zeta_p,
)

__version__ = "0.1.0"
