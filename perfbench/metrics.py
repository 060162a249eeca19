"""Names, units and meanings of the benchmark's metrics (no musum imports,
so the parent process of run.py can use it).

A self time marked "derived" is a call's replayed duration minus the
replayed durations of the sub-calls it makes with the same inputs; it is
computed, not observed.  The predicted effect of each layer metric on the
end-to-end metrics is in README.md.
"""

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# (name, unit, meaning) of every per-layer metric of the traced run.
PER_LAYER = (
    ("primes.sieve_s", "s", "sieve_primes at the limits primes_in is called with"),
    ("primes.filter_s", "s", "derived: primes_in minus sieve_primes"),
    ("primes.sieved", "count", "primes sieved by those calls"),
    ("primes.kept", "count", "members primes_in returned"),
    ("primes.kept_ratio", "ratio", "kept / sieved"),
    ("semigroup.enum_s", "s", "derived: self time of enumeration calls, on the library's route"),
    ("semigroup.scanned", "count", "sum of x over sieve-route enumerations"),
    ("semigroup.terms", "count", "terms those enumerations yielded"),
    ("semigroup.ns_per_scanned", "ns", "sieve-route enumeration time / scanned"),
    ("semigroup.alloc_peak_mb", "MB", "tracemalloc peak of the enumeration call with the largest x"),
    ("sums.call_s", "s", "sums calls entered from another layer"),
    ("sums.accumulate_s", "s", "derived: sums self time (call minus enumeration and primes)"),
    ("sums.terms", "count", "nonzero terms accumulated (term_count)"),
    ("sums.den_bits", "bits", "bits of the exact denominators"),
    ("sums.ns_per_term", "ns", "accumulate_s / terms"),
    ("sums.alloc_peak_mb", "MB", "tracemalloc peak of the sums call with the largest x"),
    ("zeta.call_s", "s", "zeta_p, log_identity_residual and blowup_scan calls"),
    ("zeta.self_s", "s", "derived: zeta calls minus their primes_in"),
    ("zeta.factors", "count", "members x evaluation points"),
    ("experiments.call_s", "s", "experiments calls"),
    ("experiments.grid_ratio", "ratio", "grid calls / the same calls at max(grid) alone"),
    ("sweeps.trial_s.theorem1", "s", "median check_instance time, kind theorem1"),
    ("sweeps.trial_s.mock", "s", "median check_instance time, kind mock"),
    ("sweeps.trial_s.zorn", "s", "median check_instance time, kind zorn"),
    ("sweeps.trial_s.weights", "s", "median check_instance time, kind weights"),
    ("sweeps.trials", "count", "instances checked"),
    ("cli.run_s", "s", "cli.run calls"),
    ("cli.render_s", "s", "derived: cli.run minus the library call with the same args"),
    ("cli.out_bytes", "count", "bytes printed"),
    ("trace.overhead_s", "s", "traced minus untraced pass wall, same batch"),
    ("trace.covered_frac", "ratio", "sum of all derived self times / traced op wall"),
)
