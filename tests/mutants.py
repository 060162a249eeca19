"""A catalogue of hand-made mutants that the tests must kill.

Each entry is one edit of the library: the file, the exact old text, the
new text, the test ids that must fail with it, and what the edit breaks.
For each entry the script copies src/, tests/ and pyproject.toml to a
temporary directory, applies the edit there, runs the named ids with
``pytest -q -x`` and reports the mutant as killed (the tests fail),
survived (they pass) or stale (the old text is no longer in the file, or
is there more than once).  The repository itself is never edited.

Run it from the root of a checkout:

    python3 tests/mutants.py            # every entry
    python3 tests/mutants.py tree       # the entries whose name holds "tree"

It needs only the standard library and the tests' own dependencies, and
pytest does not collect it.  It exits 1 if a listed mutant survives or is
stale, or if a mutant kept under SURVIVORS is killed (then its reason no
longer holds, and it belongs in MUTANTS).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMS = "src/musum/sums.py"
INVERSION = [
    "tests/test_inversion.py::test_inversion_identity_holds_exactly_up_to_300",
    "tests/test_inversion.py::test_inversion_identity_holds_modulo_a_large_prime",
    "tests/test_inversion.py::test_inversion_identity_holds_at_the_exact_ceiling",
]
SPLIT = [
    "tests/test_sums.py::test_split_sum_matches_termwise_up_to_400",
    "tests/test_sums.py::test_split_sum_matches_termwise_around_squares",
]
MERGE = [
    "tests/test_sums.py::test_merge_tree_stream_lengths",
    "tests/test_sums.py::test_merge_tree_coprime_and_shifted",
]
RENDER = ["tests/test_sums.py::test_format_rational_writes_the_digits_of_decimal"]
BROAD = ["tests/test_sums.py", "tests/test_inversion.py"]
ZETA = "src/musum/zeta.py"
DOUBLE = "tests/test_zeta.py::TestDoubleStage::"
PHASE = "tests/test_zeta.py::TestPhaseReduction::"
EQUIVALENCE = [DOUBLE + "test_bits_match_the_fixed_point_up_to_one_million"]
EDGES = [DOUBLE + "test_one_top_at_every_shift_matches_the_reference",
         DOUBLE + "test_group_edges_match_the_reference"]
WRAP = [PHASE + "test_phases_within_the_band_of_a_wrap_take_the_reference"]
CONSTANTS = [PHASE + "test_series_constants_match_mpmath"]
FIXED_LOG = [PHASE + "test_fixed_log_matches_mpmath"]
ZETA_BROAD = ["tests/test_zeta.py"]
PRIMES = "src/musum/primes.py"
SEMIGROUP = "src/musum/semigroup.py"
CLI = "src/musum/cli.py"
MEMBER_FLAGS = ["tests/test_primes.py::TestMemberFlags::test_agrees_with_is_member"]
DECISIONS = ["tests/test_primes.py::test_logfrac_decisions_identical_up_to_one_million"]
WHEEL = ["tests/test_primes.py::test_wheel_listing_matches_compress_over_every_n"]
GUARD = "tests/test_primes.py::TestOneCeilingGuard::"
EVERY_PRIME = "tests/test_primes.py::TestMemberFlagsOfEveryPrime::"
CODE_TABLE = ["tests/test_semigroup.py::TestCodeTableAgainstOracle"]
WRITERS = "tests/test_cli.py::TestWriters::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: list[str]
    reason: str


MUTANTS = [
    # The accumulator that every exact route ends in.
    Mutant("merge-wrong-leftover-part", SUMS,
           "        r = b // g\n", "        r = b // math.gcd(b, 6)\n", MERGE,
           "the leftover part taken over 2 * 3, not over common: buckets over the wrong r"),
    Mutant("merge-r-is-b", SUMS,
           "        r = b // g\n", "        r = b\n", MERGE,
           "every term in the bucket of its whole denominator, scaled as if over its part"),
    Mutant("merge-wrong-bucket", SUMS,
           "        parts[r] = parts.get(r, 0) + a * (common // g)\n",
           "        parts[g] = parts.get(g, 0) + a * (common // g)\n", INVERSION,
           "each term added to the bucket of its gcd part, not of its leftover part"),
    Mutant("tree-sign-flip", SUMS,
           "            num, den = a * den + num * b, b * den\n            k >>= 1\n",
           "            num, den = a * den - num * b, b * den\n            k >>= 1\n", MERGE + SPLIT,
           "one side of each stack merge subtracted"),
    Mutant("tree-cross-term-dropped", SUMS,
           "            num, den = a * den + num * b, b * den\n            k >>= 1\n",
           "            num, den = a * den, b * den\n            k >>= 1\n", INVERSION,
           "the cross term num * b of each stack merge left out"),
    Mutant("split-prefix-one-below", SUMS,
           "map(prefix.__getitem__, map(x.__floordiv__, large))",
           "map(prefix.__getitem__, map(lambda p: x // p - 1, large))", SPLIT,
           "each large prime's S_P(x // p) read one place too low: prefix[x // p - 1]"),
    Mutant("split-smooth-read-from-s", SUMS,
           "runs = table_runs(table, s + 1, x + 1, True)", "runs = table_runs(table, s, x + 1, True)",
           SPLIT, "the smooth member s, when there is one, counted twice"),
    Mutant("split-primorial-below-s", SUMS,
           "    common = _primorial(s)\n", "    common = _primorial(s - 1)\n", INVERSION,
           "C the primorial of s - 1: a prime s drops out of the common denominator"),
    # The reduction by known factors.
    Mutant("known-gcd-without-large-primes", SUMS,
           "        g = math.gcd(num, common) * known\n", "        g = math.gcd(num, common)\n",
           INVERSION, "the primes r above isqrt(x) that divide their own bucket left in"),
    Mutant("known-gcd-without-common", SUMS,
           "        g = math.gcd(num, common) * known\n", "        g = known\n",
           INVERSION, "the common factors of num and C left in"),
    Mutant("known-gcd-no-precondition", SUMS,
           "    if below_x and math.gcd(den, common) == 1:\n", "    if True:\n",
           ["tests/test_sums.py::test_merge_sum_matches_the_fraction_sum"],
           "buckets whose r are not distinct primes coprime to common reduced as if they were"),
    # The render.
    Mutant("render-split-off-by-one-bit", SUMS,
           "        lo = convert(n - (hi << half), half)\n",
           "        lo = convert(n - (hi << (half - 1)), half)\n", RENDER,
           "the low half taken one bit short of the split"),
    Mutant("render-sign-dropped", SUMS,
           '    return "-" + digits if n < 0 else digits\n', "    return digits\n", RENDER,
           "the minus sign of a large negative numerator lost"),
    # Stage 1 of the zeta phases, in doubles.
    Mutant("double-band-over-16", ZETA,
           "_DOUBLE_BAND_BITS = 60\n", "_DOUBLE_BAND_BITS = 64\n",
           [DOUBLE + "test_double_band_holds_the_error_budget"],
           "stage 1's band 2**4 narrower than its derived budget; the real errors sit well "
           "inside it, so only the budget test sees it"),
    Mutant("double-glo-dropped", ZETA,
           "        w = glo + t * (", "        w = t * (", EQUIVALENCE,
           "the group offset taken as ghi alone, off by up to half an ulp"),
    Mutant("double-u5-dropped", ZETA,
           "(1 / 12 + uu / 80)", "(1 / 12)", EQUIVALENCE,
           "the u**5/80 term of the series left out: off by up to |t| * 2**-56"),
    Mutant("double-group-key-without-shift", ZETA,
           "    end = 0\n    for i, p in enumerate(members):\n        if p >= end:",
           "    base = shift = 0\n    for i, p in enumerate(members):\n"
           "        if p >> max(p.bit_length() - _LOG_TOP_BITS, 0) != base >> shift:",
           EDGES, "a new group only when p's own top differs: members with one top at two "
                  "shifts share an offset"),
    Mutant("double-upper-edge-dropped", ZETA,
           "smallest < low < tau:", "smallest < low:", EQUIVALENCE,
           "stage 1 keeps a sum past 2*pi, which the reference reduces by one period"),
    Mutant("double-rounding-check-dropped", ZETA,
           "        if low == ghi + (w + band) and smallest", "        if smallest", EQUIVALENCE,
           "stage 1 keeps the lower end of its band even when the upper end rounds elsewhere"),
    # Stage 2 of the zeta phases, in fixed point, and its constants.
    Mutant("fixed-band-over-16", ZETA,
           "_PHASE_BAND_BITS = 91\n", "_PHASE_BAND_BITS = 95\n",
           [PHASE + "test_band_holds_the_error_budget"],
           "stage 2's band 2**4 narrower than its derived budget"),
    Mutant("fixed-band-zero", ZETA,
           "            band = floor_band + (abs(product) >> _PHASE_BAND_BITS)\n",
           "            band = 0\n", WRAP,
           "no band once a period is taken off: a phase within 2**-63 of a wrap is kept"),
    Mutant("fixed-upper-edge-dropped", ZETA,
           "        if r < period - band or r - product == period:  # or one period added\n",
           "        if True:\n", WRAP,
           "a band across 2*pi kept: a phase just below 2*pi that the reference wraps to just "
           "above 0"),
    Mutant("fixed-rounding-check-dropped", ZETA,
           "            if low == to_double(r + band) and low > _SMALLEST_NORMAL:\n",
           "            if low > _SMALLEST_NORMAL:\n", [PHASE + "test_bits_match_the_reference"],
           "stage 2 keeps the lower end of its band even when the upper end rounds elsewhere"),
    Mutant("fixed-negative-branch-any-product", ZETA,
           "or r - product == period:", "or product < 0:", WRAP,
           "every negative product skips the upper wrap check, not only -2*pi < t*ln p < 0"),
    Mutant("fixed-log-atanh-divisor", ZETA,
           "series = z + z3 // 3 + z5 // 5", "series = z + z3 // 3 + z5 // 6", FIXED_LOG,
           "the z**5 term of ln p divided by 6, not 5"),
    Mutant("fixed-log-z7-dropped", ZETA,
           "series = z + z3 // 3 + z5 // 5 + z5 * a2 // b2 // 7\n",
           "series = z + z3 // 3 + z5 // 5\n", FIXED_LOG,
           "the z**7 term of ln p left out"),
    Mutant("fixed-log-table-index", ZETA,
           "    return log_top[top - _LOG_TOP_LOW] + ln2s[shift] + series\n",
           "    return log_top[top - _LOG_TOP_LOW + 1] + ln2s[shift] + series\n", FIXED_LOG,
           "ln(top) read one entry too high"),
    Mutant("fixed-log-shift-off-by-one", ZETA,
           "    shift = p.bit_length() - _LOG_TOP_BITS\n",
           "    shift = p.bit_length() - _LOG_TOP_BITS - 1\n", FIXED_LOG,
           "the top taken with one bit too many"),
    Mutant("constants-machin-sign", ZETA,
           "32 * _inverse_series(5, bits, -1) - 8 * _inverse_series(239, bits, -1)",
           "32 * _inverse_series(5, bits, -1) + 8 * _inverse_series(239, bits, -1)", CONSTANTS,
           "a sign slip in Machin's formula for 2*pi"),
    Mutant("constants-table-short", ZETA,
           "range(_LOG_TOP_LOW, 2 * _LOG_TOP_LOW - 1)", "range(_LOG_TOP_LOW, 2 * _LOG_TOP_LOW - 2)",
           CONSTANTS, "the ln(top) table one entry short"),
    Mutant("constants-log-top-one-bit-short", ZETA,
           "        logs.append((log + half) >> _SERIES_GUARD_BITS)\n",
           "        logs.append((log + half) >> (_SERIES_GUARD_BITS + 1) << 1)\n", CONSTANTS,
           "each ln(top) rounded to one fractional bit fewer"),
    Mutant("constants-ln2-one-bit-short", ZETA,
           "ln2s = tuple((k * ln2 + half) >> _SERIES_GUARD_BITS for",
           "ln2s = tuple((k * ln2 + half) >> (_SERIES_GUARD_BITS + 1) << 1 for", CONSTANTS,
           "each k*ln 2 rounded to one fractional bit fewer"),
    Mutant("reference-wrong-index", ZETA,
           "            phases[i] = phase\n", "            phases[i - 1] = phase\n",
           [PHASE + "test_bits_match_the_reference"],
           "each reference phase written one place too low"),
    Mutant("blowup-no-prime-limit-check", ZETA,
           "    _require_prime_limit(prime_limit)\n    spec = pathological_set(",
           "    spec = pathological_set(",
           ["tests/test_cli.py::TestBadInputExitCodes::test_documented_code_without_traceback"],
           "blowup_scan with a prime limit below 2 divides by ln 1 = 0"),
    # The code table of semigroup.
    Mutant("code-table-flip-maps-3-to-1", SEMIGROUP,
           "_FLIP = bytes((0, 2, 1, 3))", "_FLIP = bytes((0, 2, 1, 1))", CODE_TABLE,
           "a member with mu 0 turned back into mu +1 by its next prime factor"),
    Mutant("code-table-square-skipped-at-x", SEMIGROUP,
           "            if square <= x:\n", "            if square < x:\n", CODE_TABLE,
           "the square p**2 itself left squarefree when x = p**2"),
    Mutant("code-table-non-member-zeroed-from-square", SEMIGROUP,
           "            table[p::p] = bytearray(x // p)\n",
           "            table[p * p :: p] = bytearray(len(range(p * p, x + 1, p)))\n", CODE_TABLE,
           "a non-member p and its multiples below p**2 left in <P>"),
    Mutant("code-table-start-marks-no-member", SEMIGROUP,
           "_START = bytes((1, 5, 4))", "_START = bytes((1, 5, 5))", CODE_TABLE,
           "every member prime started as a non-member: the table of the empty set"),
    # The membership marks of primes.
    Mutant("logfrac-band-zero", PRIMES,
           "_LOGFRAC_BAND = 2.0**-30\n", "_LOGFRAC_BAND = 0.0\n", DECISIONS,
           "no band: a prime within the double error of the width decided in doubles"),
    Mutant("interval-low-end-off-by-one", PRIMES,
           "start = max(math.floor(spec.lo) + 1, 0)", "start = max(math.floor(spec.lo), 0)",
           MEMBER_FLAGS, "an interval's integer lower bound taken as a member"),
    Mutant("interval-high-end-off-by-one", PRIMES,
           "stop = min(math.floor(spec.hi) + 1, size)", "stop = min(math.floor(spec.hi), size)",
           MEMBER_FLAGS, "an interval's integer upper bound left out"),
    Mutant("finite-list-last-byte-dropped", PRIMES,
           "            if p < size:\n                flags[p] = 2\n",
           "            if p < size - 1:\n                flags[p] = 2\n", MEMBER_FLAGS,
           "a listed prime equal to the limit not marked"),
    Mutant("member-primes-finite-strict", PRIMES,
           "(p for p in spec.primes if p <= limit)", "(p for p in spec.primes if p < limit)",
           MEMBER_FLAGS, "a listed prime equal to the limit not listed"),
    Mutant("member-primes-all-branch-dropped", PRIMES,
           "    if isinstance(spec, AllPrimes):\n"
           "        return _coded_primes(_prime_flags(limit), _PRIME)\n", "",
           [EVERY_PRIME + "test_are_listed_off_the_sieve_flags"],
           "every prime listed off the marks: the same list, after a translation of the "
           "whole sieve"),
    # The mod-30 wheel listing.
    Mutant("wheel-spoke-dropped", PRIMES,
           "_SPOKES = (1, 7, 11, 13, 17, 19, 23, 29)", "_SPOKES = (1, 7, 11, 13, 17, 19, 23)",
           WHEEL, "the primes = 29 mod 30 never listed off the wheel"),
    Mutant("wheel-block-base-off-by-30", PRIMES,
           "repeat(base))", "repeat(base + 30))", WHEEL,
           "each block's members listed one turn too high"),
    Mutant("wheel-start-mask-one-short", PRIMES,
           "        block[: start - base] = bytes(start - base)\n",
           "        block[: start - base - 1] = bytes(start - base - 1)\n", WHEEL,
           "a member at start - 1 listed when start is inside a turn"),
    # The one ceiling guard.
    Mutant("guard-refuses-the-ceiling", PRIMES,
           "    if limit > MAX_SIEVE_LIMIT:\n", "    if limit >= MAX_SIEVE_LIMIT:\n",
           [GUARD + "test_the_ceiling_itself_is_allowed"], "the ceiling itself refused"),
    Mutant("guard-dropped-from-member-primes", PRIMES,
           "    The limit is checked at the call.\"\"\"\n    check_limit(limit)\n",
           "    The limit is checked at the call.\"\"\"\n",
           [GUARD + "test_refused_before_the_sieve"],
           "a finite set listed at a negative limit or past the ceiling"),
    # The CSV quoting rule of the CLI.
    Mutant("csv-quote-test-dropped", CLI,
           "s if _CSV_QUOTED.isdisjoint(s) else ", "", [WRITERS + "test_every_kind_as_csv"],
           "every str cell quoted, not only those that need it"),
    Mutant("csv-inner-quotes-not-doubled", CLI,
           """'"' + s.replace('"', '""') + '"'""", """'"' + s + '"'""",
           [WRITERS + "test_every_kind_as_csv"], "a quote inside a quoted cell ends it early"),
    Mutant("plain-inherits-csv-quoting", CLI,
           "_PLAIN = {**_CSV, bool: str, type(None): str, str: str}",
           "_PLAIN = {**_CSV, bool: str, type(None): str}", [WRITERS + "test_every_kind_as_plain"],
           "plain text quotes a str as CSV does"),
]

# Edits that the tests do not see, each kept with the reason it survives.
SURVIVORS = [
    Mutant("weights-left-out-of-common", SUMS,
           "    scale = math.prod(w.denominator for w in a.assignments.values())\n",
           "    scale = 1\n", BROAD,
           "the sum is exact for any common, and the reduction falls back to one gcd when a "
           "part is not a prime above isqrt(x); only speed depends on it"),
    Mutant("split-keeps-zero-pairs", SUMS,
           "((-a, p) for p, a in zip(large, prefixes) if a)",
           "((-a, p) for p, a in zip(large, prefixes))", BROAD,
           "a pair (0, p) is reduced away again, since p divides its own numerator 0; "
           "only speed depends on it"),
    Mutant("render-leaf-threshold-off-by-one", SUMS,
           "    def convert(n: int, w: int) -> Decimal:  # 0 <= n < 2**w\n"
           "        if w <= _RENDER_LEAF_BITS:\n",
           "    def convert(n: int, w: int) -> Decimal:  # 0 <= n < 2**w\n"
           "        if w < _RENDER_LEAF_BITS:\n", BROAD,
           "a leaf of exactly _RENDER_LEAF_BITS bits is split once more, with the same digits"),
    Mutant("constants-guard-bit-dropped", ZETA,
           "_SERIES_GUARD_BITS = 32\n", "_SERIES_GUARD_BITS = 31\n", ZETA_BROAD,
           "31 guard bits round every constant to the same 96-bit value as 32 do"),
    Mutant("logfrac-walk-gap-below-1e-12", PRIMES,
           "            if gap < 0.0:\n", "            if gap < 1e-12:\n",
           DECISIONS + MEMBER_FLAGS,
           "equivalent: a gap decided in doubles is more than 2**-30 from 0"),
]


def run(mutant: Mutant) -> str:
    text = (ROOT / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="musum-mutant-") as work:
        work = Path(work)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        result = subprocess.run(argv, cwd=work, capture_output=True, text=True)
    return {0: "survived", 1: "killed"}.get(result.returncode, f"error (pytest exit {result.returncode})")


def main(argv: list[str]) -> int:
    pattern = argv[0] if argv else ""
    bad = 0
    for group, expected in ((MUTANTS, "killed"), (SURVIVORS, "survived")):
        for mutant in group:
            if pattern not in mutant.name:
                continue
            start = time.perf_counter()
            outcome = run(mutant)
            seconds = time.perf_counter() - start
            flag = "" if outcome == expected else "   <-- expected " + expected
            bad += bool(flag)
            print(f"{outcome:9s} {mutant.name:34s} {seconds:5.1f} s  {mutant.reason}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
