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
