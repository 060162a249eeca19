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
