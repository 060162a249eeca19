"""The musum benchmark: seeded CLI workloads measured from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_sums --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, every metric
    python3 perfbench/run.py --write-golden         # re-record golden.json

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the separate traced run and reports the per-layer metrics.  Lines
before the last one are a readable summary; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout, never from elsewhere;
without it the benchmark exits with code 2 and prints no result.

Set-up and every measured run happen in fresh child interpreters, so a
run's peak RSS is that of one process doing only this workload.  Op times
are scaled to a nominal host speed measured by speed.py.  See
README.md in this directory for the workloads, the metrics and which layer
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from metrics import END_TO_END_UNITS, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Fresh interpreters timed for setup_s, besides the measuring worker itself.
SETUP_SAMPLES = 20
# Reference-loop times on each side of an op that its scaling averages.
SPEED_WINDOW = 5
# Every run, its set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, mode: str, deadline: float, **extra) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from spawn to ``ready`` at the
    nominal host speed, its result or None in setup mode).  The worker is
    always reaped."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    for flag, value in extra.items():
        cmd += [f"--{flag}", str(value)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    # All output goes through one unbuffered descriptor, read until EOF
    # under the deadline; set-up ends when the ``ready`` line arrives.
    out, setup = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"worker for {workload} ran past the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup is None and b"\n" in out:
                setup = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != "ready":
        raise BenchError(f"worker for {workload} did not get ready: {lines[:1]!r}")
    try:
        refs = json.loads(lines[1])
        setup *= speed.NOMINAL_S / statistics.fmean(refs)
        return setup, None if mode == "setup" else json.loads(lines[-1])
    except (IndexError, ValueError, TypeError, statistics.StatisticsError):
        raise BenchError(f"worker for {workload} printed no reference times or result") from None


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` ops beyond it."""
    return next(q for q in TAIL_PERCENTILES if n - math.ceil(q / 100 * n) >= 10)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def scaled_latencies(batches: list[list[float]], references: list[list[float]]) -> list[float]:
    """Each op's latency at the nominal host speed, averaged over batches.

    An op's time is scaled by ``speed.NOMINAL_S`` over the mean of the
    reference-loop times nearest to it (SPEED_WINDOW on each side, across
    batch boundaries), which tracks the host's speed from second to second.
    The mean over the batches, which run seconds apart, then averages over
    the slower and faster spells that the scaling leaves."""
    refs = [t for batch in references for t in batch]
    scaled, i = [], 0
    for batch in batches:
        row = []
        for latency in batch:
            near = refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
            row.append(latency * speed.NOMINAL_S / statistics.fmean(near))
            i += 1
        scaled.append(row)
    return [statistics.fmean(repeats) for repeats in zip(*scaled)]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # Half the set-up samples are taken before the measuring worker and half
    # after it, so that one busy spell of the machine cannot take them all.
    # Each is scaled by reference loops timed in the fresh interpreter itself
    # once it is ready: loops timed here in the parent, which may run on
    # another CPU, made the spread wider.
    setups = [_worker(workload, seed, "setup", deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    setup, result = _worker(workload, seed, "run", deadline, seconds=seconds)
    setups.append(setup)
    setups += [_worker(workload, seed, "setup", deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    batches = result["latencies"]
    per_op = scaled_latencies(batches, result["references"])
    q = tail_percentile(len(per_op))
    metrics = {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": nearest_rank(per_op, q),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(setups),
    }
    each = f"the mean of {len(batches)} batches" if len(batches) > 1 else "timed once"
    ops = f"{len(per_op)} ops, each {each} at nominal host speed"
    unscaled = sum(map(statistics.fmean, zip(*batches)))
    notes = {
        "wall_s": f"batch time: {ops} ({unscaled:.4g} s unscaled)",
        "op_p50_s": f"median of {ops}",
        "op_tail_s": f"p{q:g} of {ops} ({len(per_op) - math.ceil(q / 100 * len(per_op))} beyond it)",
        "peak_rss_mb": "peak RSS of the measuring child process",
        "setup_s": f"median of {len(setups)} fresh interpreters to import and warm up, "
                   "at nominal host speed",
    }
    return {"metrics": {k: (v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "failures": result["failures"]}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.json"
    _, result = _worker(workload, seed, "trace", deadline, spans=spans)
    metrics = {name: (result["metrics"][name], unit, note) for name, unit, note in PER_LAYER}
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "failures": result["failures"]}


def write_golden(deadline: float) -> None:
    digests = {w: _worker(w, DEFAULT_SEED, "golden", deadline)[1]["digests"] for w in WORKLOADS}
    payload = {"seed": DEFAULT_SEED, "digests": digests}
    (HERE / "golden.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote golden digests of {sum(map(len, digests.values()))} ops for seed {DEFAULT_SEED}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="musum benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "musum" / "__init__.py").is_file():
        print(f"perfbench: no musum source at {ROOT / 'src' / 'musum'}; run from a checkout",
              file=sys.stderr)
        return 2
    selected = WORKLOADS if opts.workload == "all" else (opts.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(selected)
    try:
        if opts.write_golden:
            write_golden(deadline)
            return 0
        reports = {}
        for workload in selected:
            if opts.trace:
                reports[workload] = measure_traced(workload, opts.seed, deadline)
            else:
                reports[workload] = measure(workload, opts.seed, opts.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for workload, report in reports.items():
        attempted, failed = report["attempted"], report["failed"]
        print(f"{workload} (seed {opts.seed}, trace {opts.trace}): {attempted} ops attempted, "
              f"{failed} failed, fail_frac {failed / attempted:g}")
        for name, (value, unit, note) in report["metrics"].items():
            print(f"  {name:26} {value:>16.6g} {unit:6} {note}")
            key = name if len(selected) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
        for line in report["failures"]:
            print(f"  FAIL {line}", file=sys.stderr)
    correct = all(r["failed"] == 0 for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
