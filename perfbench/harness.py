"""The measuring loops of one worker process, and the per-layer split.

Untraced run: a closed loop with one client.  Each op starts only after
the previous one returned; a batch is the seed's op list; whole batches run
back to back until the next one would overrun ``--seconds`` (at least
``workloads.MIN_BATCHES`` of them), so an op is timed at moments seconds
apart.  The host-speed reference loop (speed.py) is timed just before each
op.  No spans are recorded.

Traced run: one batch.  Each op runs

1. untraced, timed as a whole, and traced, inside an ``op`` span with a
   child span for its entry call; their difference is the tracing overhead;
2. then every public call of its call tree (replay.py) is replayed, one span
   each, with the logical parent span and the op id; self times are derived
   from these by subtraction.

Then every replayed call runs a second time, untimed, and its counts must
repeat exactly; the untraced and traced outputs of each op must be equal
too.  Last, the sums and the semigroup call with the largest x run once
more under tracemalloc, for the allocation peaks.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import replay
import speed
import workloads
from musum import sweeps


def execute(op: dict) -> tuple[int, str]:
    """Run one op; returns (exit code, output).  A sweep op's output is
    its failure record (``null`` when the check holds) and its code is 0 or
    3, as ``musum sweep`` would exit."""
    if op["cmd"] == "sweep":
        failure = sweeps.check_instance(op["instance"])
        return (0 if failure is None else 3), json.dumps(failure)
    return replay.run_cli(op["argv"])


def digest(op: dict, code: int, output: str) -> str:
    text = output
    if op["cmd"] == "sweep":
        text = json.dumps(op["instance"], sort_keys=True) + "\n" + output
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


class Checker:
    """Fails an op on a nonzero exit code, on a false ``bound_ok`` or
    identity verdict, and, when golden digests are given (the default
    seed), on any output that differs from the committed one."""

    def __init__(self, ops: list[dict], golden: list[str] | None):
        self.ops = ops
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, index: int, code: int, output: str) -> None:
        self.attempted += 1
        reason = self._reason(index, code, output)
        if reason is not None:
            self.fail(index, reason)

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        op = self.ops[index]
        label = " ".join(op["argv"]) if "argv" in op else json.dumps(op["instance"])
        self.reasons.append(f"op {index} ({label}): {reason}")

    def _reason(self, index: int, code: int, output: str) -> str | None:
        op = self.ops[index]
        if code != 0:
            return f"exit code {code}"
        if op["cmd"] != "sweep":
            try:
                payload = json.loads(output)
            except ValueError:
                return "output is not JSON"
            if payload.get("bound_ok") is False:
                return "bound_ok is false"
            if payload.get("equal") is False:
                return "counting identity is false"
        if self.golden is not None:
            expected = self.golden[index] if index < len(self.golden) else None
            if digest(op, code, output) != expected:
                return "output differs from its committed golden digest"
        return None


def run_loop(ops: list[dict], seconds: float, min_batches: int, checker: Checker) -> dict:
    """Latency of every op of every batch, one list per batch, and the
    time of the host-speed reference loop run just before each op."""
    walls: list[float] = []
    batches: list[list[float]] = []
    references: list[list[float]] = []
    start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        latencies, refs = [], []
        for index, op in enumerate(ops):
            refs.append(speed.reference())
            t0 = time.perf_counter()
            code, output = execute(op)
            latencies.append(time.perf_counter() - t0)
            checker.check(index, code, output)
        end = time.perf_counter()
        walls.append(end - batch_start)
        batches.append(latencies)
        references.append(refs)
        if len(walls) >= min_batches and end - start + statistics.median(walls) > seconds:
            return {"latencies": batches, "references": references}


class Spans:
    """In-memory span recorder: name, start, end, parent span and op id."""

    def __init__(self):
        self.records: list[dict] = []

    def begin(self, name: str, parent: int | None, op: int, **extra) -> int:
        self.records.append({"name": name, "start": time.perf_counter(), "end": None,
                             "parent": parent, "op": op, **extra})
        return len(self.records) - 1

    def end(self, span: int) -> float:
        record = self.records[span]
        record["end"] = time.perf_counter()
        return record["end"] - record["start"]


@dataclass
class Timed:
    call: replay.Call
    duration: float
    counts: dict
    op: int
    children: list["Timed"] = field(default_factory=list)


def _replay(call: replay.Call, spans: Spans, parent: int, op: int) -> Timed:
    span = spans.begin(call.name, parent, op, kind="replay", probe=call.probe)
    counts = call.run()
    node = Timed(call, spans.end(span), counts, op)
    node.children = [_replay(child, spans, span, op) for child in call.children]
    return node


def _walk(node: Timed):
    yield node
    for child in node.children:
        yield from _walk(child)


def _untraced_op(index: int, op: dict, checker: Checker) -> tuple[float, str]:
    t0 = time.perf_counter()
    code, output = execute(op)
    elapsed = time.perf_counter() - t0
    checker.check(index, code, output)
    return elapsed, output


def trace(ops: list[dict], checker: Checker, spans_path: str | None) -> dict:
    spans = Spans()
    untraced = op_wall = 0.0
    trees = []
    for index, op in enumerate(ops):
        root = replay.plan(op)
        # The untraced run of an op goes first on odd ops and last on even
        # ones, so that warm-up and drift do not land on one side of the
        # overhead.
        if index % 2:
            elapsed, plain = _untraced_op(index, op, checker)
        op_span = spans.begin("op", None, index, kind="op")
        entry = spans.begin(root.name, op_span, index, kind="op")
        code, output = execute(op)
        entry_s = spans.end(entry)
        checker.check(index, code, output)
        op_wall += spans.end(op_span)
        if not index % 2:
            elapsed, plain = _untraced_op(index, op, checker)
        untraced += elapsed
        if plain != output:
            checker.fail(index, "untraced and traced runs printed different outputs")
        counts = {"out_bytes": len(output.encode("utf-8"))} if root.name == "cli.run" else {}
        children = [_replay(child, spans, entry, index) for child in root.children]
        trees.append(Timed(root, entry_s, counts, index, children))

    # Counts depend only on the inputs: a second, untimed run of every
    # replayed call must reproduce them exactly.
    nodes = [node for tree in trees for node in _walk(tree) if node.call.run is not None]
    for node in nodes:
        again = node.call.run()
        if again != node.counts:
            checker.fail(node.op, f"{node.call.name} counted {node.counts} "
                                  f"and then {again} on the same inputs")

    # Allocation peaks: the call with the largest x of each layer once more,
    # under tracemalloc (which slows every allocation, so nothing else is
    # timed while it runs).
    largest: dict[str, Timed] = {}
    for node in nodes:
        layer = node.call.layer
        if layer in ("sums", "semigroup"):
            if layer not in largest or node.call.size > largest[layer].call.size:
                largest[layer] = node
    peaks = {"sums": 0, "semigroup": 0}
    tracemalloc.start()
    try:
        for layer, node in largest.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            node.call.run()
            peaks[layer] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    if spans_path:
        Path(spans_path).write_text(json.dumps(spans.records), encoding="utf-8")
    metrics, self_total = layer_metrics(trees, peaks)
    metrics["trace.overhead_s"] = op_wall - untraced
    metrics["trace.covered_frac"] = _ratio(self_total, op_wall)
    return {"metrics": metrics}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trees: list[Timed], peaks: dict) -> tuple[dict, float]:
    """Per-layer metrics from the replay trees, and the sum of all self
    times.  ``*_self``-style values
    (filter_s, enum_s, accumulate_s, self_s, render_s) are derived: a
    node's duration minus its children's, each timed separately."""
    busy: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    trials: dict[str, list[float]] = defaultdict(list)

    def visit(node: Timed, parent_layer: str | None) -> None:
        call, layer = node.call, node.call.layer
        if call.probe:
            busy["experiments.single"] += node.duration
            return
        sub = sum(child.duration for child in node.children if not child.call.probe)
        busy[f"{layer}.self"] += node.duration - sub
        if layer != parent_layer:
            busy[f"{layer}.call"] += node.duration
        if call.tag == "grid":
            busy["experiments.grid"] += node.duration
        if call.name == "primes.sieve_primes":
            busy["primes.sieve"] += node.duration
        if call.route == "sieve":
            busy["semigroup.sieve_route"] += node.duration
        if call.name == "sweeps.check_instance":
            trials[call.tag].append(node.duration)
        if layer == "zeta":
            counts["zeta.factors"] += node.counts["points"] * node.children[0].counts["kept"]
        for key, value in node.counts.items():
            counts[f"{layer}.{key}"] += value
        for child in node.children:
            visit(child, layer)

    for tree in trees:
        visit(tree, None)

    m = {
        "primes.sieve_s": busy["primes.sieve"],
        "primes.filter_s": busy["primes.self"] - busy["primes.sieve"],
        "primes.sieved": counts["primes.sieved"],
        "primes.kept": counts["primes.kept"],
        "primes.kept_ratio": _ratio(counts["primes.kept"], counts["primes.sieved"]),
        "semigroup.enum_s": busy["semigroup.self"],
        "semigroup.scanned": counts["semigroup.scanned"],
        "semigroup.terms": counts["semigroup.terms"],
        "semigroup.ns_per_scanned":
            _ratio(busy["semigroup.sieve_route"] * 1e9, counts["semigroup.scanned"]),
        "semigroup.alloc_peak_mb": peaks["semigroup"] / 1e6,
        "sums.call_s": busy["sums.call"],
        "sums.accumulate_s": busy["sums.self"],
        "sums.terms": counts["sums.terms"],
        "sums.den_bits": counts["sums.den_bits"],
        "sums.ns_per_term": _ratio(busy["sums.self"] * 1e9, counts["sums.terms"]),
        "sums.alloc_peak_mb": peaks["sums"] / 1e6,
        "zeta.call_s": busy["zeta.call"],
        "zeta.self_s": busy["zeta.self"],
        "zeta.factors": counts["zeta.factors"],
        "experiments.call_s": busy["experiments.call"],
        "experiments.grid_ratio": _ratio(busy["experiments.grid"], busy["experiments.single"]),
    }
    for kind in sweeps.SWEEP_KINDS:
        m[f"sweeps.trial_s.{kind}"] = statistics.median(trials[kind]) if trials[kind] else 0.0
    m["sweeps.trials"] = sum(len(t) for t in trials.values())
    m["cli.run_s"] = busy["cli.call"]
    m["cli.render_s"] = busy["cli.self"]
    m["cli.out_bytes"] = counts["cli.out_bytes"]
    return m, sum(v for k, v in busy.items() if k.endswith(".self"))


def main(workload: str, seed: int, mode: str, seconds: float, spans_path: str | None) -> dict:
    ops = workloads.generate(workload, seed, sweeps.generate_instance)
    if mode == "golden":
        return {"digests": [digest(op, *execute(op)) for op in ops]}
    golden = None
    if seed == workloads.DEFAULT_SEED:
        path = Path(__file__).resolve().parent / "golden.json"
        golden = json.loads(path.read_text(encoding="utf-8"))["digests"][workload]
    checker = Checker(ops, golden)
    if mode == "run":
        result = run_loop(ops, seconds, workloads.MIN_BATCHES[workload], checker)
    else:
        result = trace(ops, checker, spans_path)
    result.update(ops_per_batch=len(ops), attempted=checker.attempted, failed=checker.failed,
                  failures=checker.reasons[:20],
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result
