"""Randomized property sweeps over the bound and identity checks.

Each sweep draws instances from a seeded generator (Python's Mersenne
Twister via ``random.Random``, so identical seeds reproduce identical trials
on every platform), checks the property exactly, and reports any falsifying
instance as a serialisable dict that can be replayed verbatim.  The
properties are theorems, so failures indicate implementation bugs; the whole
point of the sweeps is falsification power over the code.

Sweep kinds:

* ``theorem1`` -- |S_P(x)| <= 1 as an exact rational comparison for random
  finite and cofinite prime sets;
* ``mock``     -- the three restricted sums stay within the unit bound, and
  the coprime form agrees exactly with its semigroup formulation;
* ``zorn``     -- the integer counting identity holds exactly;
* ``weights``  -- random rational weights stay within the unit bound and 0/1
  weights reproduce the plain partial sums exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import UsageError
from .primes import (
    AllPrimes,
    CofinitePrimes,
    FinitePrimes,
    IntervalPrimes,
    LogFracPrimes,
    ResiduePrimes,
    parse_spec,
    render_spec,
)
from .sums import (
    WeightFunction,
    partial_sum,
    partial_sum_coprime,
    partial_sum_divisors,
    partial_sum_shifted,
    spec_of_coprime_modulus,
    weighted_partial_sum,
    zorn_check,
)

SWEEP_KINDS = ("theorem1", "mock", "zorn", "weights")

_PRIMES_TO_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97)
_MAX_X = 10**4


@dataclass
class SweepResult:
    kind: str
    trials: int
    seed: int | None
    passed: int
    failures: list[dict] = field(default_factory=list)
    instances: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_primes(rng: random.Random, most: int) -> tuple[int, ...]:
    """Between 0 and ``most`` distinct primes below 100."""
    return tuple(rng.sample(_PRIMES_TO_100, rng.randrange(0, most + 1)))


def _random_zorn_spec(rng: random.Random):
    roll = rng.random()
    if roll < 0.35:
        return FinitePrimes(_random_primes(rng, 8))
    if roll < 0.60:
        return CofinitePrimes(_random_primes(rng, 5))
    if roll < 0.70:
        return AllPrimes()
    if roll < 0.80:
        lo = rng.uniform(0, 150)
        return IntervalPrimes(lo, lo + rng.uniform(1, 400))
    if roll < 0.95:
        m = rng.randrange(2, 30)
        return ResiduePrimes(rng.randrange(0, m), m)
    return LogFracPrimes(rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.5), rng.random())


def generate_instance(kind: str, rng: random.Random) -> dict:
    if kind in ("theorem1", "zorn"):
        if kind == "zorn":
            spec = _random_zorn_spec(rng)
        elif rng.random() < 5 / 6:
            spec = FinitePrimes(_random_primes(rng, 8))
        else:
            spec = CofinitePrimes(_random_primes(rng, 5))
        return {"kind": kind, "set": render_spec(spec), "x": rng.randrange(1, _MAX_X + 1)}
    if kind == "mock":
        op = rng.choice(("coprime", "divisors", "shifted"))
        inst = {"kind": kind, "op": op, "x": rng.randrange(1, _MAX_X + 1)}
        if op == "coprime":
            inst["P"] = rng.randrange(1, _MAX_X + 1)
        elif op == "divisors":
            inst["N"] = rng.randrange(1, _MAX_X + 1)
        else:
            inst["m"] = 1 if rng.random() < 0.1 else rng.randrange(1, 201)
        return inst
    if kind == "weights":
        default = rng.randrange(2)
        extreme = rng.random() < 0.25
        weights = {}
        for p in rng.sample(_PRIMES_TO_100[:15], rng.randrange(0, 7)):
            if extreme:
                value = Fraction(rng.randrange(2))
            else:
                den = rng.randrange(1, 13)
                value = Fraction(rng.randrange(0, den + 1), den)
            weights[str(p)] = str(value)
        return {
            "kind": kind,
            "default": default,
            "weights": weights,
            "x": rng.randrange(1, _MAX_X + 1),
        }
    raise UsageError(f"unknown sweep kind {kind!r} (expected one of {', '.join(SWEEP_KINDS)})")


def check_instance(instance: dict) -> dict | None:
    """Run one serialized instance; returns a failure record or None.  Each
    kind but zorn gives a report, its bound label and maybe a twin: the set
    whose plain partial sum must equal the report, and the reason if not."""
    kind = instance["kind"]
    twin = None
    if kind == "theorem1":
        report = partial_sum(parse_spec(instance["set"]), instance["x"], mode="exact")
        label = "partial"
    elif kind == "zorn":
        result = zorn_check(parse_spec(instance["set"]), instance["x"])
        split = f"counting identity split: lhs={result.lhs} rhs={result.rhs}"
        return None if result.equal else {**instance, "reason": split}
    elif kind == "mock":
        x = instance["x"]
        label = instance["op"]
        if label == "coprime":
            report = partial_sum_coprime(instance["P"], x, mode="exact")
            twin = (spec_of_coprime_modulus(instance["P"]),
                    "coprime sum disagrees with its semigroup form")
        elif label == "divisors":
            report = partial_sum_divisors(instance["N"], x, mode="exact")
        else:
            report = partial_sum_shifted(instance["m"], x, mode="exact")
            if instance["m"] == 1:
                twin = AllPrimes(), "shift m=1 disagrees with the plain sum"
    elif kind == "weights":
        try:
            assignments = {int(p): Fraction(v) for p, v in instance["weights"].items()}
        except (TypeError, ValueError, ZeroDivisionError):
            raise UsageError(f"weights must map primes to fractions: {instance!r}") from None
        a = WeightFunction(assignments, default_value=instance["default"])
        report = weighted_partial_sum(a, instance["x"], mode="exact")
        label = "weighted"
        if all(v in (0, 1) for v in assignments.values()):
            if instance["default"] == 0:
                spec = FinitePrimes(tuple(p for p, v in assignments.items() if v == 1))
            else:
                spec = CofinitePrimes(tuple(p for p, v in assignments.items() if v == 0))
            twin = spec, "extreme weights disagree with the plain sum"
    else:
        raise UsageError(f"unknown sweep kind {kind!r}")
    if not report.bound_ok:
        return {**instance, "reason": f"{label} sum escaped the unit bound"}
    if twin and report.value_exact != partial_sum(twin[0], instance["x"], mode="exact").value_exact:
        return {**instance, "reason": twin[1]}
    return None


def run_sweep(kind: str, trials: int, seed: int) -> SweepResult:
    """Generate and check ``trials`` random instances of the given kind."""
    if kind not in SWEEP_KINDS:
        raise UsageError(f"unknown sweep kind {kind!r} (expected one of {', '.join(SWEEP_KINDS)})")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    return _check_all(kind, trials, seed, (generate_instance(kind, rng) for _ in range(trials)))


def _check_all(kind: str, trials: int, seed: int | None, instances: Iterable[dict]) -> SweepResult:
    """Check each instance in turn, recording it and its verdict."""
    result = SweepResult(kind=kind, trials=trials, seed=seed, passed=0)
    for instance in instances:
        result.instances.append(instance)
        failure = check_instance(instance)
        if failure is None:
            result.passed += 1
        else:
            result.failures.append(failure)
    return result


# The fields check_instance reads from each kind of instance; a mock
# instance also reads the operand its op names.
_INSTANCE_FIELDS = {
    "theorem1": {"set": str, "x": int},
    "zorn": {"set": str, "x": int},
    "mock": {"op": str, "x": int},
    "weights": {"default": int, "weights": dict, "x": int},
}
_MOCK_OPERANDS = {"coprime": "P", "divisors": "N", "shifted": "m"}


def _check_fields(instance) -> None:
    """Raise UsageError unless a serialized instance carries every field
    that checking it reads, with the type the generator writes."""
    if not isinstance(instance, dict) or instance.get("kind") not in _INSTANCE_FIELDS:
        raise UsageError(f"a sweep instance must be an object with a known kind, got {instance!r}")
    fields = _INSTANCE_FIELDS[instance["kind"]]
    if instance["kind"] == "mock":
        if instance.get("op") not in _MOCK_OPERANDS:
            raise UsageError(f"mock instance has an unknown op: {instance!r}")
        fields = {**fields, _MOCK_OPERANDS[instance["op"]]: int}
    for name, kind in fields.items():
        if type(instance.get(name)) is not kind:  # a bool is not taken for an int
            raise UsageError(f"sweep instance field {name!r} must be {kind.__name__}: {instance!r}")


def replay_instances(instances: list[dict]) -> SweepResult:
    """Re-check previously serialized instances; verdicts are deterministic,
    so a replay reproduces the original outcome exactly.  Malformed input
    raises UsageError before any instance is checked."""
    if not isinstance(instances, list):
        raise UsageError(f"a replay must be a list of instances, got {type(instances).__name__}")
    for instance in instances:
        _check_fields(instance)
    return _check_all("replay", len(instances), None, instances)
