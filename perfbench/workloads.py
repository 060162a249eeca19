"""Seeded op lists for the four benchmark workloads.

Each workload is a fixed skeleton of slots: the command, the family of the
prime set and the nominal size of ``x`` (or of the prime limit) are the same
for every seed, so the cost of one batch hardly depends on the seed.  The
seed fills in everything else: which primes a set excludes, the residue
class, the exact ``x`` (within 3% of the nominal value), the zeta and
log-fraction parameters, and the order of the ops.  The program only ever
sees the generated argv or sweep instances.

A CLI op is a dict ``{"cmd", "args", "argv"}``: ``args`` maps each flag
(without ``--``) to the exact string passed on the command line, so a replay
can parse the same values the CLI parses.  A sweep op is
``{"cmd": "sweep", "instance": {...}}``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact_sums", "float_grid", "zeta_logfrac", "sweep_mix")

# The seed whose per-op output digests are committed in golden.json.
DEFAULT_SEED = 1

# Primes whose exclusion barely changes the cost of a sum, so that the seed
# can pick among them without moving the batch time.
_MID_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
               73, 79, 83, 89, 97)

# Whole batches an untraced run always completes.  A batch of the first
# three workloads is a fixed skeleton, so its ops are repeated and each op's
# latency is a mean over the repeats.  sweep_mix's op costs are spread over
# three decades, and which instances a seed draws moves the median and the
# tail; so its batch is 960 distinct instances, each timed once per batch,
# whose median and tail vary less from seed to seed than means over repeats
# of a quarter as many.
MIN_BATCHES = {"exact_sums": 4, "float_grid": 4, "zeta_logfrac": 4, "sweep_mix": 1}

# Fixed, seed-independent ops run once before a worker reports ready; they
# are part of set-up time.
WARMUP = {
    "exact_sums": {"cmd": "sum", "args": {"set": "all", "x": "100", "mode": "exact"}},
    "float_grid": {"cmd": "sum", "args": {"set": "all", "x": "1000", "mode": "float"}},
    "zeta_logfrac": {"cmd": "zeta", "args": {"set": "logfrac:t=1.0,w=0.1,s=0.0",
                                             "re": "1.5", "im": "1.0",
                                             "prime-limit": "1000"}},
    "sweep_mix": {"cmd": "sweep",
                  "instance": {"kind": "theorem1", "set": "finite:2,3", "x": 100}},
}


def argv_of(op: dict) -> list[str]:
    """The command line of a CLI op, always with JSON output."""
    argv = [op["cmd"]]
    for flag, value in op["args"].items():
        argv += [f"--{flag}", value]
    return argv + ["--format", "json"]


def _cli(cmd: str, **flags) -> dict:
    op = {"cmd": cmd, "args": {k.replace("_", "-"): str(v) for k, v in flags.items()}}
    op["argv"] = argv_of(op)
    return op


def _ladder(count: int, lo: float, hi: float, power: float) -> list[float]:
    """``count`` nominal sizes from lo to hi, geometric in (k/(count-1))**power,
    so power > 1 crowds the slots toward lo and keeps few large, costly ops."""
    return [lo * (hi / lo) ** ((k / (count - 1)) ** power) for k in range(count)]


def _jitter(rng: random.Random, nominal: float) -> int:
    return round(nominal * rng.uniform(0.97, 1.03))


def _real(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _cofinite(rng: random.Random) -> str:
    excluded = sorted(rng.sample(_MID_PRIMES, rng.randrange(1, 3)))
    return "cofinite:" + ",".join(map(str, excluded))


def _dense_set(rng: random.Random) -> str:
    return "all" if rng.random() < 0.5 else _cofinite(rng)


def _residue(rng: random.Random, m: int) -> str:
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    return f"residue:{rng.choice(units)} mod {m}"


def _squarefree_mid(rng: random.Random) -> int:
    out = 1
    for p in rng.sample(_MID_PRIMES, rng.randrange(1, 3)):
        out *= p
    return out


# Log-fraction window widths.  The primes a window keeps, and with them
# the phase work of the three heaviest zeta_logfrac ops, grow with the width,
# so the seed picks it from a narrow range.
_WIDTH = (0.09, 0.11)


def _logfrac(rng: random.Random) -> str:
    return f"logfrac:t={_real(rng, 0.5, 3.0)},w={_real(rng, *_WIDTH)},s={_real(rng, 0.0, 0.99)}"


def exact_sums(rng: random.Random) -> list[dict]:
    """Exact-mode sums with x over 1e3..5e4: Fraction accumulation dominates.
    One sum runs at x = 5e4, whose denominator has ~72k bits."""
    ops = [_cli("sum", set="all", x=_jitter(rng, 5e4), mode="exact")]
    for x in _ladder(15, 1e3, 1e4, 2.0):
        ops.append(_cli("sum", set="all", x=_jitter(rng, x), mode="exact"))
    for x in _ladder(14, 1e3, 8e3, 2.0):
        ops.append(_cli("sum", set=_cofinite(rng), x=_jitter(rng, x), mode="exact"))
    for k, x in enumerate(_ladder(14, 1e3, 2e4, 1.5)):
        ops.append(_cli("sum", set=_residue(rng, (3, 4, 5, 8)[k % 4]),
                        x=_jitter(rng, x), mode="exact"))
    for x in _ladder(14, 1e3, 2e4, 1.5):
        x = _jitter(rng, x)
        interval = f"interval:{rng.randrange(5, 40)}..{round(x * rng.uniform(0.4, 0.8))}"
        ops.append(_cli("sum", set=interval, x=x, mode="exact"))
    for x in _ladder(14, 1e3, 7e3, 2.0):
        ops.append(_cli("coprime", p=_squarefree_mid(rng), x=_jitter(rng, x), mode="exact"))
    for x in _ladder(14, 1e3, 7e3, 2.0):
        ops.append(_cli("shifted", m=_squarefree_mid(rng), x=_jitter(rng, x), mode="exact"))
    for x in _ladder(14, 1e3, 7e3, 2.0):
        weights = ",".join(
            f"{p}={rng.randrange(0, den + 1)}/{den}"
            for p, den in ((p, rng.randrange(2, 7))
                           for p in sorted(rng.sample(_MID_PRIMES[:11], rng.randrange(2, 4))))
        )
        ops.append(_cli("weighted", weights=weights, default=1, x=_jitter(rng, x), mode="exact"))
    rng.shuffle(ops)
    return ops


def _grid(top: int) -> str:
    return f"{top // 100},{top // 10},{top}"


def float_grid(rng: random.Random) -> list[dict]:
    """Float sums and grid experiments on dense sets, x up to 1e6: the
    factor-table walk dominates.  Each family's sizes are spread evenly on a
    log scale, so op costs run smoothly from milliseconds to a tenth of a
    second around the one sum at x = 1e6."""
    ops = [_cli("sum", set=_dense_set(rng), x=_jitter(rng, 1e6), mode="float")]
    for x in _ladder(9, 2e3, 4e4, 1.0):
        ops.append(_cli("sum", set=_dense_set(rng), x=_jitter(rng, x), mode="float"))
    for x in _ladder(7, 2e3, 3e4, 1.0):
        ops.append(_cli("mean-mobius", set=_dense_set(rng), x=_jitter(rng, x)))
    for x in _ladder(7, 2e3, 3e4, 1.0):
        ops.append(_cli("converge", set=_dense_set(rng), x_grid=_grid(_jitter(rng, x))))
    for x in _ladder(7, 2e3, 2.5e4, 1.0):
        ops.append(_cli("zorn", set=_dense_set(rng), x=_jitter(rng, x)))
    for x in _ladder(7, 2e3, 3e4, 1.0):
        ops.append(_cli("density", set=_dense_set(rng), x=_jitter(rng, x)))
    for x in _ladder(6, 2e3, 1e4, 1.0):
        ops.append(_cli("gran", set=_dense_set(rng), x_grid=_grid(_jitter(rng, x))))
    for x in _ladder(6, 5e3, 1e5, 1.0):
        ops.append(_cli("mertens", x=_jitter(rng, x)))
    rng.shuffle(ops)
    return ops


def zeta_logfrac(rng: random.Random) -> list[dict]:
    """Blow-up scans and zeta products at prime limits 1e5..1e6: per-prime
    mpmath work in membership and phases dominates."""
    ops = []
    for shift in ("0.0", "0.5"):
        ops.append(_cli("blowup", t=_real(rng, 0.5, 3.0), shift=shift,
                        eps="0.5,0.2,0.1,0.05", width=_real(rng, *_WIDTH),
                        prime_limit=_jitter(rng, 1e5)))
    for limit in (1e5,):
        ops.append(_cli("zeta", set=_logfrac(rng), re=_real(rng, 1.05, 1.5),
                        im=_real(rng, -20.0, 20.0), prime_limit=_jitter(rng, limit)))
    for limit in (1e5, 3e5):
        ops.append(_cli("zeta", set="all", re=_real(rng, 1.05, 2.0),
                        im=_real(rng, 1.0, 30.0), prime_limit=_jitter(rng, limit)))
    for limit in _ladder(16, 1e5, 2e5, 1.0):
        ops.append(_cli("zeta", set=_dense_set(rng), re=_real(rng, 1.05, 2.0), im="0.0",
                        prime_limit=_jitter(rng, limit)))
    for k, limit in enumerate(_ladder(19, 1e5, 1e6, 3.0)):
        spec = _dense_set(rng) if k % 2 else _residue(rng, (3, 4, 5, 8)[k // 2 % 4])
        ops.append(_cli("logres", set=spec, sigma=_real(rng, 1.05, 2.0),
                        prime_limit=_jitter(rng, limit)))
    rng.shuffle(ops)
    return ops


# sweep_mix draws instances from the program's own generator and keeps a
# fixed number per variant and per tenth of the x range: the natural mix is
# heavy-tailed, and a batch of free draws would vary by tens of percent in
# cost from seed to seed.  Each kind gets the same number of instances, and
# the variant quotas follow the generator's own probabilities (theorem1:
# 5/6 finite; zorn: 35% finite, 25% cofinite, 10% all, 10% interval, 15%
# residue, 5% logfrac; mock: a third each, and a shifted m is not squarefree
# with probability 0.9 * 78/200, which makes its sum empty; weights: default
# 0 or 1, half each), so the mix within a kind is the one ``musum sweep``
# draws.
_SWEEP_QUOTAS = {
    "theorem1": {"finite": 200, "cofinite": 40},
    "mock": {"coprime": 80, "divisors": 80, "shifted": 52, "shifted-empty": 28},
    "zorn": {"finite": 84, "cofinite": 60, "all": 24, "interval": 24, "residue": 36,
             "logfrac": 12},
    "weights": {"0": 120, "1": 120},
}
_SWEEP_X_BINS = 10
_SWEEP_MAX_X = 10**4
_SWEEP_MAX_DRAWS = 10**6


def _sweep_variant(instance: dict) -> str:
    kind = instance["kind"]
    if kind in ("theorem1", "zorn"):
        return instance["set"].partition(":")[0]
    if kind == "mock":
        m = instance.get("m", 1)
        squarefree = all(m % (d * d) for d in range(2, math.isqrt(m) + 1))
        return instance["op"] if squarefree else "shifted-empty"
    return str(instance["default"])


def sweep_mix(seed: int, generate_instance) -> list[dict]:
    """Sweep instances of all four kinds, drawn per kind from
    ``random.Random(seed)`` as ``musum sweep --seed`` draws them, and kept
    while both their variant and their tenth of the x range have room."""
    ops = []
    for kind, quotas in _SWEEP_QUOTAS.items():
        rng = random.Random(seed)
        variant_room = dict(quotas)
        total = sum(quotas.values())
        bin_room = [total // _SWEEP_X_BINS] * _SWEEP_X_BINS
        draws = 0
        while variant_room:
            if draws == _SWEEP_MAX_DRAWS:
                raise RuntimeError(f"sweep quotas of kind {kind} left unfilled: {variant_room}")
            draws += 1
            instance = generate_instance(kind, rng)
            variant = _sweep_variant(instance)
            tenth = (instance["x"] - 1) * _SWEEP_X_BINS // _SWEEP_MAX_X
            if variant_room.get(variant) and bin_room[tenth]:
                bin_room[tenth] -= 1
                variant_room[variant] -= 1
                if not variant_room[variant]:
                    del variant_room[variant]
                ops.append({"cmd": "sweep", "instance": instance})
    random.Random(f"sweep_mix:{seed}").shuffle(ops)
    return ops


def generate(workload: str, seed: int, generate_instance=None) -> list[dict]:
    """The op list of one batch; ``generate_instance`` is
    ``musum.sweeps.generate_instance`` and is needed for sweep_mix only."""
    if workload == "sweep_mix":
        return sweep_mix(seed, generate_instance)
    make = {"exact_sums": exact_sums, "float_grid": float_grid,
            "zeta_logfrac": zeta_logfrac}[workload]
    return make(random.Random(f"{workload}:{seed}"))
