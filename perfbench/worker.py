"""One benchmark process: a fresh interpreter that imports musum from the
checkout's ``src``, runs the workload's fixed warm-up op, prints ``ready``
and a JSON list of reference-loop times (speed.py), and then, by ``--mode``:

* ``setup``  -- exits at once (run.py times set-up from spawn to ``ready``);
* ``run``    -- the untraced closed loop, see ``harness.run_loop``;
* ``trace``  -- the traced passes over one batch, see ``harness.trace``;
* ``golden`` -- one batch, printing the digest of every op's output.

Apart from ``setup``, the last stdout line is one JSON object.  Normally
started by run.py as

    python -I perfbench/worker.py --root . --workload exact_sums --seed 1 --mode run --seconds 20
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

SETUP_REFERENCES = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "golden"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    opts = _parse(argv)
    src = Path(opts.root).resolve() / "src"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(src), str(here)]
    import musum
    from musum import cli, sweeps

    if not Path(musum.__file__).resolve().is_relative_to(src):
        print(f"worker: musum was imported from {musum.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import speed
    import workloads

    warmup = workloads.WARMUP[opts.workload]
    if warmup["cmd"] == "sweep":
        sweeps.check_instance(warmup["instance"])
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(workloads.argv_of(warmup))
    print("ready", flush=True)
    # The host's speed just after set-up, from this process and its CPU.
    print(json.dumps([speed.reference() for _ in range(SETUP_REFERENCES)]), flush=True)
    if opts.mode == "setup":
        return 0

    import harness

    result = harness.main(opts.workload, opts.seed, opts.mode, opts.seconds, opts.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
