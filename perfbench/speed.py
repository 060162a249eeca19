"""The host-speed reference that the end-to-end times are scaled by.

On a shared machine the speed of the same code changes by up to half for
seconds or minutes at a time, and no steal time is reported.  A fixed
pure-Python loop run next to the ops slows down with them: timed before
every op, its times give the host's speed at that moment.  The benchmark
reports each time as it would read on a host where ``reference()`` takes
``NOMINAL_S``: ``seconds * NOMINAL_S / reference time``.  The loop uses no
musum code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

LOOPS = 15_000
# About what reference() takes on a 2-vCPU x86-64 VM running CPython 3.
NOMINAL_S = 1.5e-3


def reference() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0
