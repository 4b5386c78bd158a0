"""Fixed reference tasks, timed between ops to gauge the machine's speed.

On a shared VM the speed of one process drifts by 10-25 % over tens of
seconds, about as much for a fixed task as for agq.  Each run therefore
times a reference task between ops and multiplies its times by the task's
reference time over its median time in that run: the times are those of a
machine on which the task takes its reference time.  In-process workloads
use ``loop``, a dict, sort and tuple loop.  The CLI workload uses
``interpreter_run("pass")``, a bare interpreter start, because a child
process's speed can drift apart from its parent's.  Neither task touches
agq, so a change to the package cannot move them; only the machine can.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from time import perf_counter

# Median times on a 2-core x86-64 Linux VM with Python 3.11.
REFERENCE_LOOP_S = 0.004
REFERENCE_START_S = 0.070

_rng = random.Random(20250306)
_PAIRS = [(f"k{_rng.randrange(3000)}", _rng.randrange(100)) for _ in range(6000)]
_N = 500
_EDGES = sorted({(i, j) for i in range(_N) for j in (_rng.randrange(_N), _rng.randrange(_N))
                 if i < j})


def loop() -> float:
    """Seconds taken by one pass of dict, sort, tuple and small-int work.

    The garbage collector is off meanwhile, so the size of the package's
    live heap cannot change the loop's time.
    """
    gc.disable()
    try:
        return _timed()
    finally:
        gc.enable()


def interpreter_run(code: str, env: dict[str, str]) -> float:
    """Seconds taken by a fresh interpreter running `code`, start to exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    return perf_counter() - t0


def _timed() -> float:
    t0 = perf_counter()
    counts: dict[str, int] = {}
    for key, value in _PAIRS:
        counts[key] = counts.get(key, 0) + value
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    succ: dict[int, list[int]] = {i: [] for i in range(_N)}
    for a, b in _EDGES:
        succ[a].append(b)
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for node in range(_N - 1, -1, -1):
        cur = (0, (node,))
        for child in succ[node]:
            n, path = best[child]
            cand = (n + 1, (node,) + path)
            if cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
                cur = cand
        best[node] = cur
    return perf_counter() - t0
