"""Machine-speed references: fixed work timed between operations.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of per cent over seconds to minutes, which moves every operation's
wall time with it.  The runner times a reference in the gaps right before
and right after every operation, and reports an operation's time scaled to
the reference speed:

    scaled_s = wall_s * nominal_s / (median reference time in both gaps)

Two references exist, one per kind of operation, because the drift of
work done inside a long-lived process and that of starting a process
differ (on the shared machine, each tracked its own kind of operation's
drift and not the other's):

- CHUNK, for operations inside the benchmark process: `chunk()`, a fixed
  mix of interpreter-bound loops, small dense linear algebra, compiling
  Python source and building and sorting a dict, about 3 ms;
- SPAWN, for operations that run a fresh interpreter (set-up probes and
  CLI runs): `spawn()`, starting an interpreter that imports numpy, about
  0.1 s.

Neither touches geouio, so no change to the package moves them.  The gap
after an operation lasts `DUTY` times the operation (at least `MIN_CHUNKS`
references), so the reference samples the same stretch of time.  The
nominal times are fixed constants; changing one or its reference rescales
every scaled time, so both stay as they are between compared runs.
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

DUTY = 0.25
MIN_CHUNKS = 4
clock = time.perf_counter

_M = np.random.default_rng(20250911).standard_normal((12, 12)) / 12.0
_S = _M[:8, :8].copy()
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n"
    f"    z = [x * k + y for k in range({i % 7 + 2})]\n"
    f"    return {{'x': x, 'z': z, 's': sum(z) / (y + 1)}}\n"
    for i in range(24))


def chunk():
    """One reference chunk: small dense algebra, compiling, dict and sort."""
    x = np.ones(12)
    for _ in range(40):
        k1 = _M @ x
        x = x + 0.01 * (k1 + _M @ (x + 0.005 * k1))
        np.linalg.svd(_S)
    compile(_SOURCE, "<speed>", "exec")
    table = {f"{i:05d}": (i * 2.5, [i, -i]) for i in range(800)}
    rows = sorted(table.items(), key=lambda kv: -kv[1][0])
    return [f"{k},{v[0]:.6g}" for k, v in rows[:200]]


def spawn():
    """One process-start reference: a fresh interpreter importing numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


CHUNK = (chunk, 0.003)      # (reference work, nominal seconds)
SPAWN = (spawn, 0.1)


def timed_gap(ref, op_s=0.0):
    """Reference times of one gap after an operation that took `op_s`."""
    work, nominal = ref
    count = max(MIN_CHUNKS, math.ceil(DUTY * op_s / nominal))
    times = []
    for _ in range(count):
        t0 = clock()
        work()
        times.append(clock() - t0)
    return times


def scale(ref, wall_s, before, after):
    """`wall_s` at reference speed, from the gaps on both sides."""
    return wall_s * ref[1] / statistics.median(before + after)
