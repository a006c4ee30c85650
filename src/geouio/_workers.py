"""Forked worker processes, each on a CPU of its own.

The trajectory writer and the equivalence battery split their work into
contiguous ranges, one per process: the caller does range 0 and a worker
made with ``os.fork`` does each other range.  A forked child starts on its
parent's CPU, and the two may share it for the whole run while another CPU
idles, so each process is placed on a CPU of its own while CPUs last.
"""

from __future__ import annotations

import os
import warnings
from contextlib import ExitStack, suppress

# Most processes one split run takes, the caller included.
_MAX_WORKERS = 8


def count(units: int, per_worker: int) -> int:
    """Processes for ``units`` units of work, one per ``per_worker`` units,
    the caller included, up to the CPUs the caller may use and
    _MAX_WORKERS; 1 where ``os.fork`` or ``os.sched_getaffinity`` is
    missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units // per_worker,
                      _MAX_WORKERS))


def place(cpus):
    """Run the calling thread on ``cpus`` only, if any are given; where the
    system refuses, it stays where it is, as no result depends on where it
    runs."""
    if cpus:
        with suppress(OSError):
            os.sched_setaffinity(0, cpus)


def run(workers: int, child, parent):
    """Run ``child(k)`` in a forked worker for each k in 1..workers-1, then
    ``parent()`` in the caller; returns what ``parent`` returned and the
    workers' exit codes in order: 0 where ``child`` returned, 1 where it
    raised.

    The caller moves to the first of its CPUs and worker k to the k-th,
    while they last.  However ``parent`` ends, every worker is waited for
    and the caller's CPUs are restored.  A worker leaves through
    ``os._exit``: it never returns into the caller's code and never flushes
    the caller's stdout or file buffers, so ``child`` flushes what it
    writes.  Workers may call BLAS: numpy's OpenBLAS stops its thread pool
    before a fork and starts it again in each process on first use.
    """
    homes = (sorted(os.sched_getaffinity(0))[:workers]
             if workers > 1 and hasattr(os, "sched_setaffinity") else [])
    with ExitStack() as stack:
        if homes:
            stack.callback(place, os.sched_getaffinity(0))
            place(homes[:1])
        pids = []
        try:
            for k in range(1, workers):
                with warnings.catch_warnings():
                    # Python 3.12+ warns of fork with live threads; see above.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        place(homes[k:k + 1])
                        child(k)
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            result = parent()
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
    return result, codes
