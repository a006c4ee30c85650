"""Forked worker processes, each on a CPU of its own.

Two users split their work into contiguous ranges, one per process, both
through ``map_ranges``: the trajectory writer and the equivalence battery.
The caller does range 0 and a worker made with ``os.fork`` does each other
range.  A forked child starts on its parent's CPU, and the two may share it
for the whole run while another CPU idles, so the caller places each worker
on a CPU of its own as it forks it, and itself on its first CPU after the
last fork, while CPUs last.

Each worker sends back its range's results pickled, with the margins the
worker's decisions noted, so the caller gets the same values and margins it
would have computed itself.  The battery's results are dicts of Python
scalars; the writer's ranges return nothing, as each writes its text into
files of its own.  The caller computes a failed worker's range again, so a
failure is its own exception.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from contextlib import ExitStack, suppress

from .subspaces import margin_monitor, note_margin

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


def _place(pid: int, cpus):
    """Run process ``pid`` (0: the caller) on ``cpus`` only, if any are
    given; where the system refuses, it stays where it is, as no result
    depends on where it runs."""
    if cpus:
        with suppress(OSError):
            os.sched_setaffinity(pid, cpus)


def map_ranges(fn, units: int, workers: int) -> list:
    """``[fn(i) for i in range(units)]``, with the units split into
    ``workers`` contiguous ranges, one per process.

    The caller computes range 0 once it has forked a worker for each other
    range.  With the caller's CPUs numbered from 0 in order, worker k goes
    to CPU k as it is forked and the caller to CPU 0 after the last fork,
    while CPUs last.  Each worker pickles its range's results, and
    every margin noted while computing them, into an unlinked spool.  Then
    the caller takes the ranges in order: it notes each worker's margins
    again, so an enclosing margin monitor sees every margin in the order
    one process would note them.  The caller computes a failed worker's
    range itself, so a unit that raises raises here as itself.

    However the call ends, every worker is waited for and the caller's
    CPUs are restored.  A worker leaves through ``os._exit``: it never
    returns into the caller's code and never flushes the caller's stdout or
    file buffers, so ``fn`` flushes what it writes.  Workers may call BLAS:
    numpy's OpenBLAS stops its thread pool before a fork and starts it
    again in each process on first use.
    """
    bounds = [units * k // workers for k in range(workers + 1)]

    def compute(k):
        return [fn(i) for i in range(bounds[k], bounds[k + 1])]

    cpus = (sorted(os.sched_getaffinity(0))
            if workers > 1 and hasattr(os, "sched_setaffinity") else [])
    with ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile())
                  for _ in range(1, workers)]
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
                        with margin_monitor() as rec:
                            done = compute(k)
                        pickle.dump((done, rec.margins), spools[k - 1],
                                    pickle.HIGHEST_PROTOCOL)
                        spools[k - 1].flush()
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                _place(pid, cpus[k:k + 1])
            _place(0, cpus[:1])
            results = compute(0)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
            _place(0, set(cpus))
        for k, (spool, code) in enumerate(zip(spools, codes), 1):
            if code:
                results += compute(k)
                continue
            spool.seek(0)
            done, margins = pickle.load(spool)
            for margin in margins:
                note_margin(margin)
            results += done
    return results
