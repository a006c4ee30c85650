"""Forked worker processes, each on a CPU of its own.

Three users split their work into contiguous ranges, one per process: the
trajectory writer, the equivalence battery and the network synthesis.  The
caller does range 0 and a worker made with ``os.fork`` does each other
range.  A forked child starts on its parent's CPU, and the two may share it
for the whole run while another CPU idles, so each process is placed on a
CPU of its own while CPUs last.

The writer sends its text back through files of its own (``run``).  The
battery and the synthesis compute values, which ``map_ranges`` sends back
pickled, with every array laid out as the worker had it, and with the
margins the worker's decisions noted, so the caller gets what it would have
computed itself.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from contextlib import ExitStack, suppress

import numpy as np

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


def _array(values: bytes, dtype, shape, strides, writeable: bool):
    """An array of ``values`` (C order) with ``strides`` and the write
    flag ``writeable``, over a buffer of its own."""
    span = offset = 0
    if 0 not in shape:
        span = dtype.itemsize + sum((n - 1) * abs(s) for n, s in zip(shape, strides))
        offset = sum((n - 1) * -s for n, s in zip(shape, strides) if s < 0)
    out = np.ndarray(shape, dtype, np.empty(span, np.uint8), offset, strides)
    out[...] = np.frombuffer(values, dtype).reshape(shape)
    out.flags.writeable = writeable
    return out


class _Pickler(pickle.Pickler):
    """Pickles each plain array with its strides and write flag.

    numpy's own pickling makes a non-contiguous view C-ordered and
    writable; the products that read an array round according to its
    layout, so an array that changed layout on the way could give the
    caller other results than the worker's."""

    def reducer_override(self, obj):
        if type(obj) is not np.ndarray or obj.dtype.hasobject:
            return NotImplemented
        return _array, (obj.tobytes(), obj.dtype, obj.shape, obj.strides,
                        obj.flags.writeable)


def map_ranges(fn, units: int, workers: int, ship=None, land=None) -> list:
    """``[fn(i) for i in range(units)]``, with the units split into
    ``workers`` contiguous ranges, one per process (``run``).

    The caller computes range 0.  Each worker pickles its range's results,
    each passed through ``ship`` if given, and every margin noted while
    computing them, into an unlinked spool.  Then the caller takes the
    ranges in order: it notes each worker's margins again, so an enclosing
    margin monitor sees every margin in the order one process would note
    them, and it passes each result, with its unit, through ``land`` if
    given.  The caller computes a failed worker's range itself, so a unit
    that raises raises here as itself.
    """
    bounds = [units * k // workers for k in range(workers + 1)]

    def compute(k):
        return [fn(i) for i in range(bounds[k], bounds[k + 1])]

    with ExitStack() as stack:
        spools = [stack.enter_context(tempfile.TemporaryFile())
                  for _ in range(1, workers)]

        def child(k):
            with margin_monitor() as rec:
                done = compute(k)
            if ship is not None:
                done = [ship(r) for r in done]
            _Pickler(spools[k - 1], pickle.HIGHEST_PROTOCOL).dump(
                (done, rec.margins))
            spools[k - 1].flush()

        results, codes = run(workers, child, lambda: compute(0))
        for k, (spool, code) in enumerate(zip(spools, codes), 1):
            if code:
                results += compute(k)
                continue
            spool.seek(0)
            done, margins = pickle.load(spool)
            for margin in margins:
                note_margin(margin)
            if land is not None:
                done = [land(i, r) for i, r in enumerate(done, bounds[k])]
            results += done
    return results
