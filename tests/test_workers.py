"""The fork mechanics of ``geouio._workers.map_ranges``, which the trajectory
writer, the equivalence battery and the network synthesis share: results
and margins in order, failures raised as themselves, failed workers
recomputed, every worker reaped, and each process on a CPU of its own."""

import os

import numpy as np
import pytest

from geouio import _workers
from geouio.subspaces import margin_monitor, note_margin

from forks import (affinity, assert_placed, count_forks, placeable,
                   record_placements)

UNITS = 7  # 3 processes: units 0-1 in the caller, 2-3 and 4-6 in workers
PROCESSES = pytest.mark.parametrize("workers", (1, 2, 3))


def _unit(i):
    """A result whose layout a plain pickle would change (a reversed,
    read-only view), after noting two margins."""
    note_margin(i + 0.5)
    note_margin(-i)
    out = np.arange(3.0 * i, 3.0 * i + 6).reshape(2, 3)[:, ::-1]
    out.flags.writeable = False
    return i, out


def _layout(a) -> tuple:
    return a.tobytes(), a.dtype, a.shape, a.strides, a.flags.writeable


EXPECTED = ([(i, _layout(_unit(i)[1])) for i in range(UNITS)],
            [m for i in range(UNITS) for m in (i + 0.5, -i)])


def _mapped(fn, workers) -> tuple:
    """``map_ranges``' results, each array by its layout, and the margins an
    enclosing monitor saw; checks that no worker is left."""
    with margin_monitor() as rec:
        results = _workers.map_ranges(fn, UNITS, workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return [(i, _layout(a)) for i, a in results], rec.margins


@PROCESSES
def test_results_and_margins_come_back_in_order(workers):
    assert _mapped(_unit, workers) == EXPECTED


class UnitFailed(Exception):
    pass


@PROCESSES
@pytest.mark.parametrize("failing", [1, 5])  # the caller's range, a worker's
def test_a_raising_unit_raises_as_itself(workers, failing):
    cpus = affinity()

    def fn(i):
        if i == failing:
            raise UnitFailed(f"unit {i} failed")
        return _unit(i)

    with pytest.raises(UnitFailed, match=f"unit {failing} failed"):
        _mapped(fn, workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert affinity() == cpus


@PROCESSES
def test_a_killed_worker_is_recomputed(workers):
    caller = os.getpid()

    def fn(i):
        if i == UNITS - 1 and os.getpid() != caller:
            os._exit(1)
        return _unit(i)

    assert _mapped(fn, workers) == EXPECTED


@placeable
@PROCESSES
@pytest.mark.parametrize("refuse", [False, True])
def test_each_process_gets_a_cpu_of_its_own(monkeypatch, tmp_path, workers,
                                            refuse):
    """The caller places each worker as it forks it, then itself, then
    takes its CPUs back; no worker places itself, workers beyond the
    caller's CPUs stay where they are, and a system that refuses every
    request changes no result."""
    cpus = os.sched_getaffinity(0)
    forks = count_forks(monkeypatch)
    calls = record_placements(monkeypatch, tmp_path, refuse)
    assert _mapped(_unit, workers) == EXPECTED
    assert os.sched_getaffinity(0) == cpus
    if workers == 1:
        assert forks == calls == []
        return
    assert_placed(calls, forks, workers, cpus, tmp_path)
