"""The equivalence battery split over processes: the same result, margins and
errors whatever the number of processes, and the caller's CPUs kept."""

import json
import os

import numpy as np
import pytest

from geouio import verify
from geouio.subspaces import margin_monitor
from geouio.verify import random_equivalence_battery

from forks import affinity, count_forks, placeable
from records import attributes


def _force_workers(monkeypatch, workers):
    """Make every battery use ``workers`` processes, whatever its size."""
    monkeypatch.setattr(verify, "_worker_count", lambda trials: workers)


def _with_marginal_and_disagreeing_trials(monkeypatch):
    """Count trials within 1e-2 of a flip as marginal, and flip the
    geometric verdict of every draw of odd state dimension, so that a
    battery has marginal trials and disagreements to keep in order."""
    monkeypatch.setattr(verify, "MARGINAL_GAP", 1e-2)
    check = verify.check_uio_condition

    def flipped(decomp, tol):
        return check(decomp, tol) != (decomp.n % 2 == 1)

    monkeypatch.setattr(verify, "check_uio_condition", flipped)


def test_process_count_moves_no_result(monkeypatch):
    _with_marginal_and_disagreeing_trials(monkeypatch)
    for seed in (0, 1, 2):
        results = []
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            results.append(random_equivalence_battery(50, seed))
        first = results[0]
        assert first.marginal and first.disagreements and first.agreements
        trials = [info["trial"] for info in first.marginal + first.disagreements]
        assert sorted(trials) == sorted(set(trials))
        assert [i["trial"] for i in first.marginal] == sorted(
            i["trial"] for i in first.marginal)
        assert all(attributes(r) == attributes(first) for r in results[1:])


def test_an_enclosing_monitor_sees_the_same_margins(monkeypatch):
    margins = []
    for workers in (1, 3):
        _force_workers(monkeypatch, workers)
        with margin_monitor() as rec:
            random_equivalence_battery(30, 5)
        margins.append(rec.margins)
    assert len(margins[0]) > 300 and margins[0] == margins[1]


class TrialFailed(Exception):
    pass


def _failing_trial(monkeypatch, trials, seed, failing):
    """Make trial ``failing`` of a battery of ``trials`` trials drawn from
    ``seed`` raise TrialFailed, in whichever process runs it."""
    rng = np.random.default_rng(seed)
    C = [verify._draw(rng)[4] for _ in range(trials)][failing]
    decompose = verify.decompose

    def raising(A, C_, B, part, tol):
        if np.array_equal(C_, C):
            raise TrialFailed(f"trial {failing} failed")
        return decompose(A, C_, B, part, tol)

    monkeypatch.setattr(verify, "decompose", raising)


@pytest.mark.parametrize("failing", [3, 25])
def test_a_raising_trial_raises_from_the_call(monkeypatch, failing):
    """With three processes, trials 0-9 run in the caller and 20-29 in the
    second worker; either way the trial's own exception comes out, as it
    does from one process, and no worker is left."""
    _failing_trial(monkeypatch, 30, 9, failing)
    errors = []
    for workers in (1, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(TrialFailed) as exc:
            random_equivalence_battery(30, 9)
        errors.append(str(exc.value))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors == [f"trial {failing} failed"] * 2


@placeable
def test_the_caller_keeps_its_cpus(monkeypatch):
    cpus = os.sched_getaffinity(0)
    assert len(cpus) > 1  # no earlier battery or write kept this one pinned
    _force_workers(monkeypatch, 3)
    random_equivalence_battery(30, 4)
    assert os.sched_getaffinity(0) == cpus
    for failing in (3, 25):  # in the caller's range, in a worker's
        with pytest.MonkeyPatch.context() as mp:
            _failing_trial(mp, 30, 4, failing)
            with pytest.raises(TrialFailed, match=f"trial {failing} failed"):
                random_equivalence_battery(30, 4)
        assert os.sched_getaffinity(0) == cpus


@placeable
def test_each_process_of_a_battery_gets_a_cpu_of_its_own(tmp_path, monkeypatch):
    cpus = os.sched_getaffinity(0)
    workers = min(3, len(cpus))
    _force_workers(monkeypatch, workers)
    log = tmp_path / "placed"
    setaffinity = os.sched_setaffinity

    def recording(pid, mask):
        # one O_APPEND write per request, whichever process makes it
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {sorted(mask)}\n".encode())
        finally:
            os.close(fd)
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    random_equivalence_battery(30, 4)
    requests = {}
    for line in log.read_text().splitlines():
        pid, mask = line.split(" ", 1)
        requests.setdefault(int(pid), []).append(json.loads(mask))
    caller = requests.pop(os.getpid())
    assert caller[1:] == [sorted(cpus)] and len(caller[0]) == 1
    assert len(requests) == workers - 1
    homes = [caller[0][0], *(r[0][0] for r in requests.values())]
    assert len(set(homes)) == workers and set(homes) <= cpus


def test_a_battery_forks_for_each_further_cpu(monkeypatch):
    """Unforced, a battery forks one worker per further CPU while each
    process gets _TRIALS_PER_WORKER trials, and none on one CPU."""
    forks = count_forks(monkeypatch)
    cpus = affinity()
    trials = 2 * verify._TRIALS_PER_WORKER
    alone = random_equivalence_battery(trials, 6)
    assert len(forks) == (0 if cpus is None else min(len(cpus), 2) - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks.clear()
    assert attributes(random_equivalence_battery(trials, 6)) == attributes(alone)
    assert forks == []


def test_worker_count_follows_cpus_and_trials(monkeypatch):
    per = verify._TRIALS_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    assert [verify._worker_count(t) for t in
            (1, 2 * per - 1, 2 * per, 3 * per, 500)] == [1, 1, 2, 3, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert [verify._worker_count(t) for t in (25, 50, 500)] == [2, 2, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify._worker_count(500) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert verify._worker_count(500) == 1
