"""Test-side helpers for the code that forks workers through
``geouio._workers``: the CPUs the caller may use, a fork counter, a
recorder and a check of where processes were placed, and a mark for tests
that need processes placed on CPUs of their own."""

import os

import pytest


def affinity():
    """The calling thread's CPUs, or None where the system cannot tell."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def count_forks(monkeypatch) -> list:
    """The pids of the workers forked from now on, as they are forked."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def record_placements(monkeypatch, tmp_path, refuse=False) -> list:
    """Record every (pid, CPUs) the caller asks ``sched_setaffinity`` for,
    and mark a request from any other process with ``tmp_path/by-worker``;
    refuse each request if ``refuse``."""
    caller = os.getpid()
    calls = []
    setaffinity = os.sched_setaffinity

    def recording(pid, mask):
        calls.append((pid, set(mask)))
        if os.getpid() != caller:
            (tmp_path / "by-worker").touch()
        if refuse:
            raise OSError(22, "Invalid argument")
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    return calls


def assert_placed(calls, forks, workers, cpus, tmp_path):
    """The caller placed each worker it forked on a CPU of ``cpus`` of its
    own as it forked it, then itself on another, then took ``cpus`` back;
    no worker placed itself, and workers beyond ``cpus`` stayed where they
    were."""
    assert not (tmp_path / "by-worker").exists()
    processes = min(workers, len(cpus))
    assert [pid for pid, _ in calls] == [*forks[:processes - 1], 0, 0]
    *homes, restored = [mask for _, mask in calls]
    assert all(len(mask) == 1 for mask in homes) and restored == cpus
    assert len(set().union(*homes)) == processes and set().union(*homes) <= cpus


placeable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least 2 CPUs")
