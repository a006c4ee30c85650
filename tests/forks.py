"""Test-side helpers for the code that forks workers through
``geouio._workers``: the CPUs the caller may use, a fork counter, and a
mark for tests that need processes placed on CPUs of their own."""

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


placeable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least 2 CPUs")
