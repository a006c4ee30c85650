"""Artifact writers: byte-exact text against a per-value formatting reference."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import geouio
from geouio import _dtoa, report
from geouio.cases import builtin_config
from geouio.cli import main
from geouio.report import (_BLOCK_ROWS, _jsonable, write_plot_series,
                           write_trajectory_csv, write_trajectory_tables)
from geouio.simulate import Trajectory, simulate_distributed

from forks import (affinity, assert_placed, count_forks, placeable,
                   record_placements)
from records import rebuilt

SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
           np.nextafter(2.2250738585072014e-308, 0.0), 1.0, -3.0, 2.0 ** 53,
           1e22, 0.1, 1 / 3, -1.7976931348623157e308]


def _trajectory(rows: int) -> Trajectory:
    rng = np.random.default_rng(4)
    n = 3
    x = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    x.flat[:len(SPECIAL)] = SPECIAL
    # stacked states (x, x reversed); the estimates are x - s D_i^T
    states = np.hstack([x, x[::-1]])
    zero, eye = np.zeros((n, n)), np.eye(n)
    D = (np.hstack([zero, -eye]), np.hstack([2 * eye, zero]))
    err = (np.asarray(SPECIAL * (rows // len(SPECIAL) + 1))[:rows],
           np.abs(x[:, 0]))
    return Trajectory(times=np.arange(rows) * 0.01, states=states, D=D,
                      Q=(np.eye(1, 2 * n),) * 2, err_norm=err,
                      labels=("node1", "node2"),
                      quotient_maps=(np.eye(1),) * 2)


def _quiet():
    """Silence the overflow and NaN warnings of estimates derived from the
    non-finite and huge states of ``_trajectory``; forked workers inherit
    this state."""
    return np.errstate(over="ignore", invalid="ignore")


def _reference_rows(columns, sep):
    data = np.hstack(columns)
    return "".join(sep.join(f"{v:.17g}" for v in row) + "\n" for row in data)


def _force_workers(monkeypatch, workers):
    """Make every write use ``workers`` processes, whatever its size."""
    monkeypatch.setattr(report, "_worker_count", lambda values: workers)


def test_writers_match_per_value_formatting(tmp_path, monkeypatch):
    # Row counts: a partial block at the end (ranges split at block edges:
    # 1024 for 2 workers, 1024 and 2048 for 3), fewer blocks than workers.
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        for rows in (2 * _BLOCK_ROWS + 5, 2):
            with _quiet():
                _check_writers(_trajectory(rows), tmp_path / f"{workers}-{rows}")


def _check_writers(traj, out):
    csv = out / "trajectory.csv"
    write_trajectory_csv(traj, csv)
    header, body = csv.read_text().split("\n", 1)
    assert header.split(",")[:2] == ["t", "x_1"]
    assert body == _reference_rows(
        [traj.times[:, None], traj.x, *traj.xhat,
         *(e[:, None] for e in traj.err_norm)], ",")
    paths = write_plot_series(traj, out)
    assert [p.name for p in paths] == ["plot_node1_err.dat",
                                       "plot_node2_err.dat"]
    for p, err in zip(paths, traj.err_norm):
        assert p.read_text() == _reference_rows(
            [traj.times[:, None], err[:, None]], " ")
    assert "-0," in body and "nan" in body
    if len(traj.times) > len(SPECIAL):
        assert "-inf" in body and "4.9406564584124654e-324" in body
    # One write of every table gives the same files as the two writers.
    together = write_trajectory_tables(traj, out / "one")
    assert [p.name for p in together] == ["trajectory.csv",
                                          *(p.name for p in paths)]
    for p in together:
        assert p.read_bytes() == (out / p.name).read_bytes()
    assert sorted(os.listdir(out / "one")) == sorted(p.name for p in together)


def test_a_write_formats_each_value_once(tmp_path, monkeypatch):
    _force_workers(monkeypatch, 1)
    calls = []
    fields = _dtoa.fields

    def counting(values):
        calls.append(values.shape)
        return fields(values)

    monkeypatch.setattr(_dtoa, "fields", counting)
    traj = _trajectory(2 * _BLOCK_ROWS + 5)
    rows, width = len(traj.times), 1 + 3 + 2 * (3 + 1)
    with _quiet():
        paths = write_trajectory_tables(traj, tmp_path)
    # trajectory.csv's values, each formatted once, in chunks of whole rows
    # within a block; the plot series print the same t and err fields
    step = report._CHUNK_VALUES // width
    assert calls == [(min(step, b - r), width) for a in range(0, rows, _BLOCK_ROWS)
                     for b in [min(a + _BLOCK_ROWS, rows)] for r in range(a, b, step)]
    csv = [line.split(",") for line in paths[0].read_text().splitlines()[1:]]
    for i, p in enumerate(paths[1:]):
        assert p.read_text().splitlines() == [f"{r[0]} {r[i - 2]}" for r in csv]
    calls.clear()
    with _quiet():
        write_plot_series(traj, tmp_path / "plots")
    assert sum(r for r, _ in calls) == rows and {w for _, w in calls} == {3}


def test_one_write_forks_its_workers_once(tmp_path, monkeypatch):
    _force_workers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    with _quiet():
        write_trajectory_tables(_trajectory(3 * _BLOCK_ROWS), tmp_path)
    assert len(forks) == 2
    # never more processes than blocks of rows
    with _quiet():
        write_trajectory_tables(_trajectory(_BLOCK_ROWS + 1), tmp_path)
    assert len(forks) == 3


def test_a_large_write_forks_for_each_further_cpu(tmp_path, monkeypatch):
    """Unforced, a write of 2 * _VALUES_PER_WORKER values takes two
    processes where it may use two CPUs or more, and forks nothing on one."""
    forks = count_forks(monkeypatch)
    width = 12  # t, x (3), 2 estimates (3 each), 2 error norms
    traj = _trajectory(2 * report._VALUES_PER_WORKER // width + 1)
    cpus = affinity()
    with _quiet():
        paths = write_trajectory_tables(traj, tmp_path / "auto")
    assert len(forks) == report._worker_count(len(traj.times) * width) - 1
    assert len(forks) == (0 if cpus is None else min(len(cpus), 2) - 1)
    _force_workers(monkeypatch, 1)
    with _quiet():
        alone = write_trajectory_tables(traj, tmp_path / "alone")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in alone]


def test_worker_count_follows_cpus_and_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    floor = report._VALUES_PER_WORKER
    assert [report._worker_count(v) for v in
            (0, floor - 1, 2 * floor, 3 * floor + 1, 100 * floor)] == [1, 1, 2, 3, 8]
    # two processes from 65,536 values on; on two CPUs the demos' writes
    # (reproduced, then dense; 8 values a row centralized, 35 distributed)
    # take 1, 2, 2 and 2, and a centralized write of 4,001 rows takes 1
    assert report._worker_count(65535) == 1 and report._worker_count(65536) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert [report._worker_count(rows * width) for rows, width in
            ((2001, 8), (4001, 35), (20001, 8), (40001, 35), (4001, 8))] == [1, 2, 2, 2, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert report._worker_count(100 * floor) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert report._worker_count(100 * floor) == 1


def _run(tmp_path, out) -> int:
    """Exit code of a dense distributed run of three blocks of rows."""
    cfg = builtin_config("distributed")
    cfg["sim"].update(t_end=2.5, record_stride=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["simulate", "--config", str(path), "--out", str(out)])


def _simulate(tmp_path, out):
    """Exit code and written files of ``_run``."""
    code = _run(tmp_path, out)
    return code, {p.name: p.read_bytes() for p in out.iterdir()}


def test_a_formatting_failure_in_workers_only_writes_the_same_bytes(
        tmp_path, monkeypatch, capsys):
    """Each worker fails once it has written the text of two chunks of
    rows; the caller formats its range again."""
    _force_workers(monkeypatch, 1)
    alone = _simulate(tmp_path, tmp_path / "alone")
    caller, fields, calls = os.getpid(), _dtoa.fields, []

    def failing(values):
        calls.append(os.getpid())
        if os.getpid() != caller and calls.count(os.getpid()) > 2:
            raise MemoryError("formatting failed")
        return fields(values)

    monkeypatch.setattr(_dtoa, "fields", failing)
    _force_workers(monkeypatch, 3)
    assert _simulate(tmp_path, tmp_path / "split") == alone
    assert alone[0] == 0 and len(alone[1]) == 6
    assert capsys.readouterr().err == ""


def test_failing_caller_still_reaps_its_workers(tmp_path, monkeypatch, capsys):
    """A write error in every process: the run fails with the caller's own
    error, and no worker or spool is left."""
    _force_workers(monkeypatch, 3)
    out = tmp_path / "out"
    csv = out / "trajectory.csv"

    def full(fields, sep):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(csv))

    monkeypatch.setattr(_dtoa, "join", full)
    code, written = _simulate(tmp_path, out)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {csv}: No space left on device\n")
    # the caller opens every file before it formats
    assert sorted(written) == ["plot_node1_err.dat", "plot_node2_err.dat",
                               "plot_node3_err.dat", "plot_node4_err.dat",
                               "trajectory.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_space(path) -> str:
    return f"error: cannot write {path}: No space left on device\n"


def test_a_failed_append_names_its_file(tmp_path, monkeypatch, capsys):
    """``os.sendfile`` raises without a filename; the error names the table
    the caller was appending a worker's range to."""
    _force_workers(monkeypatch, 2)

    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "sendfile", full)
    out = tmp_path / "out"
    assert _run(tmp_path, out) == 1
    assert capsys.readouterr().err == _no_space(out / "trajectory.csv")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["trajectory.csv", "plot_node3_err.dat",
                                  "report.json"])
def test_a_failed_write_names_its_file(tmp_path, monkeypatch, capsys, name):
    """Every write to /dev/full fails with ENOSPC, which ``os.write``
    raises without a filename: the error names the file, not ``--out``."""
    _force_workers(monkeypatch, 1)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    assert _run(tmp_path, out) == 1
    assert capsys.readouterr().err == _no_space(out / name)


@placeable
def test_each_process_of_a_write_gets_a_cpu_of_its_own(tmp_path, monkeypatch):
    """Every process of a split write gets one CPU of the caller's, no two
    the same, and the caller gets its own CPUs back."""
    cpus = os.sched_getaffinity(0)
    _force_workers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    calls = record_placements(monkeypatch, tmp_path)
    with _quiet():
        write_trajectory_tables(_trajectory(3 * _BLOCK_ROWS), tmp_path / "out")
    assert os.sched_getaffinity(0) == cpus
    assert_placed(calls, forks, 3, cpus, tmp_path)


@placeable
def test_reproduce_artifacts_do_not_depend_on_cpu_count(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(geouio.__file__).resolve().parents[1]))
    cpu = min(os.sched_getaffinity(0))

    def artifacts(out, preexec_fn=None):
        proc = subprocess.run(
            [sys.executable, "-m", "geouio.cli", "reproduce", "distributed",
             "--out", str(out)], env=env, preexec_fn=preexec_fn,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in (out / "distributed").iterdir()}

    pinned = artifacts(tmp_path / "pinned",
                       lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = artifacts(tmp_path / "unpinned")
    assert len(pinned) == 6 and pinned == unpinned


def test_written_estimates_are_the_trajectory_estimates(dist_cfg, dist_net,
                                                        tmp_path, monkeypatch):
    # 3,001 rows: two whole blocks and a partial one
    net, _ = dist_net
    cfg = rebuilt(dist_cfg.sim, t_end=3.0, record_stride=1)
    traj = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    n, observers = traj.x.shape[1], len(traj.labels)
    xhat = traj.xhat
    assert len(xhat) == observers
    for i, Q in enumerate(traj.Q):
        assert np.array_equal(traj.quotient_err[i], traj.states @ Q.T)
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        path = write_trajectory_tables(traj, tmp_path / str(workers))[0]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:n + 1], traj.x)
        for i in range(observers):
            got = rows[:, (i + 1) * n + 1:(i + 2) * n + 1]
            assert np.array_equal(got, xhat[i])
            assert np.array_equal(rows[:, -observers + i], traj.err_norm[i])
    # any row range gives the rows of the whole
    for start, stop in ((0, 1), (1000, 1030), (2047, 3001)):
        for part, whole in zip(traj.estimates(start, stop), xhat):
            assert np.array_equal(part, whole[start:stop])


def test_dense_run_holds_only_states_and_error_norms(dist_cfg, dist_net,
                                                      tmp_path, monkeypatch):
    """A dense run of 10,001 rows holds its states plus about one float per
    observer and row; its write holds one block of values and one chunk of
    text beyond that, however long the run.

    The write is traced at 2,501 and 10,001 rows: tracemalloc makes the
    formatting about five times slower, and the full estimates of the longer
    run (1.9 MB) would already show against what a write holds (1.6 MB).
    The formatter's tables, built once per process, are built first.
    """
    _force_workers(monkeypatch, 1)
    _dtoa.tables(_dtoa.WIDE)
    net, _ = dist_net
    extra = []
    for t_end in (2.5, 10.0):
        cfg = rebuilt(dist_cfg.sim, t_end=t_end, record_stride=1)
        tracemalloc.start()
        try:
            traj = simulate_distributed(dist_cfg.system, net, dist_cfg.signals,
                                        cfg)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_trajectory_tables(traj, tmp_path / str(t_end))
            extra.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    assert peak <= 1.3 * traj.states.nbytes
    assert abs(extra[1] - extra[0]) <= 0.05 * extra[0]


def test_jsonable_spells_out_non_finite_values_in_one_pass():
    payload = {"M": np.array([[1.0, np.inf], [np.nan, -0.5]]),
               "I": np.array([1, 2]), "s": np.float64(-np.inf),
               "k": np.int64(3), "ok": np.bool_(True), "x": [np.float64(2.0)]}
    assert _jsonable(payload) == {"M": [[1.0, "inf"], ["nan", -0.5]],
                                  "I": [1, 2], "s": "-inf", "k": 3,
                                  "ok": True, "x": [2.0]}
