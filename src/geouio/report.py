"""Run-report assembly and flat-file emission (JSON report, CSV, plot data)."""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from collections.abc import Callable
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .central import CentralizedObserver
from .distributed import DistributedObserverNetwork
from .simulate import _BLOCK_ROWS, Trajectory, _row_blocks


def _jsonable(obj):
    """Plain-JSON form of a payload; non-finite floats become their repr."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc" and not np.isfinite(obj).all():
            return _jsonable(obj.tolist())
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _spectrum(M) -> list:
    return [[float(lam.real), float(lam.imag)] for lam in np.linalg.eigvals(M)] \
        if M.size else []


def centralized_report(cfg_dict: dict, obs: CentralizedObserver, sys, residuals) -> dict:
    d = obs.decomp
    return {
        "mode": "centralized",
        "matrices": {
            "Abar_L": obs.Abar_L, "P_Wg": obs.P_Wg, "L": obs.L,
            "E": obs.E, "F": obs.F,
            "W_star_basis": d.W_star.basis, "S_star_basis": d.S_star.basis,
            "W_g_star_basis": d.W_g_star.basis, "V": d.V,
        },
        "dimensions": {"n": sys.n, "z_dim": obs.z_dim,
                       "w_star": d.W_star.dim, "s_star": d.S_star.dim,
                       "w_g_star": d.W_g_star.dim,
                       "bad_zero_directions": d.Xbar_b.dim,
                       "good_zero_directions": d.Xbar_g.dim},
        "checks": {"existence_condition": True,
                   "quotient_spectrum": _spectrum(obs.Abar_L)},
        "residuals": residuals,
        "config": cfg_dict,
    }


def distributed_report(cfg_dict: dict, net: DistributedObserverNetwork, residuals) -> dict:
    nodes = {}
    for nd in net.nodes:
        d = nd.decomp
        entry = {
            "class": nd.node_class,
            "local_rank_condition": nd.node_class == "N1",
            "dimensions": {"w_star": d.W_star.dim, "s_star": d.S_star.dim,
                           "w_g_star": d.W_g_star.dim, "v_cols": d.V.shape[1],
                           "z_dim": nd.z_dim},
            "matrices": {
                "L": nd.L, "P_Wg": d.P_Wg, "P_Wstar": d.P_Wstar, "V": d.V,
                "W_g_star_basis": d.W_g_star.basis, "Abarbar": nd.Abarbar,
                **({"E": nd.E, "F": nd.F, "Abar_L": nd.Abar_L}
                   if nd.node_class == "N1" else {}),
            },
        }
        nodes[f"node{nd.node_id}"] = entry
    return {
        "mode": "distributed",
        "classes": {"N1": net.n1_ids, "N2": net.n2_ids},
        "gains": {"chi": net.chi, "gamma": net.gamma,
                  "chi_min": net.chi_min, "gamma_min": net.gamma_min,
                  "safety": net.safety, "u_bar_max": net.u_bar_max,
                  "sigma_min_Q": net.sigma_min_Q},
        "checks": {
            "graph_connected": net.graph.is_connected,
            "algebraic_connectivity": net.graph.algebraic_connectivity,
            "joint_detectability": True,
        },
        "nodes": nodes,
        "block_matrices": {"W_V": net.W_V_block, "A_L": net.A_L_block},
        "residuals": residuals,
        "config": cfg_dict,
    }


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=False))


# A write takes one process per this many rows (4 blocks), up to the CPUs it
# may run on and _MAX_WORKERS.  Placed on CPUs of their own, two processes
# beat one on a 2-core x86-64 VM from 2,001 rows of the distributed demo (35
# values a row; 6,145 rows: 61 against 85 ms) and from about 12,000 rows of
# the centralized demo (8 values; 12,289 rows: 30 against 40 ms), but
# splitting the demos' 4,001-row writes gained nothing end to end.  Left
# where fork put them, both processes often shared one CPU for the whole
# write, so two never beat one below 12,289 rows.
_ROWS_PER_WORKER = 4 * _BLOCK_ROWS
_MAX_WORKERS = 8
# Values formatted at a time: bounds the formatter's temporaries (about
# 1.1 MB) whatever the table width; larger chunks are no faster.
_CHUNK_VALUES = 4096


@dataclass(frozen=True)
class _Table:
    """A text file: ``header``, then columns ``cols`` (a slice or a list of
    indexes) of every row of a write's source, as %.17g values joined by
    ``sep``."""

    path: Path
    header: str
    cols: object
    sep: str


class _Source(NamedTuple):
    """The values a write formats: ``rows`` rows of ``width`` values, of
    which ``block(a, b)`` gives rows ``a:b`` of one absolute block of
    ``_BLOCK_ROWS`` rows as a 2-D array."""

    rows: int
    width: int
    block: Callable


def _texts(source, tables, start: int, stop: int):
    """(table index, text) of rows ``start:stop`` (``start`` on a block
    edge) of every table, a chunk of rows at a time; each value of the
    source is formatted once, whichever tables print it."""
    from . import _dtoa
    for a, b in _row_blocks(start, stop, stop):
        values = source.block(a, b)
        step = max(1, _CHUNK_VALUES // source.width)
        for r in range(0, len(values), step):
            fields = _dtoa.fields(values[r:r + step])
            for j, t in enumerate(tables):
                yield j, _dtoa.join(fields[:, t.cols], t.sep)


def _worker_count(rows: int) -> int:
    """Processes that format a write of ``rows`` rows, the caller included;
    1 where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      rows // _ROWS_PER_WORKER, _MAX_WORKERS))


def _place(cpus):
    """Run the calling thread on ``cpus`` only, if any are given; where the
    system refuses, it stays where it is, as no byte written depends on
    where it runs."""
    if cpus:
        with suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _format_range(source, tables, start: int, stop: int, spools, home):
    """Body of a forked worker: moves to the CPUs ``home``, writes rows
    ``start:stop`` of every table to its spool in ``spools`` and exits with
    0, or 1 if that failed.  It never returns, so it never flushes the
    caller's stdout or file buffers."""
    code = 1
    try:
        _place(home)
        for j, text in _texts(source, tables, start, stop):
            spools[j].write(text)
        for spool in spools:
            spool.flush()
        code = 0
    finally:
        os._exit(code)


def _write_tables(source, tables) -> list:
    """Write every table of ``source``, its rows split at block edges into
    one contiguous range per worker, with no more workers than blocks;
    returns the tables' paths.

    The caller formats range 0 straight into the files.  Each other range
    goes to a worker made with ``os.fork``, which formats it into unlinked
    spools, one per table; once every worker has exited, the caller appends
    the spools to the files in range order.  Every row is derived and
    formatted with its whole absolute block, whichever process does it, so
    the bytes do not depend on the number of workers.  Each process runs on
    a CPU of its own while CPUs last: a forked child starts on its parent's
    CPU, and the two may share it for the whole write while another idles.
    The caller's CPUs are restored however the write ends.  Workers call
    BLAS to derive the estimates: numpy's OpenBLAS stops its thread pool
    before a fork and starts it again in each process on first use.
    """
    from . import _dtoa  # compiled on the first write, not at import
    _dtoa.tables(_dtoa.WIDE)  # built before the fork, for every process
    for t in tables:
        t.path.parent.mkdir(parents=True, exist_ok=True)
    blocks = -(-source.rows // _BLOCK_ROWS)
    workers = min(_worker_count(source.rows), blocks)
    bounds = [min(source.rows, blocks * k // workers * _BLOCK_ROWS)
              for k in range(workers + 1)]
    # one CPU per process while they last, the caller's first
    homes = (sorted(os.sched_getaffinity(0))[:workers]
             if workers > 1 and hasattr(os, "sched_setaffinity") else [])
    with ExitStack() as stack:
        if homes:
            stack.callback(_place, os.sched_getaffinity(0))
            _place(homes[:1])
        spools, pids = [], []
        try:
            for k in range(1, workers):
                spools.append([stack.enter_context(
                    tempfile.TemporaryFile(dir=tables[0].path.parent))
                    for _ in tables])
                with warnings.catch_warnings():
                    # Python 3.12+ warns of fork with live threads; see above.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _format_range(source, tables, bounds[k], bounds[k + 1],
                                  spools[-1], homes[k:k + 1])
                pids.append(pid)
            files = [stack.enter_context(t.path.open("wb")) for t in tables]
            for t, fh in zip(tables, files):
                fh.write(t.header.encode())
            for j, text in _texts(source, tables, bounds[0], bounds[1]):
                files[j].write(text)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for code in filter(None, codes):
            raise OSError(None, f"formatting worker exited with status {code}",
                          str(tables[0].path))
        for j, fh in enumerate(files):
            fh.flush()
            for worker in spools:
                _append(fh, worker[j])
    return [t.path for t in tables]


def _append(fh, spool):
    """Write all of ``spool`` at the offset of ``fh``'s descriptor,
    bypassing its (empty) buffer."""
    start, stop = 0, os.fstat(spool.fileno()).st_size
    while start < stop:
        sent = os.sendfile(fh.fileno(), spool.fileno(), start, stop - start)
        if not sent:
            raise OSError(None, "formatting spool ended early", fh.name)
        start += sent


def write_trajectory_csv(traj: Trajectory, path):
    """CSV contract: t, x_1..x_n, per-observer xhat blocks, per-observer err."""
    _write_tables(_trajectory_source(traj), [_trajectory_table(traj, Path(path))])


def write_plot_series(traj: Trajectory, out_dir):
    """One two-column (t, err) file per observer, consumable by any plotter."""
    source = _Source(len(traj.times), 1 + len(traj.labels),
                     lambda a, b: np.column_stack([traj.times[a:b],
                                                   *(e[a:b] for e in traj.err_norm)]))
    return _write_tables(source, _plot_tables(traj, Path(out_dir), 1))


def write_trajectory_tables(traj: Trajectory, out_dir):
    """``out_dir/trajectory.csv`` and the plot series in one write, which
    forks its workers once and formats each value once; returns the paths
    written."""
    out_dir = Path(out_dir)
    source = _trajectory_source(traj)
    return _write_tables(source, [
        _trajectory_table(traj, out_dir / "trajectory.csv"),
        *_plot_tables(traj, out_dir, source.width - len(traj.labels))])


def _trajectory_source(traj: Trajectory) -> _Source:
    n, observers = traj.x.shape[1], len(traj.labels)

    def block(a, b):
        return np.hstack([traj.times[a:b, None], traj.states[a:b, :n],
                          *traj.estimates(a, b),
                          *(e[a:b, None] for e in traj.err_norm)])

    return _Source(len(traj.times), 1 + n + observers * (n + 1), block)


def _trajectory_table(traj: Trajectory, path: Path) -> _Table:
    n = traj.x.shape[1]
    cols = ["t"] + [f"x_{i + 1}" for i in range(n)]
    for label in traj.labels:
        cols += [f"{label}_xhat_{i + 1}" for i in range(n)]
    cols += [f"{label}_err" for label in traj.labels]
    return _Table(path, ",".join(cols) + "\n", slice(None), ",")


def _plot_tables(traj: Trajectory, out_dir: Path, first_err: int) -> list:
    """One (t, err) table per observer of a source whose column 0 is t and
    whose error norms start at column ``first_err``."""
    return [_Table(out_dir / f"plot_{label}_err.dat", "", [0, first_err + i], " ")
            for i, label in enumerate(traj.labels)]
