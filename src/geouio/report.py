"""Run-report assembly and flat-file emission (JSON report, CSV, plot data)."""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _workers
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


# Values formatted at a time: bounds the formatter's temporaries (about
# 1.1 MB) whatever the table width; larger chunks are no faster.
_CHUNK_VALUES = 4096
# A write takes one process per this many values (rows x values a row), up
# to the CPUs it may run on and _workers._MAX_WORKERS: two from 65,536
# values.  A count of rows alone misplaces the crossover, which follows the
# table width.  Each process on a CPU of its own, a 2-core x86-64 VM, BLAS on
# one thread, medians of 15 interleaved fresh-interpreter writes, 1 against
# 2 processes: distributed demo (35 values a row) 2,001 rows 28.0 / 23.8 ms
# and 4,001 rows 48.5 / 34.9 ms; centralized demo (8 values) 2,001 rows
# 9.1 / 12.8 ms and 4,001 rows 14.6 / 14.8 ms.  An earlier timing put the
# centralized demo's crossover at 8,192 rows (65,536 values; 26.2 / 26.5 ms).
_VALUES_PER_WORKER = 8 * _CHUNK_VALUES


class _Table:
    """A text file: ``header``, then columns ``cols`` (a slice or a list of
    indexes) of every row of a write's source, as %.17g values joined by
    ``sep``."""

    __slots__ = ("path", "header", "cols", "sep")

    def __init__(self, path: Path, header: str, cols, sep: str):
        self.path = path
        self.header = header
        self.cols = cols
        self.sep = sep


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


def _worker_count(values: int) -> int:
    """Processes that format a write of ``values`` values, the caller
    included."""
    return _workers.count(values, _VALUES_PER_WORKER)


def _write_tables(source, tables) -> list:
    """Write every table of ``source``, its rows split at block edges into
    one contiguous range per process (``_workers.map_ranges``), with no
    more processes than blocks; returns the tables' paths.

    The caller formats range 0 straight into the files.  Each other range
    is formatted into unlinked spools of its own, one per table, and once
    every range is done the caller appends the spools to the files in range
    order; no text passes through the caller's memory.  The caller formats
    a failed worker's range again, into emptied spools, so a write fails
    only with the caller's own error.  Every row is derived and formatted
    with its whole absolute block, whichever process does it, so the bytes
    do not depend on the number of processes.
    """
    from . import _dtoa  # compiled on the first write, not at import
    _dtoa.tables(_dtoa.WIDE)  # built before the fork, for every process
    for t in tables:
        t.path.parent.mkdir(parents=True, exist_ok=True)
    blocks = -(-source.rows // _BLOCK_ROWS)
    workers = min(_worker_count(source.rows * source.width), blocks)
    bounds = [min(source.rows, blocks * k // workers * _BLOCK_ROWS)
              for k in range(workers + 1)]
    with ExitStack() as stack:
        spools = [[stack.enter_context(
            tempfile.TemporaryFile(dir=tables[0].path.parent)) for _ in tables]
            for _ in range(1, workers)]
        files = []

        def format_range(k):
            if k == 0:
                files.extend(stack.enter_context(t.path.open("wb"))
                             for t in tables)
                for t, fh in zip(tables, files):
                    fh.write(t.header.encode())
                outs = files
            else:
                outs = spools[k - 1]
                for spool in outs:  # emptied of a failed worker's text
                    spool.seek(0)
                    spool.truncate()
            for j, text in _texts(source, tables, bounds[k], bounds[k + 1]):
                outs[j].write(text)
            for fh in outs:
                fh.flush()

        _workers.map_ranges(format_range, workers, workers)
        for j, fh in enumerate(files):
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
