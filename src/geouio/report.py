"""Run-report assembly and flat-file emission (JSON report, CSV, plot data)."""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

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


# A write takes one process per this many values, up to the CPUs it may run
# on and _MAX_WORKERS.  On a 2-core x86-64 VM a fork, the copy-on-write page
# faults it brings and the spool copy cost about as much as formatting 10-20k
# values, and two processes beat one from about 50k values on.
_VALUES_PER_WORKER = 25_000
_MAX_WORKERS = 8


@dataclass(frozen=True)
class _Table:
    """A text file: ``header``, then ``rows`` rows of ``width`` %.17g values
    joined by ``sep``.  ``block(a, b)`` gives rows ``a:b`` of one absolute
    block of ``_BLOCK_ROWS`` rows as a 2-D array."""

    path: Path
    header: str
    rows: int
    width: int
    block: Callable
    sep: str

    def text(self, start: int, stop: int):
        """Rows ``start:stop`` (``start`` on a block edge) as text, one block
        of rows at a time."""
        line = self.sep.join(["%.17g"] * self.width) + "\n"
        for a, b in _row_blocks(start, stop, stop):
            block = self.block(a, b)
            yield (line * len(block)) % tuple(block.ravel().tolist())


def _worker_count(values: int) -> int:
    """Processes that format a write of ``values`` values, the caller
    included; 1 where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)),
                      values // _VALUES_PER_WORKER, _MAX_WORKERS))


def _format_range(tables, bounds, k: int, spool):
    """Body of forked worker ``k``: writes row range ``k`` of every table to
    ``spool``, then the offsets at which each table's text ends (int64), and
    exits with 0, or 1 + the index of the table it failed on.  It never
    returns, so it never flushes the caller's stdout or file buffers."""
    j = 0
    try:
        ends = []
        for j, (t, b) in enumerate(zip(tables, bounds)):
            for text in t.text(b[k], b[k + 1]):
                spool.write(text.encode())
            ends.append(spool.tell())
        spool.write(np.array(ends, np.int64).tobytes())
        spool.flush()
        j = -1
    finally:
        os._exit(min(j + 1, 255))


def _write_tables(tables) -> list:
    """Write every table, its rows split at block edges into one contiguous
    range per worker, with no more workers than blocks; returns the tables'
    paths.

    The caller formats range 0 straight into the files.  Each other range
    goes to a worker made with ``os.fork``, which formats it into its own
    unlinked spool; once every worker has exited, the caller appends the
    spools to the files in range order.  Every row is derived and formatted
    with its whole absolute block, whichever process does it, so the bytes do
    not depend on the number of workers.  Workers call BLAS to derive the
    estimates: numpy's OpenBLAS stops its thread pool before a fork and
    starts it again in each process on first use.
    """
    for t in tables:
        t.path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [-(-t.rows // _BLOCK_ROWS) for t in tables]
    workers = min(_worker_count(sum(t.rows * t.width for t in tables)),
                  max(blocks))
    bounds = [[min(t.rows, b * k // workers * _BLOCK_ROWS)
               for k in range(workers + 1)] for t, b in zip(tables, blocks)]
    with ExitStack() as stack:
        spools, pids = [], []
        try:
            for k in range(1, workers):
                spools.append(stack.enter_context(
                    tempfile.TemporaryFile(dir=tables[0].path.parent)))
                with warnings.catch_warnings():
                    # Python 3.12+ warns of fork with live threads; see above.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _format_range(tables, bounds, k, spools[-1])
                pids.append(pid)
            for t, b in zip(tables, bounds):
                with t.path.open("w") as fh:
                    fh.write(t.header)
                    fh.writelines(t.text(b[0], b[1]))
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for code in filter(None, codes):
            t = tables[min(code, len(tables)) - 1 if code > 0 else 0]
            raise OSError(None, f"formatting worker exited with status {code}",
                          str(t.path))
        ends = []
        for spool in spools:
            spool.seek(-8 * len(tables), os.SEEK_END)
            ends.append([0, *np.frombuffer(spool.read(), np.int64).tolist()])
        for j, t in enumerate(tables):
            with t.path.open("r+b") as fh:  # not "ab": sendfile refuses O_APPEND
                fh.seek(0, os.SEEK_END)
                for spool, e in zip(spools, ends):
                    _append(fh, spool, e[j], e[j + 1])
    return [t.path for t in tables]


def _append(fh, spool, start: int, stop: int):
    """Write bytes ``start:stop`` of ``spool`` at the offset of ``fh``'s
    descriptor, bypassing its (empty) buffer."""
    while start < stop:
        sent = os.sendfile(fh.fileno(), spool.fileno(), start, stop - start)
        if not sent:
            raise OSError(None, "formatting spool ended early", fh.name)
        start += sent


def write_trajectory_csv(traj: Trajectory, path):
    """CSV contract: t, x_1..x_n, per-observer xhat blocks, per-observer err."""
    _write_tables([_trajectory_table(traj, Path(path))])


def write_plot_series(traj: Trajectory, out_dir):
    """One two-column (t, err) file per observer, consumable by any plotter."""
    return _write_tables(_plot_tables(traj, Path(out_dir)))


def write_trajectory_tables(traj: Trajectory, out_dir):
    """``out_dir/trajectory.csv`` and the plot series in one write, which
    forks its workers once; returns the paths written."""
    out_dir = Path(out_dir)
    return _write_tables([_trajectory_table(traj, out_dir / "trajectory.csv"),
                          *_plot_tables(traj, out_dir)])


def _trajectory_table(traj: Trajectory, path: Path) -> _Table:
    n = traj.x.shape[1]
    cols = ["t"] + [f"x_{i + 1}" for i in range(n)]
    for label in traj.labels:
        cols += [f"{label}_xhat_{i + 1}" for i in range(n)]
    cols += [f"{label}_err" for label in traj.labels]

    def block(a, b):
        return np.hstack([traj.times[a:b, None], traj.states[a:b, :n],
                          *traj.estimates(a, b),
                          *(e[a:b, None] for e in traj.err_norm)])

    return _Table(path, ",".join(cols) + "\n", len(traj.times), len(cols),
                  block, ",")


def _plot_tables(traj: Trajectory, out_dir: Path) -> list:
    return [_Table(out_dir / f"plot_{label}_err.dat", "", len(traj.times), 2,
                   lambda a, b, err=err: np.column_stack([traj.times[a:b],
                                                          err[a:b]]), " ")
            for label, err in zip(traj.labels, traj.err_norm)]
