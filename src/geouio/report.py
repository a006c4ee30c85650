"""Run-report assembly and flat-file emission (JSON report, CSV, plot data)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .central import CentralizedObserver
from .distributed import DistributedObserverNetwork
from .simulate import Trajectory


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
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
        "matrices": _jsonable({
            "Abar_L": obs.Abar_L, "P_Wg": obs.P_Wg, "L": obs.L,
            "E": obs.E, "F": obs.F,
            "W_star_basis": d.W_star.basis, "S_star_basis": d.S_star.basis,
            "W_g_star_basis": d.W_g_star.basis, "V": d.V,
        }),
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
            "matrices": _jsonable({
                "L": nd.L, "P_Wg": d.P_Wg, "P_Wstar": d.P_Wstar, "V": d.V,
                "W_g_star_basis": d.W_g_star.basis, "Abarbar": nd.Abarbar,
                **({"E": nd.E, "F": nd.F, "Abar_L": nd.Abar_L}
                   if nd.node_class == "N1" else {}),
            }),
        }
        nodes[f"node{nd.node_id}"] = entry
    return {
        "mode": "distributed",
        "classes": {"N1": net.n1_ids, "N2": net.n2_ids},
        "gains": {"chi": net.chi, "gamma": net.gamma,
                  "chi_min": net.chi_min, "gamma_min": net.gamma_min,
                  "safety": net.safety, "u_bar_max": net.u_bar_max,
                  "sigma_min_Q": _jsonable(net.sigma_min_Q)},
        "checks": {
            "graph_connected": net.graph.is_connected,
            "algebraic_connectivity": _jsonable(net.graph.algebraic_connectivity),
            "joint_detectability": True,
        },
        "nodes": nodes,
        "block_matrices": _jsonable({"W_V": net.W_V_block, "A_L": net.A_L_block}),
        "residuals": residuals,
        "config": cfg_dict,
    }


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=False))


# Rows formatted and written per call of _write_rows: big enough to amortize
# the call overhead, small enough that the text stays a few hundred kB.
_BLOCK_ROWS = 1024


def _write_rows(fh, columns, sep: str):
    """Write the side-by-side 2-D column blocks as rows of %.17g values."""
    line = sep.join(["%.17g"] * sum(c.shape[1] for c in columns)) + "\n"
    for a in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.hstack([c[a:a + _BLOCK_ROWS] for c in columns])
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(traj: Trajectory, path):
    """CSV contract: t, x_1..x_n, per-observer xhat blocks, per-observer err."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = traj.x.shape[1]
    cols = ["t"] + [f"x_{i + 1}" for i in range(n)]
    for label in traj.labels:
        cols += [f"{label}_xhat_{i + 1}" for i in range(n)]
    cols += [f"{label}_err" for label in traj.labels]
    blocks = [traj.times[:, None], traj.x]
    blocks += [h for h in traj.xhat]
    blocks += [e[:, None] for e in traj.err_norm]
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, blocks, ",")


def write_plot_series(traj: Trajectory, out_dir):
    """One two-column (t, err) file per observer, consumable by any plotter."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, err in zip(traj.labels, traj.err_norm):
        p = out_dir / f"plot_{label}_err.dat"
        with p.open("w") as fh:
            _write_rows(fh, [traj.times[:, None], err[:, None]], " ")
        paths.append(p)
    return paths
