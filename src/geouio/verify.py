"""Randomized and per-config verification suites.

The equivalence battery draws random systems and confirms that the geometric
existence condition (decoupled subspace disjoint from Ker C) agrees with the
classical pair of conditions (rank test plus detectability of the projected
dynamics).  Trials whose numerical decisions came within 1e-6 of flipping are
reported as marginal rather than scored.
"""

from __future__ import annotations

import operator
from collections import namedtuple

import numpy as np

from . import _workers
from .central import (InputPartition, LinSystem, _rank_condition,
                      check_uio_condition, classical_rank_condition,
                      synthesize_centralized_uio)
from .config import ProjectConfig
from .distributed import (CHI_FALLBACK, GRAM_FLOOR, N1,
                          DistributedObserverNetwork, build_consensus_blocks,
                          synthesize_distributed)
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy, _eigvals,
                        _null_space, contains, margin_monitor, subspaces_equal)
from .synthesis import SpectralPartition, decompose

MARGINAL_GAP = 1e-6
# Largest state, output and unknown-input dimensions the battery draws.
_BATTERY_N_MAX, _BATTERY_P_MAX, _BATTERY_Q_MAX = 6, 3, 2
# A battery takes one process per this many trials, up to the CPUs it may
# run on and _workers._MAX_WORKERS.  On a 2-core x86-64 VM, BLAS on one
# thread, medians of 30 alternating runs, 1 against 2 processes: 8 trials
# 12.8 against 17.2 ms, 12 trials 22.7 / 22.0 ms (two faster in 14 of 30),
# 14 trials 27.0 / 22.1 ms (26 of 30), 16 trials 31.4 / 24.0 ms, 50 trials
# 86 / 56 ms.
_TRIALS_PER_WORKER = 7


class BatteryResult:
    """Outcome of one equivalence battery; ``marginal`` and
    ``disagreements`` hold one info dict per trial (new empty lists if
    None)."""

    __slots__ = ("trials", "agreements", "marginal", "disagreements", "seed")

    def __init__(self, trials: int, agreements: int,
                 marginal: list | None = None,
                 disagreements: list | None = None, seed: int = 0):
        self.trials = trials
        self.agreements = agreements
        self.marginal = [] if marginal is None else marginal
        self.disagreements = [] if disagreements is None else disagreements
        self.seed = seed

    @property
    def scored(self) -> int:
        return self.trials - len(self.marginal)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    @property
    def marginal_fraction(self) -> float:
        return len(self.marginal) / self.trials if self.trials else 0.0


def _worker_count(trials: int) -> int:
    """Processes that run a battery of ``trials`` trials, the caller included."""
    return _workers.count(trials, _TRIALS_PER_WORKER)


def _draw(rng) -> tuple:
    """The (n, p, q, A, C, B) of one trial."""
    n = int(rng.integers(2, _BATTERY_N_MAX + 1))
    p = int(rng.integers(1, min(_BATTERY_P_MAX, n) + 1))
    q = int(rng.integers(1, min(_BATTERY_Q_MAX, p) + 1))
    A = rng.uniform(-2.0, 2.0, (n, n))
    C = rng.uniform(-2.0, 2.0, (p, n))
    B = rng.uniform(-2.0, 2.0, (n, q))
    return n, p, q, A, C, B


def random_equivalence_battery(n_trials: int, seed: int,
                               alpha: float = 0.0,
                               tol: TolerancePolicy = DEFAULT_POLICY) -> BatteryResult:
    """Compare the geometric and classical existence tests on random draws.

    Every trial is drawn first; the trials then run in one contiguous range
    per process (``_workers.map_ranges``), which gives the caller every
    result and margin in trial order, and raises a raising trial's own
    exception.
    """
    if n_trials <= 0:
        raise ValueError("trial count must be positive")
    rng = np.random.default_rng(seed)
    draws = [_draw(rng) for _ in range(n_trials)]
    part = SpectralPartition(alpha)

    def trial(k):
        """The verdicts of trial k and the least margin of its decisions."""
        n, p, q, A, C, B = draws[k]
        sys = LinSystem(A, B, C)
        ipart = InputPartition.from_columns(sys, (), tuple(range(q)))
        with margin_monitor() as rec:
            geometric = check_uio_condition(decompose(A, C, B, part, tol), tol)
            ci, cii = classical_rank_condition(sys, ipart, alpha, tol)
        return {"trial": k, "n": n, "p": p, "q": q, "geometric": geometric,
                "cond_i": ci, "cond_ii": cii, "min_margin": rec.min_margin}

    results = _workers.map_ranges(trial, n_trials, _worker_count(n_trials))
    out = BatteryResult(trials=n_trials, agreements=0, seed=seed)
    for info in results:
        if info["min_margin"] < MARGINAL_GAP:
            out.marginal.append(info)
        elif info["geometric"] == (info["cond_i"] and info["cond_ii"]):
            out.agreements += 1
        else:
            out.disagreements.append(info)
    return out


# ---------------------------------------------------------------------------
# The invariant table: every check of a synthesized design.

# The scopes of the rows.  A centralized observer is judged by the OBSERVER
# rows; a network by the NETWORK rows, then each node by the NODE rows and,
# for a class-1 node, the N1_NODE rows too.
OBSERVER, NODE, N1_NODE, NETWORK = "observer", "node", "class-1 node", "network"
ALPHA = "alpha"  # the limit that stands for the config's spectral boundary
_COMPARE = {"<=": operator.le, "<": operator.lt, ">": operator.gt}


class Check:
    """One invariant of one design.  A number passes when ``value comparison
    limit`` holds; a boolean takes no comparison and passes by its truth."""

    __slots__ = ("name", "value", "comparison", "limit")

    def __init__(self, name: str, value: float | bool,
                 comparison: str | None = None, limit: float | None = None):
        if (comparison is None) != isinstance(value, bool):
            raise TypeError(f"{name}: a number needs a comparison, a boolean none")
        self.name = name
        self.value = value
        self.comparison = comparison
        self.limit = limit

    @property
    def passed(self) -> bool:
        return (self.value if self.comparison is None
                else bool(_COMPARE[self.comparison](self.value, self.limit)))


# One row of the table: its name, the scopes it applies to, the formula of its
# value on the judged part of a design and, for a number, its comparison and
# limit.
Invariant = namedtuple("Invariant", "name scopes formula comparison limit",
                       defaults=(None, None))


# An observer on X/W_g* as the rows read it, the centralized observer or one
# node: its GeometricDecomposition, C, B_unknown, A_cl = A + L C, Abar its
# induced map on X/W_g*, E·chart + F·C = I its reconstruction (all three None
# for a class-2 node), whether it is a class-1 node, and the tolerances.
_Quotient = namedtuple("_Quotient", "decomp C B_unknown A_cl Abar E F chart is_n1 tol")


def _norm(M) -> float:
    """Frobenius norm; 0.0 for an empty matrix."""
    return float(np.linalg.norm(M))


def _reconstruction(o) -> float:
    return _norm(o.E @ o.chart + o.F @ o.C - np.eye(o.decomp.n))


def _block_matrices_match(net) -> bool:
    W_V, A_L, _ = build_consensus_blocks(net.nodes)
    return bool(np.allclose(W_V, net.W_V_block) and np.allclose(A_L, net.A_L_block))


INVARIANTS = (
    Invariant("reconstruction_residual", (OBSERVER,), _reconstruction, "<=", 1e-9),
    Invariant("commutation_residual", (OBSERVER,), lambda o: _norm(
        o.Abar @ o.decomp.P_Wg - o.decomp.P_Wg @ o.A_cl), "<=", 1e-9),
    Invariant("graph_connected", (NETWORK,), lambda net: net.graph.is_connected),
    Invariant("sigma_min_Q", (NETWORK,), lambda net: net.sigma_min_Q, ">",
              GRAM_FLOOR),
    Invariant("chi_exceeds_bound", (NETWORK,), lambda net: (
        net.chi > net.chi_min or (net.chi_min == 0 and net.chi >= CHI_FALLBACK))),
    Invariant("gamma_exceeds_bound", (NETWORK,),
              lambda net: bool(net.gamma >= net.safety * net.gamma_min)),
    Invariant("block_matrices_match", (NETWORK,), _block_matrices_match),
    Invariant("local_rank_condition_matches_class", (NODE,),
              lambda o: _rank_condition(o.C, o.B_unknown, o.tol) == o.is_n1),
    Invariant("friend_invariance_residual", (OBSERVER, NODE), lambda o: _norm(
        o.decomp.P_Wg @ o.A_cl @ o.decomp.W_g_star.basis), "<=", 1e-9),
    Invariant("max_re_quotient_spectrum", (OBSERVER, NODE), lambda o: float(
        _eigvals(o.Abar).real.max()) if o.Abar.size else -np.inf,
              "<", ALPHA),
    Invariant("quotient_kills_unknown_input", (OBSERVER, NODE),
              lambda o: _norm(o.decomp.P_Wg @ o.B_unknown), "<=", 1e-10),
    Invariant("split_dimension_identity", (OBSERVER, NODE), lambda o: (
        o.decomp.Xbar_g.dim + o.decomp.Xbar_b.dim
        == o.decomp.S_star.dim - o.decomp.W_star.dim)),
    Invariant("chart_rowspace_is_Wstar_perp", (NODE,), lambda o: subspaces_equal(
        Subspace(o.decomp.n, o.decomp.P_Wstar.T),
        Subspace(o.decomp.n, _null_space(o.decomp.W_star.basis.T)), o.tol)),
    Invariant("V_inside_Wg", (NODE,), lambda o: contains(
        o.decomp.W_g_star, Subspace(o.decomp.n, o.decomp.V), o.tol)),
    Invariant("V_orthogonal_to_Wstar", (NODE,), lambda o: _norm(
        o.decomp.V.T @ o.decomp.W_star.basis), "<=", 1e-9),
    Invariant("reconstruction_residual", (N1_NODE,), _reconstruction, "<=", 1e-9),
    Invariant("wstar_friend_invariance", (N1_NODE,), lambda o: _norm(
        o.decomp.P_Wstar @ o.A_cl @ o.decomp.W_star.basis), "<=", 1e-9),
)


def _judge(scopes: set, subject, alpha: float, prefix: str = "") -> dict:
    """The checks of the rows in ``scopes``, each named prefix + row name."""
    checks = (Check(prefix + row.name, row.formula(subject), row.comparison,
                    alpha if row.limit == ALPHA else row.limit)
              for row in INVARIANTS if not scopes.isdisjoint(row.scopes))
    return {c.name: c for c in checks}


def invariant_checks(design, alpha: float, sys: LinSystem | None = None,
                     part: InputPartition | None = None,
                     tol: TolerancePolicy = DEFAULT_POLICY) -> dict:
    """Every check of a synthesized design, by name, in table order: a
    centralized observer's against its plant ``sys`` and input split
    ``part``, a network's with each node's rows named ``node<id>_<row>``."""
    if not isinstance(design, DistributedObserverNetwork):
        return _judge({OBSERVER}, _Quotient(
            design.decomp, sys.C, part.B_unknown, sys.A + design.L @ sys.C,
            design.Abar_L, design.E, design.F, design.P_Wg, False, tol), alpha)
    checks = _judge({NETWORK}, design, alpha)
    for nd in design.nodes:
        is_n1 = nd.node_class == N1
        checks |= _judge({NODE, N1_NODE} if is_n1 else {NODE}, _Quotient(
            nd.decomp, nd.C, nd.B_unknown, nd.A_cl, nd.Abarbar, nd.E, nd.F,
            nd.P_Wstar, is_n1, tol), alpha, f"node{nd.node_id}_")
    return checks


def _design(cfg: ProjectConfig, tol: TolerancePolicy):
    """The centralized observer or the network the config describes."""
    if cfg.mode == "centralized":
        return synthesize_centralized_uio(cfg.system, cfg.partition, cfg.spectral, tol)
    return synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph,
                                  cfg.spectral, u_bar_max=cfg.u_bar_max, tol=tol)


def synthesis_residual_checks(cfg: ProjectConfig,
                              tol: TolerancePolicy = DEFAULT_POLICY) -> list:
    """Synthesize per the config and judge every invariant, in table order."""
    return list(invariant_checks(_design(cfg, tol), cfg.spectral.alpha,
                                 cfg.system, cfg.partition, tol).values())
