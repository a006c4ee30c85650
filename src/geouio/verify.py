"""Randomized and per-config verification suites.

The equivalence battery draws random systems and confirms that the geometric
existence condition (decoupled subspace disjoint from Ker C) agrees with the
classical pair of conditions (rank test plus detectability of the projected
dynamics).  Trials whose numerical decisions came within 1e-6 of flipping are
reported as marginal rather than scored.
"""

from __future__ import annotations

import operator
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .central import (InputPartition, LinSystem, check_uio_condition,
                      classical_rank_condition, synthesize_centralized_uio)
from .config import ProjectConfig
from .distributed import GRAM_FLOOR, synthesize_distributed
from .subspaces import DEFAULT_POLICY, TolerancePolicy, margin_monitor
from .synthesis import SpectralPartition, decompose

MARGINAL_GAP = 1e-6
# Largest state, output and unknown-input dimensions the battery draws.
_BATTERY_N_MAX, _BATTERY_P_MAX, _BATTERY_Q_MAX = 6, 3, 2


@dataclass
class BatteryResult:
    trials: int
    agreements: int
    marginal: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0

    @property
    def scored(self) -> int:
        return self.trials - len(self.marginal)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    @property
    def marginal_fraction(self) -> float:
        return len(self.marginal) / self.trials if self.trials else 0.0


def random_equivalence_battery(n_trials: int, seed: int,
                               alpha: float = 0.0,
                               tol: TolerancePolicy = DEFAULT_POLICY) -> BatteryResult:
    """Compare the geometric and classical existence tests on random draws."""
    if n_trials <= 0:
        raise ValueError("trial count must be positive")
    rng = np.random.default_rng(seed)
    part = SpectralPartition(alpha)
    out = BatteryResult(trials=n_trials, agreements=0, seed=seed)
    t0 = time.perf_counter()
    for trial in range(n_trials):
        n = int(rng.integers(2, _BATTERY_N_MAX + 1))
        p = int(rng.integers(1, min(_BATTERY_P_MAX, n) + 1))
        q = int(rng.integers(1, min(_BATTERY_Q_MAX, p) + 1))
        A = rng.uniform(-2.0, 2.0, (n, n))
        C = rng.uniform(-2.0, 2.0, (p, n))
        B = rng.uniform(-2.0, 2.0, (n, q))
        sys = LinSystem(A, B, C)
        ipart = InputPartition.from_columns(sys, (), tuple(range(q)))
        with margin_monitor() as rec:
            geometric = check_uio_condition(decompose(A, C, B, part, tol), C, tol)
            ci, cii = classical_rank_condition(sys, ipart, alpha, tol)
        info = {"trial": trial, "n": n, "p": p, "q": q,
                "geometric": geometric, "cond_i": ci, "cond_ii": cii,
                "min_margin": rec.min_margin}
        if rec.min_margin < MARGINAL_GAP:
            out.marginal.append(info)
            continue
        if geometric == (ci and cii):
            out.agreements += 1
        else:
            out.disagreements.append(info)
    out.wall_time = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# Residual checks for a synthesized configuration.


# Each numeric invariant by base name (its name without a node<id>_ prefix):
# the comparison its value must satisfy and the limit, None standing for the
# config's spectral boundary alpha.  Boolean invariants pass by truth.
_INVARIANTS = {
    "reconstruction_residual": ("<=", 1e-9),
    "quotient_kills_unknown_input": ("<=", 1e-10),
    "friend_invariance_residual": ("<=", 1e-9),
    "wstar_friend_invariance": ("<=", 1e-9),
    "commutation_residual": ("<=", 1e-9),
    "V_orthogonal_to_Wstar": ("<=", 1e-9),
    "max_re_quotient_spectrum": ("<", None),
    "sigma_min_Q": (">", GRAM_FLOOR),
}
_COMPARE = {"<=": operator.le, "<": operator.lt, ">": operator.gt}


def _row(name: str) -> tuple:
    """The table row of a numeric invariant; KeyError if it has none."""
    return _INVARIANTS[re.sub(r"^node\d+_", "", name)]


@dataclass(frozen=True)
class Check:
    name: str
    value: float | bool
    limit: float | None
    passed: bool

    @property
    def comparison(self) -> str | None:
        """The table's comparison ("<=", "<" or ">"); None for a boolean."""
        return None if isinstance(self.value, bool) else _row(self.name)[0]


def _design(cfg: ProjectConfig, tol: TolerancePolicy):
    """The centralized observer or the network the config describes."""
    if cfg.mode == "centralized":
        return synthesize_centralized_uio(cfg.system, cfg.partition, cfg.spectral, tol)
    return synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph,
                                  cfg.spectral, u_bar_max=cfg.u_bar_max, tol=tol)


def _residuals(cfg: ProjectConfig, artifact, tol: TolerancePolicy) -> dict:
    """Every invariant of an observer or network synthesized from cfg, by name."""
    if cfg.mode == "centralized":
        return artifact.validate(cfg.system, cfg.partition)
    return artifact.validate(cfg.system, tol)


def _checks(residuals: dict, alpha: float) -> list:
    """One Check per invariant, in order, each judged by its table row."""
    out = []
    for name, value in residuals.items():
        if isinstance(value, (bool, np.bool_)):
            out.append(Check(name, bool(value), None, bool(value)))
            continue
        op, limit = _row(name)
        limit = alpha if limit is None else limit
        out.append(Check(name, float(value), limit,
                         bool(_COMPARE[op](value, limit))))
    return out


def synthesis_residual_checks(cfg: ProjectConfig,
                              tol: TolerancePolicy = DEFAULT_POLICY) -> list:
    """Synthesize per the config and evaluate every invariant residual."""
    return _checks(_residuals(cfg, _design(cfg, tol), tol), cfg.spectral.alpha)
