"""Randomized and per-config verification suites.

The equivalence battery draws random systems and confirms that the geometric
existence condition (decoupled subspace disjoint from Ker C) agrees with the
classical pair of conditions (rank test plus detectability of the projected
dynamics).  Trials whose numerical decisions came within 1e-6 of flipping are
reported as marginal rather than scored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .central import (InputPartition, LinSystem, check_uio_condition,
                      classical_rank_condition, synthesize_centralized_uio)
from .config import ProjectConfig
from .distributed import synthesize_distributed
from .subspaces import DEFAULT_POLICY, TolerancePolicy, margin_monitor
from .synthesis import SpectralPartition, decompose

MARGINAL_GAP = 1e-6


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
                               tol: TolerancePolicy = DEFAULT_POLICY,
                               n_max: int = 6, p_max: int = 3,
                               q_max: int = 2) -> BatteryResult:
    """Compare the geometric and classical existence tests on random draws."""
    if n_trials <= 0:
        raise ValueError("trial count must be positive")
    rng = np.random.default_rng(seed)
    part = SpectralPartition(alpha)
    out = BatteryResult(trials=n_trials, agreements=0, seed=seed)
    t0 = time.perf_counter()
    for trial in range(n_trials):
        n = int(rng.integers(2, n_max + 1))
        p = int(rng.integers(1, min(p_max, n) + 1))
        q = int(rng.integers(1, min(q_max, p) + 1))
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


@dataclass(frozen=True)
class Check:
    name: str
    value: float | bool
    limit: float | None
    passed: bool


def _residual_checks_from(checks: dict, limits: dict) -> list:
    out = []
    for name, value in checks.items():
        limit = None
        passed = True
        for pattern, lim in limits.items():
            if pattern in name:
                limit = lim
                break
        if isinstance(value, (bool, np.bool_)):
            passed = bool(value)
        elif limit is not None:
            passed = bool(value <= limit)
        out.append(Check(name=name,
                         value=bool(value) if isinstance(value, (bool, np.bool_))
                         else float(value), limit=limit, passed=passed))
    return out


_LIMITS = {
    "reconstruction_residual": 1e-9,
    "quotient_kills_unknown_input": 1e-10,
    "friend_invariance_residual": 1e-9,
    "wstar_friend_invariance": 1e-9,
    "commutation_residual": 1e-9,
    "V_orthogonal_to_Wstar": 1e-9,
    "chart_orthonormal": 1e-10,
    "chart_kernel": 1e-9,
}


def _design(cfg: ProjectConfig, tol: TolerancePolicy):
    """The centralized observer or the network the config describes."""
    if cfg.mode == "centralized":
        return synthesize_centralized_uio(cfg.system, cfg.partition, cfg.spectral,
                                          tol, pole_targets=cfg.pole_targets,
                                          margin=cfg.margin)
    return synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph,
                                  cfg.spectral, safety=cfg.safety,
                                  u_bar_max=cfg.u_bar_max, tol=tol,
                                  pole_targets=cfg.pole_targets,
                                  margin=cfg.margin)


def _residual_checks(cfg: ProjectConfig, artifact, tol: TolerancePolicy) -> list:
    """Every invariant residual of an observer or network synthesized from cfg."""
    if cfg.mode == "centralized":
        raw = artifact.validate(cfg.system, cfg.partition)
        raw["spectrum_below_alpha"] = (raw.pop("max_re_quotient_spectrum")
                                       < artifact.alpha)
        return _residual_checks_from(raw, _LIMITS)
    raw = artifact.validate(cfg.system, tol)
    for key in list(raw):
        if key.endswith("max_re_quotient_spectrum"):
            raw[key.replace("max_re_quotient_spectrum",
                            "spectrum_below_alpha")] = (
                raw.pop(key) < cfg.spectral.alpha)
        elif key == "sigma_min_Q":
            raw["sigma_min_Q_positive"] = raw.pop(key) > 1e-9
    return _residual_checks_from(raw, _LIMITS)


def synthesis_residual_checks(cfg: ProjectConfig,
                              tol: TolerancePolicy = DEFAULT_POLICY) -> list:
    """Synthesize per the config and evaluate every invariant residual."""
    return _residual_checks(cfg, _design(cfg, tol), tol)
