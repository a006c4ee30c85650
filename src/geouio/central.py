"""Centralized unknown-input observer synthesis.

The observer runs a copy of the plant's dynamics on the quotient X/W_g*,
which the unknown input cannot reach, and reassembles the state estimate from
the quotient variable and the measurement through the reconstruction identity
E·P + F·C = I.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (DimensionMismatch, ExistenceFailed, InvarianceViolated,
                     NotConditionedInvariant, NotSolvable, SpectrumUnassignable)
from .subspaces import (DEFAULT_POLICY, TolerancePolicy, _eigvals, _fro,
                        _lstsq, _pinv, _rank_cut, _svd, as_matrix, intersect,
                        monitored_rank, two_norm)
from .synthesis import (GeometricDecomposition, SpectralPartition, decompose,
                        stabilizing_friend)


class LinSystem:
    """Plant matrices x' = Ax + Bu, y = Cx."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray):
        A = as_matrix(A, "A")
        B = as_matrix(B, "B")
        C = as_matrix(C, "C")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B row count must match A")
        if C.shape[1] != n:
            raise DimensionMismatch("C column count must match A")
        self.A = A
        self.B = B
        self.C = C

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


class InputPartition:
    """Column split of B into known and unknown input channels."""

    __slots__ = ("B_known", "B_unknown", "known_cols", "unknown_cols")

    def __init__(self, B_known: np.ndarray, B_unknown: np.ndarray,
                 known_cols: tuple, unknown_cols: tuple):
        self.B_known = B_known
        self.B_unknown = B_unknown
        self.known_cols = known_cols
        self.unknown_cols = unknown_cols

    @classmethod
    def from_columns(cls, sys: LinSystem, known_cols, unknown_cols) -> "InputPartition":
        known = tuple(int(i) for i in known_cols)
        unknown = tuple(int(i) for i in unknown_cols)
        cols = sorted(known + unknown)
        if cols != list(range(sys.m)):
            raise DimensionMismatch(
                f"known {known} and unknown {unknown} must partition the "
                f"{sys.m} input columns")
        n_unknown = len(unknown)
        if not (n_unknown <= sys.p <= sys.n):
            raise DimensionMismatch(
                f"need #unknown ({n_unknown}) <= p ({sys.p}) <= n ({sys.n})")
        return cls(sys.B[:, list(known)], sys.B[:, list(unknown)], known, unknown)


class CentralizedObserver:
    """Synthesized observer z' = Abar_L z + P B' u' - P L y,  xhat = E z + F y."""

    __slots__ = ("Abar_L", "P_Wg", "L", "E", "F", "decomp")

    def __init__(self, Abar_L: np.ndarray, P_Wg: np.ndarray, L: np.ndarray,
                 E: np.ndarray, F: np.ndarray, decomp: GeometricDecomposition):
        self.Abar_L = Abar_L
        self.P_Wg = P_Wg
        self.L = L
        self.E = E
        self.F = F
        self.decomp = decomp

    @property
    def z_dim(self) -> int:
        return self.Abar_L.shape[0]


def check_uio_condition(decomp: GeometricDecomposition,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Existence condition: the decoupled subspace meets Ker C only at 0.

    Ker C is ``decomp.ker_C``, taken under ``decompose``'s tolerance."""
    return intersect(decomp.W_g_star, decomp.ker_C, tol).is_zero


def _rank_condition(C, Bbar, tol: TolerancePolicy) -> bool:
    """Local rank test rank(C Bbar) = rank(Bbar): C loses no direction of Im Bbar.
    The cut of C Bbar is floored at ||C|| ||Bbar||, as ``kernel`` floors
    products, so the rounding noise of a zero product adds no rank.  One SVD
    of Bbar gives both its norm and its rank; the C Bbar cut comes first."""
    if not Bbar.size:
        return True
    s = _svd(Bbar, uv=False)
    return (monitored_rank(C @ Bbar, tol, two_norm(C) * float(s[0]))
            == _rank_cut(s, Bbar.shape, tol.rel_rank_tol))


def classical_rank_condition(sys: LinSystem, part: InputPartition,
                             alpha: float = 0.0,
                             tol: TolerancePolicy = DEFAULT_POLICY):
    """Textbook existence test: (i) rank(C Bbar) = rank(Bbar), and
    (ii) detectability of (C, A1) with A1 = (I - Bbar (C Bbar)^+ C) A.

    Detectability is tested PBH-style on every eigenvalue whose real part
    reaches the spectral boundary.
    """
    Bbar = part.B_unknown
    C, A, n = sys.C, sys.A, sys.n
    cond_i = _rank_condition(C, Bbar, tol)
    A1 = (np.eye(n) - Bbar @ _pinv(C @ Bbar) @ C) @ A
    spart = SpectralPartition(alpha)
    scale = max(1.0, two_norm(A1))
    cond_ii = True
    for lam in _eigvals(A1):
        if spart.is_bad(lam.real, scale):
            pbh = np.vstack([A1 - lam * np.eye(n), C.astype(complex)])
            if monitored_rank(pbh, tol) < n:
                cond_ii = False
    return cond_i, cond_ii


def solve_output_reconstruction(P_Wg, C, tol: TolerancePolicy = DEFAULT_POLICY):
    """Minimum-norm (E, F) with E P_Wg + F C = I_n.

    Solvable iff the rows of P_Wg and C jointly span R^n; raises NotSolvable
    otherwise.
    """
    P_Wg = as_matrix(P_Wg, "P_Wg")
    C = as_matrix(C, "C")
    n = P_Wg.shape[1]
    if C.shape[1] != n:
        raise DimensionMismatch("P_Wg and C must share the state dimension")
    M = np.vstack([P_Wg, C])
    if monitored_rank(M, tol) < n:
        raise NotSolvable(
            "rows of the quotient chart and C do not span the state space")
    try:
        Xt = _lstsq(M.T, np.eye(n))
    except LinAlgError as exc:
        raise NotSolvable(
            f"least-squares reconstruction solve failed ({exc})") from exc
    X = Xt.T
    resid = _fro(X @ M - np.eye(n))
    if resid > tol.abs_residual_tol:
        raise NotSolvable(f"reconstruction solve residual too large ({resid:.2e})")
    q = P_Wg.shape[0]
    return X[:, :q], X[:, q:]


def synthesize_centralized_uio(sys: LinSystem, part: InputPartition,
                               spectral: SpectralPartition = SpectralPartition(),
                               tol: TolerancePolicy = DEFAULT_POLICY,
                               ) -> CentralizedObserver:
    """Full pipeline: decomposition, existence check, gain, reconstruction."""
    decomp = decompose(sys.A, sys.C, part.B_unknown, spectral, tol)
    blocked = intersect(decomp.W_g_star, decomp.ker_C, tol)
    if not blocked.is_zero:
        raise ExistenceFailed(
            f"unrecoverable directions: the decoupled subspace intersects Ker C "
            f"in dimension {blocked.dim}; x is still estimable modulo that "
            f"{blocked.dim}-dimensional subspace, that is, by any T with "
            f"T·basis = 0 for a basis of it",
            diagnostics={"intersection_basis": blocked.basis,
                         "blocked_dim": blocked.dim,
                         "w_g_dim": decomp.W_g_star.dim})
    try:
        L, Abar_L = stabilizing_friend(sys.A, sys.C, decomp.W_g_star, spectral,
                                       tol, W_star=decomp.W_star)
    except (SpectrumUnassignable, InvarianceViolated,
            NotConditionedInvariant) as exc:
        raise ExistenceFailed(f"quotient spectrum not assignable: {exc}",
                              diagnostics={"cause": exc}) from exc
    E, F = solve_output_reconstruction(decomp.P_Wg, sys.C, tol)
    return CentralizedObserver(Abar_L=Abar_L, P_Wg=decomp.P_Wg, L=L, E=E, F=F,
                               decomp=decomp)


def estimate(obs: CentralizedObserver, z, y) -> np.ndarray:
    """xhat = E z + F y."""
    return obs.E @ np.asarray(z, dtype=float) + obs.F @ np.asarray(y, dtype=float)
