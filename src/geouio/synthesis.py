"""Conditioned-invariant geometry: W*, S*, spectral splitting and friend gains.

The central object is the decomposition of the state space induced by an
unknown-input channel Im(Bbar) under measurements C:

    Im(Bbar) ⊆ W* ⊆ W_g* ⊆ S*

where W* is the infimal (C,A)-invariant subspace containing Im(Bbar), S* the
infimal unobservability subspace containing it, and W_g* additionally absorbs
the quotient directions whose fixed dynamics (invariant zeros) fall on the
wrong side of the spectral boundary.  The quotient X/W_g* then admits an
output injection making its induced map stable, which is what the observer
constructions consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.signal as ssig

from .errors import (DimensionMismatch, InvarianceViolated,
                     NotConditionedInvariant, SpectrumUnassignable)
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy, as_matrix,
                        canonical_projection, contains, image, intersect,
                        kernel, orth_complement, preimage, subspace_sum,
                        subspaces_equal, unobservable_subspace)

# Eigenvalues within this band of the boundary are classified conservatively
# ("bad"): a raw comparison would flip on rounding noise when zeros sit
# exactly on the boundary.
EIG_TIE_TOL = 1e-8


@dataclass(frozen=True)
class SpectralPartition:
    """Symmetric split of the complex plane at Re(lambda) = alpha.

    An eigenvalue is "good" iff its real part is strictly below ``alpha``;
    boundary ties count as bad.
    """

    alpha: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    def is_bad(self, re: float, scale: float = 1.0) -> bool:
        return re >= self.alpha - EIG_TIE_TOL * max(1.0, scale)


def default_pole_targets(alpha: float, count: int, start: float = 1.0,
                         step: float = 0.5) -> np.ndarray:
    """Real placement targets alpha-start, alpha-start-step, ..."""
    return alpha - start - step * np.arange(count)


# ---------------------------------------------------------------------------
# Invariant-subspace recursions.


def infimal_conditioned_invariant(A, C, Bbar: Subspace,
                                  tol: TolerancePolicy = DEFAULT_POLICY,
                                  return_history: bool = False):
    """Infimal (C,A)-invariant subspace containing Bbar.

    Fixed point of W_{k+1} = Bbar + A(W_k ∩ Ker C) starting from Bbar; the
    chain is nondecreasing and stabilizes within n steps.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    n = A.shape[0]
    if Bbar.ambient_dim != n:
        raise DimensionMismatch("Bbar ambient dimension must match A")
    KC = kernel(C, tol)
    a_scale = float(np.linalg.norm(A, 2)) if A.size else 0.0
    W = Bbar
    history = [W]
    for _ in range(n + 1):
        grown = image(A @ intersect(W, KC, tol).basis, tol, scale_floor=a_scale)
        nxt = subspace_sum(Bbar, grown, tol)
        history.append(nxt)
        if nxt.dim == W.dim:
            break
        W = nxt
    W = history[-1]
    return (W, history) if return_history else W


def infimal_unobservability_subspace(A, C, W_star: Subspace,
                                     tol: TolerancePolicy = DEFAULT_POLICY,
                                     return_history: bool = False):
    """Infimal unobservability subspace containing W*.

    Fixed point of S_{k+1} = W* + (A^{-1} S_k ∩ Ker C) from S_0 = R^n; the
    chain is nonincreasing and stabilizes within n steps.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    n = A.shape[0]
    KC = kernel(C, tol)
    S = Subspace.full(n, tol.rel_rank_tol)
    history = [S]
    for _ in range(n + 1):
        nxt = subspace_sum(W_star, intersect(preimage(A, S, tol), KC, tol), tol)
        history.append(nxt)
        if nxt.dim == S.dim:
            break
        S = nxt
    S = history[-1]
    return (S, history) if return_history else S


# ---------------------------------------------------------------------------
# Friends (output-injection gains preserving invariance).


def friend_gain(A, C, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Minimum-Frobenius-norm L with (A + L C) W ⊆ W.

    Requires A(W ∩ Ker C) ⊆ W (the conditioned-invariance test); raises
    NotConditionedInvariant otherwise.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    if not (W.is_zero or W.is_full):
        a_scale = max(1.0, float(np.linalg.norm(A, 2)))
        core = image(A @ intersect(W, kernel(C, tol), tol).basis, tol,
                     scale_floor=a_scale)
        if not contains(W, core, tol):
            raise NotConditionedInvariant(
                "A maps W ∩ Ker C outside W; no output injection can fix W")
    return common_friend(A, C, [W], tol)


def common_friend(A, C, subspace_list,
                  tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Minimum-norm L making every listed subspace (A + L C)-invariant.

    Solves the stacked invariance equations by vectorized least squares; a
    nested chain of conditioned-invariant subspaces always admits a solution.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    n, p = A.shape[0], C.shape[0]
    rows, rhs = [], []
    for W in subspace_list:
        if W.is_zero or W.is_full:
            continue
        P = canonical_projection(W, tol)
        # P L (C Wb) = -P A Wb, in column-major vec form.
        rows.append(np.kron((C @ W.basis).T, P))
        rhs.append((-P @ A @ W.basis).flatten(order="F"))
    if not rows:
        return np.zeros((n, p))
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    vecL, *_ = np.linalg.lstsq(G, h, rcond=None)
    resid = float(np.linalg.norm(G @ vecL - h))
    a_scale = max(1.0, float(np.linalg.norm(A, 2)))
    if resid > tol.abs_residual_tol * a_scale:
        raise NotConditionedInvariant(
            f"no common friend for the given subspaces (residual {resid:.2e})")
    return vecL.reshape((n, p), order="F")


# ---------------------------------------------------------------------------
# Spectral splitting of the invariant-zero dynamics.


def _split_in_chart(A, C, W_star, S_star, L0, part, P, tol):
    """Split S*/W* into good/bad invariant subspaces in the chart P of X/W*."""
    n = A.shape[0]
    AL = A + L0 @ C
    a_scale = max(1.0, float(np.linalg.norm(AL, 2)))
    if W_star.dim:
        r = float(np.linalg.norm(P @ AL @ W_star.basis))
        if r > tol.abs_residual_tol * a_scale:
            raise InvarianceViolated(f"L0 is not a friend of W* (residual {r:.2e})")
    if S_star.dim:
        PS = canonical_projection(S_star, tol)
        r = float(np.linalg.norm(PS @ AL @ S_star.basis))
        if r > tol.abs_residual_tol * a_scale:
            raise InvarianceViolated(f"L0 is not a friend of S* (residual {r:.2e})")
    q = P.shape[0]
    # S* ∩ W*^perp maps isometrically onto the quotient image of S*.
    Sq = P @ intersect(S_star, orth_complement(W_star, tol), tol).basis
    d = Sq.shape[1]
    if d == 0:
        z = Subspace.zero(q, tol.rel_rank_tol)
        return z, z
    Abar = P @ AL @ P.T
    off = float(np.linalg.norm(Abar @ Sq - Sq @ (Sq.T @ Abar @ Sq)))
    if off > 1e3 * tol.abs_residual_tol * a_scale:
        raise InvarianceViolated(
            f"quotient image of S* is not invariant (residual {off:.2e})")
    R = Sq.T @ Abar @ Sq
    scale = max(1.0, float(np.linalg.norm(R, 2)))
    boundary = part.alpha - EIG_TIE_TOL * scale
    _, Zb, nb = sla.schur(R, output="real", sort=lambda re, im: re >= boundary)
    _, Zg, ng = sla.schur(R, output="real", sort=lambda re, im: re < boundary)
    if nb + ng != d:
        raise InvarianceViolated("spectral split lost eigenvalues at the boundary")
    Xb = image(Sq @ Zb[:, :nb], tol) if nb else Subspace.zero(q, tol.rel_rank_tol)
    Xg = image(Sq @ Zg[:, :ng], tol) if ng else Subspace.zero(q, tol.rel_rank_tol)
    return Xg, Xb


def spectral_split(A, C, W_star: Subspace, S_star: Subspace, L0,
                   part: SpectralPartition,
                   tol: TolerancePolicy = DEFAULT_POLICY):
    """Good/bad invariant subspaces of the induced map on S*/W*.

    Works in the chart ``canonical_projection(W_star)``; eigenvalues with
    real part >= alpha (minus the tie band) lead the ordered real Schur form
    and span the bad subspace.  Returns ``(X_good, X_bad)`` with dimensions
    summing to dim S* - dim W*.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    L0 = as_matrix(L0, "L0")
    P = canonical_projection(W_star, tol)
    return _split_in_chart(A, C, W_star, S_star, L0, part, P, tol)


def compute_wg_star(W_star: Subspace, Xbar_b: Subspace, P_Wstar,
                    tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Inverse image of the bad quotient subspace under the chart of X/W*.

    The result contains W* and has dimension dim W* + dim Xbar_b.
    """
    P_Wstar = as_matrix(P_Wstar, "P_Wstar")
    if P_Wstar.shape[0] != Xbar_b.ambient_dim:
        raise DimensionMismatch("Xbar_b must live in the chart of X/W*")
    Wg = preimage(P_Wstar, Xbar_b, tol)
    expected = W_star.dim + Xbar_b.dim
    if Wg.dim != expected:
        raise InvarianceViolated(
            f"lifted subspace has dim {Wg.dim}, expected {expected}")
    return Wg


# ---------------------------------------------------------------------------
# Stabilizing friend via staircase observability decomposition.


def stabilizing_friend(A, C, W_g_star: Subspace, part: SpectralPartition,
                       tol: TolerancePolicy = DEFAULT_POLICY,
                       pole_targets=None, margin: float = 0.5,
                       keep_invariant=()):
    """Friend of W_g* whose induced quotient map has spectrum in the good region.

    Parameters
    ----------
    pole_targets
        Real targets for the assignable quotient modes; defaults to
        alpha-margin-0.5, alpha-margin-1.0, ... so every placed mode clears
        the boundary by more than ``margin``.  Fixed (unassignable) modes are
        the good invariant zeros and are only verified against ``alpha``.
    keep_invariant
        Extra subspaces (e.g. W*) the returned gain must also leave
        invariant; additional injections are restricted so every listed
        invariance survives.

    Returns ``(L, Abar)`` with ``Abar`` the induced map in the chart of
    ``canonical_projection(W_g_star)``.  Raises SpectrumUnassignable when the
    verification re-check of the spectrum fails.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    n, p = A.shape[0], C.shape[0]
    part = part or SpectralPartition()
    L0 = common_friend(A, C, [W_g_star, *keep_invariant], tol)
    P = canonical_projection(W_g_star, tol)
    q = P.shape[0]
    if q == 0:
        return L0, np.zeros((0, 0))
    Abar0 = P @ (A + L0 @ C) @ P.T
    CW = C @ W_g_star.basis
    # H discards the measurement components that see W_g*; injections through
    # H C preserve the invariance of W_g* and of anything nested inside it.
    H = np.eye(p) - (CW @ np.linalg.pinv(CW) if CW.shape[1] else np.zeros((p, p)))
    Cbar = H @ C @ P.T
    c_scale = float(np.linalg.norm(C, 2)) if C.size else 0.0
    unobs = unobservable_subspace(Cbar, Abar0, tol, meas_scale=c_scale)
    U2 = unobs.basis
    U1 = orth_complement(unobs, tol).basis
    n_obs = U1.shape[1]
    Theta = np.zeros((q, p))
    if n_obs:
        A11 = U1.T @ Abar0 @ U1
        C1 = Cbar @ U1
        if pole_targets is None:
            poles = default_pole_targets(part.alpha, n_obs, start=margin + 0.5)
        else:
            poles = np.asarray(pole_targets, dtype=float)[:n_obs]
            if poles.size < n_obs:
                poles = np.concatenate([
                    poles, default_pole_targets(part.alpha - len(poles) * 0.5,
                                                n_obs - poles.size)])
        # place_poles needs a full-column-rank input matrix: factor C1^T
        # through its column-space isometry.
        Ub, sb, Vbt = np.linalg.svd(C1.T, full_matrices=False)
        r = int(np.sum(sb > sb[0] * max(C1.shape) * tol.rel_rank_tol)) if sb.size else 0
        if r == 0:
            raise SpectrumUnassignable(
                "observable quotient modes exist but the factored measurement vanishes")
        try:
            placed = ssig.place_poles(A11.T, Ub[:, :r], poles)
        except ValueError as exc:
            raise SpectrumUnassignable(f"pole placement failed: {exc}") from exc
        K = Vbt[:r].T @ (placed.gain_matrix / sb[:r, None])
        Theta = np.hstack([U1, U2]) @ np.vstack([-K.T, np.zeros((U2.shape[1], p))])
    L = L0 + P.T @ Theta @ H
    Abar = P @ (A + L @ C) @ P.T
    eigs = np.linalg.eigvals(Abar)
    worst = float(eigs.real.max())
    if worst >= part.alpha - 1e-9:
        raise SpectrumUnassignable(
            f"quotient spectrum cannot be pushed below alpha={part.alpha} "
            f"(max Re = {worst:.3e})", eigenvalues=eigs)
    a_scale = max(1.0, float(np.linalg.norm(A + L @ C, 2)))
    for W in (W_g_star, *keep_invariant):
        if W.dim:
            r = float(np.linalg.norm(canonical_projection(W, tol)
                                     @ (A + L @ C) @ W.basis))
            if r > tol.abs_residual_tol * a_scale:
                raise InvarianceViolated(
                    f"stabilizing friend broke an invariance (residual {r:.2e})")
    return L, Abar


# ---------------------------------------------------------------------------
# Full decomposition for one (C, A, Bbar) triple.


@dataclass(frozen=True)
class GeometricDecomposition:
    """All subspaces and charts derived from one unknown-input channel.

    The chart of X/W* is aligned so its rows stack as [P_Wg; V^T], which
    makes the block relations between the two quotients exact.  ``V`` is an
    ambient orthonormal basis of W_g* ∩ (W*)^perp (isomorphic to the bad
    zero directions Xbar_b).
    """

    W_star: Subspace
    S_star: Subspace
    L0: np.ndarray
    Xbar_g: Subspace
    Xbar_b: Subspace
    W_g_star: Subspace
    V: np.ndarray
    P_Wstar: np.ndarray
    P_Wg: np.ndarray
    part: SpectralPartition
    tol: TolerancePolicy = field(default=DEFAULT_POLICY)

    @property
    def n(self) -> int:
        return self.W_star.ambient_dim

    def validate(self, A, C, Bbar) -> dict:
        """Residuals/booleans for every structural invariant of the decomposition."""
        t = self.tol
        A = as_matrix(A, "A")
        checks = {
            "contains_Bbar_in_Wstar": contains(self.W_star, image(Bbar, t), t),
            "contains_Wstar_in_Wg": contains(self.W_g_star, self.W_star, t),
            "contains_Wg_in_Sstar": contains(self.S_star, self.W_g_star, t),
            "split_dimension_identity": (
                self.Xbar_g.dim + self.Xbar_b.dim
                == self.S_star.dim - self.W_star.dim),
            "wg_dimension_identity": (
                self.W_g_star.dim == self.W_star.dim + self.Xbar_b.dim),
            "chart_orthonormal_Wstar": float(np.abs(
                self.P_Wstar @ self.P_Wstar.T
                - np.eye(self.P_Wstar.shape[0])).max()) if self.P_Wstar.size else 0.0,
            "chart_kernel_Wstar": float(np.linalg.norm(
                self.P_Wstar @ self.W_star.basis)) if self.W_star.dim else 0.0,
            "chart_orthonormal_Wg": float(np.abs(
                self.P_Wg @ self.P_Wg.T
                - np.eye(self.P_Wg.shape[0])).max()) if self.P_Wg.size else 0.0,
            "chart_kernel_Wg": float(np.linalg.norm(
                self.P_Wg @ self.W_g_star.basis)) if self.W_g_star.dim else 0.0,
            "V_inside_Wg": contains(self.W_g_star,
                                    Subspace(self.n, self.V, t.rel_rank_tol), t),
            "V_orthogonal_to_Wstar": float(np.linalg.norm(
                self.V.T @ self.W_star.basis)) if self.W_star.dim and self.V.size else 0.0,
            "wg_equals_wstar_plus_V": subspaces_equal(
                self.W_g_star,
                subspace_sum(self.W_star,
                             Subspace(self.n, self.V, t.rel_rank_tol), t), t),
        }
        return checks


def decompose(A, C, B_unknown, part: SpectralPartition = SpectralPartition(),
              tol: TolerancePolicy = DEFAULT_POLICY) -> GeometricDecomposition:
    """Run the full geometric pipeline for the triple (C, A, Im B_unknown)."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    Bbar = B_unknown if isinstance(B_unknown, Subspace) else image(
        as_matrix(B_unknown, "B_unknown"), tol)
    n = A.shape[0]
    W = infimal_conditioned_invariant(A, C, Bbar, tol)
    S = infimal_unobservability_subspace(A, C, W, tol)
    L0 = common_friend(A, C, [W, S], tol)
    P_raw = canonical_projection(W, tol)
    Xg_raw, Xb_raw = _split_in_chart(A, C, W, S, L0, part, P_raw, tol)
    Wg = compute_wg_star(W, Xb_raw, P_raw, tol)
    V = intersect(Wg, orth_complement(W, tol), tol).basis
    if V.shape[1] != Wg.dim - W.dim:
        raise InvarianceViolated("V dimension mismatch in decomposition")
    P_Wg = canonical_projection(Wg, tol)
    # Re-chart X/W* so its rows stack the X/W_g* chart above V^T.
    P_W = np.vstack([P_Wg, V.T])
    R = P_W @ P_raw.T  # orthogonal change of chart
    qdim = P_raw.shape[0]
    relabel = lambda X: Subspace(qdim, R @ X.basis if X.dim else X.basis,
                                 tol.rel_rank_tol)
    return GeometricDecomposition(
        W_star=W, S_star=S, L0=L0,
        Xbar_g=relabel(Xg_raw), Xbar_b=relabel(Xb_raw),
        W_g_star=Wg, V=V, P_Wstar=P_W, P_Wg=P_Wg, part=part, tol=tol)
