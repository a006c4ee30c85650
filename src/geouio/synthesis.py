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

Every meet with Ker C, in the W* step W <- Im(Bbar) + A(W ∩ Ker C) and in
S*, is decided from one SVD of the small matrix Cp W, with Cp the rows of
(Ker C)^perp, its rank cut with the scale floored at ||Cp|| ||W|| = 1
(``subspaces._ker_meet``): a W inside Ker C whose Cp W is rounding noise
meets it in W itself.  The W* step keeps its two cuts, the image of
A(W ∩ Ker C) and its sum with Im(Bbar).

S* is computed through its dual: W* plus the lifted unobservable subspace
of the pair that a friend of W* induces on X/W*, measured by the outputs
blind to W* that the same SVD of Cp W* gives; ``unobservable_subspace``
takes it as the complement of a growing observable subspace.
``stabilizing_friend`` builds the same kind of pair on X/W_g*
(``_quotient_pair``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (DimensionMismatch, InvarianceViolated,
                     NotConditionedInvariant, SpectrumUnassignable)
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy,
                        _eigvals, _exceeds, _fixed_point, _fro, _ker_meet,
                        _kron, _lstsq, _matrix_sign, _pinv, _rank_cut,
                        _require_invariant, _svd, as_matrix,
                        canonical_projection, contains, image, intersect,
                        kernel, note_margin, orth_complement,
                        subspace_sum, two_norm, unobservable_subspace)

# Eigenvalues within this band of the boundary are classified conservatively
# ("bad"): a raw comparison would flip on rounding noise when zeros sit
# exactly on the boundary.
EIG_TIE_TOL = 1e-8


class SpectralPartition:
    """Spectral specification of one design.

    An eigenvalue is "good" iff its real part is strictly below ``alpha``;
    boundary ties count as bad.  Assignable quotient modes are moved
    strictly left of ``placement_bound``: the largest of ``pole_targets``
    (each left of ``alpha``) or, with none given, ``alpha - margin - 0.5``
    (``margin`` >= 0).  ``safety`` (>= 1) scales the networked observer's
    consensus gains above their bounds.
    """

    __slots__ = ("alpha", "margin", "pole_targets", "safety")

    def __init__(self, alpha: float = 0.0, margin: float = 0.5,
                 pole_targets: tuple | None = None, safety: float = 1.1):
        if pole_targets is not None:
            pole_targets = tuple(float(v) for v in pole_targets)
        if not all(map(math.isfinite, (alpha, margin, safety,
                                       *(pole_targets or ())))):
            raise ValueError("alpha, margin, safety and pole_targets must be finite")
        if safety < 1:
            raise ValueError("safety must be >= 1")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if any(t >= alpha for t in pole_targets or ()):
            raise ValueError(f"pole_targets must lie left of alpha = {alpha}, "
                             f"got {pole_targets}")
        self.alpha = alpha
        self.margin = margin
        self.pole_targets = pole_targets
        self.safety = safety

    def boundary(self, scale: float = 1.0) -> float:
        """The real part from which on an eigenvalue of a map of 2-norm
        ``scale`` counts as bad: ``alpha`` less the tie band."""
        return self.alpha - EIG_TIE_TOL * max(1.0, scale)

    def is_bad(self, re: float, scale: float = 1.0) -> bool:
        return re >= self.boundary(scale)

    @property
    def placement_bound(self) -> float:
        """The real part left of which ``stabilizing_friend`` moves every
        assignable quotient mode."""
        if self.pole_targets:
            return max(self.pole_targets)
        return self.alpha - (self.margin + 0.5)


# ---------------------------------------------------------------------------
# Invariant-subspace recursions.


def infimal_conditioned_invariant(A, ker_C: Subspace, Bbar: Subspace,
                                  tol: TolerancePolicy = DEFAULT_POLICY,
                                  return_history: bool = False):
    """Infimal (C,A)-invariant subspace containing Bbar; ``ker_C`` is Ker C.

    Fixed point of W_{k+1} = Bbar + A(W_k ∩ Ker C) starting from Bbar; the
    chain is nondecreasing and stabilizes within n steps.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if Bbar.ambient_dim != n:
        raise DimensionMismatch("Bbar ambient dimension must match A")
    a_scale = two_norm(A)
    # a full W is its own successor: the chain stops without a step
    history = _fixed_point(
        lambda W: W if W.is_full else subspace_sum(
            Bbar, image(A @ _ker_meet(W, ker_C, tol)[0].basis, tol,
                        scale_floor=a_scale), tol),
        Bbar, n + 1)
    return (history[-1], history) if return_history else history[-1]


def infimal_unobservability_subspace(A, ker_C: Subspace, W_star: Subspace,
                                     tol: TolerancePolicy = DEFAULT_POLICY):
    """Infimal unobservability subspace containing W*; ``ker_C`` is Ker C.

    The fixed point of S_{k+1} = W* + (A^{-1} S_k ∩ Ker C) from S_0 = R^n,
    computed through its dual.  Its first step is S_1 = W* + Ker C; when
    that is R^n, it is S*.  Otherwise S* = W* ⊕ P^T N, with P the chart of
    X/W*, Cp the rows of (Ker C)^perp, L a friend of W* with respect to Cp,
    and N the unobservable subspace of the pair that A + L Cp induces on
    X/W* with the measurements H Cp blind to W*.  One SVD of Cp W*
    (``_ker_meet``) decides all three: its rank r is p' iff S_1 = R^n, H
    projects onto its trailing p' - r left singular vectors, and with r = 0
    L = 0 is a friend iff W* is A-invariant.  A full W* is returned as
    ``W_star`` itself, and so is W* when N = 0.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if W_star.is_full:
        return W_star
    _, r, U = _ker_meet(W_star, ker_C, tol)
    Cp = orth_complement(ker_C).basis.T
    if r == Cp.shape[0]:
        return Subspace.full(n)
    P = canonical_projection(W_star)
    if r:
        L = common_friend(A, Cp, [W_star], tol)
    else:  # Cp sees none of W*, so no injection through it moves W*
        resid = _fro(P @ A @ W_star.basis)
        if _exceeds(resid, tol.abs_residual_tol, A):
            raise NotConditionedInvariant(
                f"no common friend for the given subspaces (residual {resid:.2e})")
        L = np.zeros((n, Cp.shape[0]))
    H = U[:, r:] @ U[:, r:].T
    # Cp's rows are orthonormal: its 2-norm, 1, floors the measurement rank
    N = unobservable_subspace(H @ Cp @ P.T, P @ (A + L @ Cp) @ P.T, tol,
                              meas_scale=1.0)
    if N.is_zero:
        return W_star
    return Subspace(n, np.concatenate([W_star.basis, P.T @ N.basis], axis=1))


# ---------------------------------------------------------------------------
# Friends (output-injection gains preserving invariance).


def _seen(C: np.ndarray, W: Subspace) -> np.ndarray:
    """``C @ W.basis``, or zeros where ``||C W||_2 <= max(C.shape) * eps *
    max(1, ||C||_2)``: rounding noise that a solve would divide by itself,
    making the gain depend on W's basis."""
    CW = C @ W.basis
    lim = max(C.shape) * np.finfo(float).eps
    # max|CW| <= ||CW||_2 <= ||CW||_F and ||C||_2 <= ||C||_F decide without
    # an SVD outside a 1e-12 band, which covers the SVDs' rounding.
    if CW.size and abs(CW).max() > lim * max(1.0, _fro(C)) * (1 + 1e-12):
        return CW
    if _fro(CW) > lim * (1 - 1e-12) and _exceeds(two_norm(CW), lim, C):
        return CW
    return np.zeros_like(CW)


def friend_gain(A, C, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Minimum-Frobenius-norm L with (A + L C) W ⊆ W.

    Requires A(W ∩ Ker C) ⊆ W (the conditioned-invariance test); raises
    NotConditionedInvariant otherwise.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    if not (W.is_zero or W.is_full):
        a_scale = max(1.0, two_norm(A))
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
        P = canonical_projection(W)
        # P L (C Wb) = -P A Wb, in column-major vec form; where C cannot see
        # W its rows are zero and the residual check asks P A Wb = 0.
        rows.append(_kron(_seen(C, W).T, P))
        rhs.append((-P @ A @ W.basis).flatten(order="F"))
    if not rows:
        return np.zeros((n, p))
    G = np.concatenate(rows)
    h = np.concatenate(rhs)
    try:
        vecL = _lstsq(G, h)
    except LinAlgError as exc:
        raise NotConditionedInvariant(
            f"least-squares solve for a common friend failed ({exc})") from exc
    resid = _fro(G @ vecL - h)
    if _exceeds(resid, tol.abs_residual_tol, A):
        raise NotConditionedInvariant(
            f"no common friend for the given subspaces (residual {resid:.2e})")
    return vecL.reshape((n, p), order="F")


def _quotient_pair(A, C, W: Subspace, L):
    """The pair on X/W of a friend L of W: ``(P, Abar, H, Cbar)``.

    P is ``canonical_projection(W)`` and Abar = P (A + L C) P^T the induced
    map.  H discards the measurement components that see W, so injections
    through H C preserve the invariance of W and of anything nested inside
    it, and Cbar = H C P^T measures the quotient.
    """
    P = canonical_projection(W)
    CW = _seen(C, W)
    H = np.eye(C.shape[0]) - CW @ _pinv(CW)
    return P, P @ (A + L @ C) @ P.T, H, H @ C @ P.T


# ---------------------------------------------------------------------------
# Spectral splitting of the invariant-zero dynamics.


def spectral_split(A, C, W_star: Subspace, S_star: Subspace, L0,
                   part: SpectralPartition,
                   tol: TolerancePolicy = DEFAULT_POLICY):
    """Good/bad invariant subspaces of the induced map on S*/W*.

    Works in the chart ``canonical_projection(W_star)`` on the map R that
    ``A + L0 C`` induces on the quotient image of S*.  With ``beta =
    part.boundary(||R||)``, the bad subspace is the image of ``I + sign(R -
    beta I)``, the good one that of ``I - sign(R - beta I)``; a one-sided
    spectrum takes no sign.  Notes ``min |Re eig(R) - beta|`` as a margin.
    Returns ``(X_good, X_bad)``, dimensions summing to dim S* - dim W*.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    L0 = as_matrix(L0, "L0")
    P = canonical_projection(W_star)
    AL = A + L0 @ C
    _require_invariant(P, AL, W_star, tol, "L0 is not a friend of W*")
    _require_invariant(canonical_projection(S_star), AL, S_star, tol,
                       "L0 is not a friend of S*")
    q = P.shape[0]
    # S* ∩ W*^perp maps isometrically onto the quotient image of S*.
    Sq = P @ intersect(S_star, orth_complement(W_star), tol).basis
    d = Sq.shape[1]
    if d == 0:
        z = Subspace.zero(q)
        return z, z
    Abar = P @ AL @ P.T
    off = _fro(Abar @ Sq - Sq @ (Sq.T @ Abar @ Sq))
    if _exceeds(off, 1e3 * tol.abs_residual_tol, AL):
        raise InvarianceViolated(
            f"quotient image of S* is not invariant (residual {off:.2e})")
    R = Sq.T @ Abar @ Sq
    scale = two_norm(R)
    beta = part.boundary(scale)
    re = _eigvals(R).real
    note_margin(np.abs(re - beta).min())
    nb = int(np.count_nonzero(part.is_bad(re, scale)))
    if nb in (0, d):
        one, zero = image(Sq, tol), Subspace.zero(q)
        return (zero, one) if nb else (one, zero)
    I = np.eye(d)
    try:
        S = _matrix_sign(R - beta * I)
    except InvarianceViolated as exc:
        raise InvarianceViolated(
            f"spectral split lost eigenvalues at the boundary ({exc})") from None
    Xb, Xg = image(Sq @ (I + S), tol), image(Sq @ (I - S), tol)
    if Xb.dim != nb or Xg.dim != d - nb:
        raise InvarianceViolated("spectral split lost eigenvalues at the boundary")
    return Xg, Xb


def compute_wg_star(W_star: Subspace, Xbar_b: Subspace) -> Subspace:
    """Inverse image of the bad quotient subspace under the chart of X/W*.

    ``Xbar_b`` lives in the chart ``P = canonical_projection(W_star)``.  The
    result contains W* and has dimension dim W* + dim Xbar_b.  With no bad
    directions it is Ker P, the complement of W*^perp, which
    ``spectral_split`` has already taken and kept on W*^perp.  Otherwise it
    is the kernel of ``comp(Xbar_b)^T P``, whose rows are orthonormal: the
    trailing ``n - q + dim Xbar_b`` rows of its full SVD, with no rank cut.
    """
    n = W_star.ambient_dim
    if Xbar_b.ambient_dim != n - W_star.dim:
        raise DimensionMismatch("Xbar_b must live in the chart of X/W*")
    if Xbar_b.is_zero:
        return orth_complement(orth_complement(W_star))
    comp = orth_complement(Xbar_b)
    if comp.is_zero:
        return Subspace.full(n)
    M = comp.basis.T @ canonical_projection(W_star)
    return Subspace(n, _svd(M)[2][comp.dim:].T)


# ---------------------------------------------------------------------------
# Stabilizing gain from a shifted Riccati equation.

# Weight of the state in the Riccati equation: small, so the gain moves the
# modes that need moving and leaves the others nearly in place.
_RICCATI_Q = 1e-6


def _riccati_gain(F: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``B^T X`` with X the stabilizing solution of the Riccati equation
    ``F^T X + X F - X B B^T X + 1e-6 I = 0``; ``F - B B^T X`` is stable.

    The stable invariant subspace of the Hamiltonian ``H = [[F, -B B^T],
    [-1e-6 I, -F^T]]`` is the kernel of ``sign(H) + I`` and is spanned by
    ``[I; X]`` (Roberts, Int. J. Control, 1980), so X solves ``[Z12; Z22]
    X = -[Z11; Z21]`` with ``Z = sign(H) + I``, in least squares.  With the
    small state weight the closed loop takes F's unstable modes to about
    their mirror images and its stable ones nearly unmoved.  Raises
    SpectrumUnassignable when the sign or the solve fails, as for a mode of
    F on the imaginary axis that B cannot reach.
    """
    n = F.shape[0]
    H = np.concatenate([np.concatenate([F, -B @ B.T], axis=1),
                        np.concatenate([-_RICCATI_Q * np.eye(n), -F.T], axis=1)])
    try:
        Z = _matrix_sign(H)
        Z.reshape(-1)[::2 * n + 1] += 1.0
        X = _lstsq(Z[:, n:], -Z[:, :n])
    except (InvarianceViolated, LinAlgError) as exc:
        raise SpectrumUnassignable(f"Riccati solve failed ({exc})") from None
    return B.T @ (X + X.T) / 2


# ---------------------------------------------------------------------------
# Stabilizing friend via staircase observability decomposition.


def stabilizing_friend(A, C, W_g_star: Subspace, part: SpectralPartition,
                       tol: TolerancePolicy = DEFAULT_POLICY, *, W_star: Subspace):
    """Friend of W* ⊆ W_g* whose induced quotient map has spectrum in the good region.

    The assignable (observable) quotient modes move strictly left of
    ``part.placement_bound`` through the gain of a Riccati equation shifted
    by that bound (``_riccati_gain``); the gain does not depend on the bases
    of W_g* or of the observable block.  Fixed (unassignable) modes are the
    good invariant zeros and are only verified against ``alpha``.
    Additional injections are restricted so that the invariance of both W*
    and W_g* survives.

    Returns ``(L, Abar)`` with ``Abar`` the induced map in the chart of
    ``canonical_projection(W_g_star)``.  Raises SpectrumUnassignable when the
    Riccati solve or the verification re-check of the spectrum fails.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    p = C.shape[0]
    L0 = common_friend(A, C, [W_g_star, W_star], tol)
    if W_g_star.is_full:
        return L0, np.zeros((0, 0))
    P, Abar0, H, Cbar = _quotient_pair(A, C, W_g_star, L0)
    q = P.shape[0]
    c_scale = two_norm(C)
    unobs = unobservable_subspace(Cbar, Abar0, tol, meas_scale=c_scale)
    U1 = orth_complement(unobs).basis
    n_obs = U1.shape[1]
    Theta = np.zeros((q, p))
    if n_obs:
        A11 = U1.T @ Abar0 @ U1
        C1 = Cbar @ U1
        # The Riccati gain works on an orthonormal input matrix: factor
        # C1^T through its column-space isometry.
        Ub, sb, Vbt = _svd(C1.T, full=False)
        r = _rank_cut(sb, C1.shape, tol.rel_rank_tol)
        if r == 0:
            raise SpectrumUnassignable(
                "observable quotient modes exist but the factored measurement vanishes")
        # F - Ub gain is stable, so A11^T - Ub gain, the transpose of the
        # closed observable block, has every mode left of the bound.
        F = A11.T - part.placement_bound * np.eye(n_obs)
        gain = _riccati_gain(F, Ub[:, :r])
        K = Vbt[:r].T @ (gain / sb[:r, None])
        Theta = -U1 @ K.T
    L = L0 + P.T @ Theta @ H
    AL = A + L @ C
    Abar = P @ AL @ P.T
    eigs = _eigvals(Abar)
    worst = float(eigs.real.max())
    if worst >= part.alpha - 1e-9:
        raise SpectrumUnassignable(
            f"quotient spectrum cannot be pushed below alpha={part.alpha} "
            f"(max Re = {worst:.3e})", eigenvalues=eigs)
    for W in (W_g_star, W_star):
        _require_invariant(canonical_projection(W), AL, W, tol,
                           "stabilizing friend broke an invariance")
    return L, Abar


# ---------------------------------------------------------------------------
# Full decomposition for one (C, A, Bbar) triple.


class GeometricDecomposition:
    """All subspaces and charts derived from one unknown-input channel.

    ``Xbar_g`` and ``Xbar_b`` are ``spectral_split``'s good and bad
    invariant-zero subspaces, in the chart ``canonical_projection(W_star)``
    that ``compute_wg_star`` reads.  ``P_Wstar`` is another chart of X/W*,
    its rows stacked as [P_Wg; V^T] so that the block relations between the
    two quotients are exact.  ``V`` is Xbar_b's basis lifted out of that
    chart, ``canonical_projection(W_star)^T Xbar_b.basis``: a read-only
    orthonormal basis of W_g* ∩ (W*)^perp.
    """

    __slots__ = ("W_star", "S_star", "Xbar_g", "Xbar_b", "W_g_star", "V",
                 "P_Wstar", "P_Wg", "ker_C")

    def __init__(self, W_star: Subspace, S_star: Subspace, Xbar_g: Subspace,
                 Xbar_b: Subspace, W_g_star: Subspace, V: np.ndarray,
                 P_Wstar: np.ndarray, P_Wg: np.ndarray, ker_C: Subspace):
        self.W_star = W_star
        self.S_star = S_star
        self.Xbar_g = Xbar_g
        self.Xbar_b = Xbar_b
        self.W_g_star = W_g_star
        self.V = V
        self.P_Wstar = P_Wstar
        self.P_Wg = P_Wg
        # taken once: the recursions and existence checks read it
        self.ker_C = ker_C

    @property
    def n(self) -> int:
        return self.W_star.ambient_dim


def decompose(A, C, B_unknown, part: SpectralPartition = SpectralPartition(),
              tol: TolerancePolicy = DEFAULT_POLICY) -> GeometricDecomposition:
    """Run the full geometric pipeline for the triple (C, A, Im B_unknown)."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    Bbar = image(as_matrix(B_unknown, "B_unknown"), tol)
    ker_C = kernel(C, tol)
    W = infimal_conditioned_invariant(A, ker_C, Bbar, tol)
    S = infimal_unobservability_subspace(A, ker_C, W, tol)
    L0 = common_friend(A, C, [W, S], tol)
    Xg, Xb = spectral_split(A, C, W, S, L0, part, tol)
    Wg = compute_wg_star(W, Xb)
    V = canonical_projection(W).T @ Xb.basis
    V.setflags(write=False)
    P_Wg = canonical_projection(Wg)
    return GeometricDecomposition(
        W_star=W, S_star=S, Xbar_g=Xg, Xbar_b=Xb, W_g_star=Wg, V=V,
        P_Wstar=np.vstack([P_Wg, V.T]), P_Wg=P_Wg, ker_C=ker_C)
