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

import math

import numpy as np

from .errors import (DimensionMismatch, InvarianceViolated,
                     NotConditionedInvariant, SpectrumUnassignable)
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy,
                        _eigvals, _exceeds, _fixed_point, _matrix_sign,
                        _norm_once, _pinv, _preimage, _qr, _rank_cut,
                        _require_invariant, _svd, as_matrix,
                        canonical_projection, contains, image, intersect,
                        kernel, note_margin, orth_complement, subspace_sum,
                        two_norm, unobservable_subspace)

# Eigenvalues within this band of the boundary are classified conservatively
# ("bad"): a raw comparison would flip on rounding noise when zeros sit
# exactly on the boundary.
EIG_TIE_TOL = 1e-8


class SpectralPartition:
    """Spectral specification of one design.

    An eigenvalue is "good" iff its real part is strictly below ``alpha``;
    boundary ties count as bad.  Assignable quotient modes are placed at
    ``targets``: ``pole_targets`` first (each left of ``alpha``), then further
    real targets 0.5 apart that clear the boundary by more than ``margin``
    (>= 0).  ``safety`` (>= 1) scales the networked observer's consensus
    gains above their bounds.
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

    def targets(self, count: int) -> np.ndarray:
        """``count`` real placement targets.

        The given ``pole_targets`` come first; the rest continue 0.5 apart
        below both the lowest given target and ``alpha - margin - 0.5``.
        With none given they are alpha-margin-0.5, alpha-margin-1.0, ...
        """
        given = np.asarray(self.pole_targets or (), dtype=float)[:count]
        top = self.alpha - (self.margin + 0.5)
        if given.size:
            top = min(top, float(given.min())) - 0.5
        return np.concatenate([given, top - 0.5 * np.arange(count - given.size)])


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
    history = _fixed_point(
        lambda W: subspace_sum(Bbar, image(A @ intersect(W, ker_C, tol).basis, tol,
                                           scale_floor=a_scale), tol),
        Bbar, n + 1)
    return (history[-1], history) if return_history else history[-1]


def infimal_unobservability_subspace(A, ker_C: Subspace, W_star: Subspace,
                                     tol: TolerancePolicy = DEFAULT_POLICY,
                                     return_history: bool = False):
    """Infimal unobservability subspace containing W*; ``ker_C`` is Ker C.

    Fixed point of S_{k+1} = W* + (A^{-1} S_k ∩ Ker C) from S_0 = R^n; the
    chain is nonincreasing and stabilizes within n steps.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    a_norm = _norm_once(A)
    history = _fixed_point(
        lambda S: subspace_sum(W_star, intersect(_preimage(A, S, tol, a_norm),
                                                 ker_C, tol), tol),
        Subspace.full(n), n + 1)
    return (history[-1], history) if return_history else history[-1]


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
    if CW.size and abs(CW).max() > lim * max(1.0, np.linalg.norm(C)) * (1 + 1e-12):
        return CW
    if np.linalg.norm(CW) > lim * (1 - 1e-12) and _exceeds(
            two_norm(CW), lim, lambda: two_norm(C)):
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
        rows.append(np.kron(_seen(C, W).T, P))
        rhs.append((-P @ A @ W.basis).flatten(order="F"))
    if not rows:
        return np.zeros((n, p))
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    try:
        vecL, *_ = np.linalg.lstsq(G, h, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NotConditionedInvariant(
            f"least-squares solve for a common friend failed ({exc})") from exc
    resid = float(np.linalg.norm(G @ vecL - h))
    if _exceeds(resid, tol.abs_residual_tol, _norm_once(A)):
        raise NotConditionedInvariant(
            f"no common friend for the given subspaces (residual {resid:.2e})")
    return vecL.reshape((n, p), order="F")


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
    al_norm = _norm_once(AL)
    _require_invariant(P, AL, W_star, al_norm, tol, "L0 is not a friend of W*")
    _require_invariant(canonical_projection(S_star), AL, S_star, al_norm,
                       tol, "L0 is not a friend of S*")
    q = P.shape[0]
    # S* ∩ W*^perp maps isometrically onto the quotient image of S*.
    Sq = P @ intersect(S_star, orth_complement(W_star), tol).basis
    d = Sq.shape[1]
    if d == 0:
        z = Subspace.zero(q)
        return z, z
    Abar = P @ AL @ P.T
    off = float(np.linalg.norm(Abar @ Sq - Sq @ (Sq.T @ Abar @ Sq)))
    if _exceeds(off, 1e3 * tol.abs_residual_tol, al_norm):
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


def compute_wg_star(W_star: Subspace, Xbar_b: Subspace,
                    tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Inverse image of the bad quotient subspace under the chart of X/W*.

    ``Xbar_b`` lives in the chart ``canonical_projection(W_star)``.  The
    result contains W* and has dimension dim W* + dim Xbar_b.  With no bad
    directions it is Ker of the chart, the complement of W*^perp, which
    ``spectral_split`` has already taken and kept on W*^perp.
    """
    if Xbar_b.ambient_dim != W_star.ambient_dim - W_star.dim:
        raise DimensionMismatch("Xbar_b must live in the chart of X/W*")
    if Xbar_b.is_zero:
        Wg = orth_complement(orth_complement(W_star))
    else:
        # The chart has orthonormal rows: its 2-norm is 1.
        Wg = _preimage(canonical_projection(W_star), Xbar_b, tol,
                       lambda: 1.0)
    expected = W_star.dim + Xbar_b.dim
    if Wg.dim != expected:
        raise InvarianceViolated(
            f"lifted subspace has dim {Wg.dim}, expected {expected}")
    return Wg


# ---------------------------------------------------------------------------
# Real-target pole placement (Kautsky-Nichols-Van Dooren / Tits-Yang).

# Sweeps stop once |det X| changes by less than this fraction, or after
# _YT_MAXITER sweeps (scipy.signal.place_poles defaults).
_YT_RTOL = 1e-3
_YT_MAXITER = 30


def _yt_update_order(n: int) -> np.ndarray:
    """Zero-based column pairs of one Tits-Yang sweep over n real targets.

    The order of Tits and Yang (IEEE TAC 1996, p. 1442) that
    ``scipy.signal.place_poles`` uses; for n >= 3 it needs no single-column
    (KNV0) update.
    """
    hnb = n // 2
    order = [(n, 1)]
    order += [(2 * k, 2 * k + 1) for k in range(1, hnb + n % 2)]
    order += [(2 * k - 1, 2 * k) for k in range(1, hnb + 1)]
    order += [(i, i + j) for j in range(2, hnb + n % 2) for i in range(1, hnb + 1)]
    order += [(i, i + j if i + j <= n else i + j - n)
              for j in range(2, hnb + n % 2) for i in range(hnb + 1, n + 1)]
    order += [(i, i + hnb) for i in range(1, hnb + 1)]
    return np.array(order) - 1


def _yt_sweeps(ker_pole: list, X: np.ndarray):
    """Tits-Yang sweeps over the real column pairs of X (YT section 6.1), in
    place, while |det X| still changes by ``_YT_RTOL`` or more, at most
    ``_YT_MAXITER`` sweeps.

    Each pair update makes the floating-point operations of scipy's
    ``_YT_real``, in its order and through the same BLAS and LAPACK entries
    (``np.dot``, not ``@``: matmul may round small products differently).
    Only the Python around them is lighter: each pair's indices and kernel
    bases are looked up once per placement, the stacked column pairs live
    in preallocated buffers, and the norm is numpy's own ``sqrt(x . x)``.
    """
    n = X.shape[0]
    pairs = [(i, j, np.delete(np.arange(n), (i, j)), ker_pole[i], ker_pole[i].T,
              ker_pole[j]) for i, j in _yt_update_order(n).tolist()]
    x_ij = np.empty((2 * n, 1))       # columns i and j of X, stacked
    ker_mu_nu = np.empty((2 * n, 1))  # the kernel direction they move to
    proj = np.empty((2 * n, 2 * n))
    y = np.empty((2 * n, 1))          # x_ij projected on that direction
    x_i, x_j = x_ij[:n, 0], x_ij[n:, 0]
    kmn_i, kmn_j = ker_mu_nu[:n], ker_mu_nu[n:]
    flat = y.ravel()
    y_i, y_j = flat[:n], flat[n:]
    sqrt2, big = np.sqrt(2), 4 * n * 1e-16
    floor = np.sqrt(np.spacing(1))
    for _ in range(_YT_MAXITER):
        det_before = np.abs(np.linalg.det(X))
        for i, j, others, ker_i, ker_i_t, ker_j in pairs:
            # u, v span the complement of the other n - 2 columns of X.
            Q = _qr(X.take(others, axis=1))
            u = Q[:, -2, np.newaxis]
            v = Q[:, -1, np.newaxis]
            m = np.dot(np.dot(ker_i_t, np.dot(u, v.T) - np.dot(v, u.T)), ker_j)
            um, sm, vm = _svd(m)
            x_i[:] = X[:, i]
            x_j[:] = X[:, j]
            # scipy's np.allclose(sm[0], sm[1]), written out (sm is finite)
            s0, s1 = float(sm[0]), float(sm[1])
            if not abs(s0 - s1) <= 1e-8 + 1e-5 * abs(s1):
                kmn = ker_mu_nu
                np.dot(ker_i, um.T[0, :, np.newaxis], out=kmn_i)
                np.dot(ker_j, vm[0, :, np.newaxis], out=kmn_j)
            else:
                mu1, mu2 = um.T[:2, :, np.newaxis]
                nu1, nu2 = vm[:2, :, np.newaxis]
                ker_ij = np.vstack((np.hstack((ker_i, np.zeros(ker_i.shape))),
                                    np.hstack((np.zeros(ker_j.shape), ker_j))))
                kmn = np.dot(ker_ij, np.vstack((np.hstack((mu1, mu2)),
                                                np.hstack((nu1, nu2)))))
            np.dot(np.dot(kmn, kmn.T, out=proj), x_ij, out=y)
            sq = flat.dot(flat)  # np.linalg.norm's steps
            # scipy's np.allclose(x_ij, 0) is max|x_ij| <= 1e-8; as max|x|^2
            # <= x . x <= 2n max|x|^2, x . x decides outside a factor-2 band.
            if sq > big or (sq >= 0.5e-16 and np.abs(flat).max() > 1e-8):
                flat *= sqrt2
                flat /= math.sqrt(sq)  # correctly rounded, as np.sqrt
                X[:, i] = y_i
                X[:, j] = y_j
            else:
                # x_ij is orthogonal to span(kmn): restart from that span.
                X[:, i] = kmn[:n, 0]
                X[:, j] = kmn[n:, 0]
        det = max(floor, np.abs(np.linalg.det(X)))
        if np.abs((det - det_before) / det) < _YT_RTOL and det > floor:
            break


def _place_real_poles(A, B, poles) -> np.ndarray:
    """Gain K with spectrum(A - B K) = ``poles``, all real.

    Runs the same steps and floating-point operations as
    ``scipy.signal.place_poles(A, B, poles)`` (method "YT") on real targets,
    so the gains agree bit for bit: Kautsky-Nichols-Van Dooren kernel bases
    and initial transfer matrix X, then Tits-Yang column-pair sweeps while
    |det X| still changes by ``_YT_RTOL`` or more, at most ``_YT_MAXITER``
    sweeps.  A sweep limit reached is not an error and warns nothing: the
    callers check the placed spectrum themselves.  Raises ValueError, as
    scipy does, for targets repeated more than rank(B) times and for a
    singular X.
    """
    poles = np.sort(np.asarray(poles, dtype=float))
    n = A.shape[0]
    if not np.all(np.isfinite(poles)):
        raise ValueError("array must not contain infs or NaNs")
    rank = np.linalg.matrix_rank(B)
    if np.max(np.sum(poles[:, None] == poles[None, :], axis=0)) > rank:
        raise ValueError("at least one of the requested pole is repeated "
                         "more than rank(B) times")
    if rank == n:
        # Square or wide full-rank B: X = I and K solves B K = diag - A.
        return -np.linalg.lstsq(B, np.diag(poles) - A, rcond=-1)[0]
    u, z = _qr(np.asarray_chkfinite(B), with_r=True)
    u0, u1, z = u[:, :rank], u[:, rank:], z[:rank, :]
    ker_pole, cols = [], []
    for p in poles:
        pole_space = np.dot(u1.T, A - p * np.eye(n)).T
        Q = _qr(pole_space)
        ker = Q[:, pole_space.shape[1]:]
        x = np.sum(ker, axis=1)[:, np.newaxis]
        ker_pole.append(ker)
        cols.append(x / np.linalg.norm(x))
    X = np.hstack(cols)
    if rank > 1:  # with one input X is already unique up to scaling
        _yt_sweeps(ker_pole, X)
    # scipy solves in complex arithmetic (its path for conjugate pairs);
    # keeping the dtype keeps the rounding.
    X = X.astype(complex)
    try:
        M = np.linalg.solve(X.T, np.dot(np.diag(poles), X.T)).T
        gain = np.linalg.solve(z, np.dot(u0.T, M - A))
    except np.linalg.LinAlgError as exc:
        raise ValueError("The poles you've chosen can't be placed. "
                         "Check the controllability matrix and try "
                         "another set of poles") from exc
    return np.real(-gain)


# ---------------------------------------------------------------------------
# Stabilizing friend via staircase observability decomposition.


def stabilizing_friend(A, C, W_g_star: Subspace, part: SpectralPartition,
                       tol: TolerancePolicy = DEFAULT_POLICY, *, W_star: Subspace):
    """Friend of W* ⊆ W_g* whose induced quotient map has spectrum in the good region.

    The assignable quotient modes go to ``part.targets``; fixed
    (unassignable) modes are the good invariant zeros and are only verified
    against ``alpha``.  Additional injections are restricted so that the
    invariance of both W* and W_g* survives.

    Returns ``(L, Abar)`` with ``Abar`` the induced map in the chart of
    ``canonical_projection(W_g_star)``.  Raises SpectrumUnassignable when the
    verification re-check of the spectrum fails.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    p = C.shape[0]
    L0 = common_friend(A, C, [W_g_star, W_star], tol)
    P = canonical_projection(W_g_star)
    q = P.shape[0]
    if q == 0:
        return L0, np.zeros((0, 0))
    Abar0 = P @ (A + L0 @ C) @ P.T
    CW = _seen(C, W_g_star)
    # H discards the measurement components that see W_g*; injections through
    # H C preserve the invariance of W_g* and of anything nested inside it.
    H = np.eye(p) - CW @ _pinv(CW)
    Cbar = H @ C @ P.T
    c_scale = two_norm(C)
    unobs = unobservable_subspace(Cbar, Abar0, tol, meas_scale=c_scale)
    U2 = unobs.basis
    U1 = orth_complement(unobs).basis
    n_obs = U1.shape[1]
    Theta = np.zeros((q, p))
    if n_obs:
        A11 = U1.T @ Abar0 @ U1
        C1 = Cbar @ U1
        # Placement needs a full-column-rank input matrix: factor C1^T
        # through its column-space isometry.
        Ub, sb, Vbt = _svd(C1.T, full=False)
        r, _ = _rank_cut(sb, C1.shape, tol.rel_rank_tol)
        if r == 0:
            raise SpectrumUnassignable(
                "observable quotient modes exist but the factored measurement vanishes")
        try:
            gain = _place_real_poles(A11.T, Ub[:, :r], part.targets(n_obs))
        except ValueError as exc:
            raise SpectrumUnassignable(f"pole placement failed: {exc}") from exc
        K = Vbt[:r].T @ (gain / sb[:r, None])
        Theta = np.hstack([U1, U2]) @ np.vstack([-K.T, np.zeros((U2.shape[1], p))])
    L = L0 + P.T @ Theta @ H
    AL = A + L @ C
    Abar = P @ AL @ P.T
    eigs = _eigvals(Abar)
    worst = float(eigs.real.max())
    if worst >= part.alpha - 1e-9:
        raise SpectrumUnassignable(
            f"quotient spectrum cannot be pushed below alpha={part.alpha} "
            f"(max Re = {worst:.3e})", eigenvalues=eigs)
    al_norm = _norm_once(AL)
    for W in (W_g_star, W_star):
        _require_invariant(canonical_projection(W), AL, W, al_norm, tol,
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
    two quotients are exact.  ``V`` is an ambient orthonormal basis of
    W_g* ∩ (W*)^perp (isomorphic to the bad zero directions Xbar_b).
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
    Wg = compute_wg_star(W, Xb, tol)
    V = intersect(Wg, orth_complement(W), tol).basis
    if V.shape[1] != Wg.dim - W.dim:
        raise InvarianceViolated("V dimension mismatch in decomposition")
    P_Wg = canonical_projection(Wg)
    return GeometricDecomposition(
        W_star=W, S_star=S, Xbar_g=Xg, Xbar_b=Xb, W_g_star=Wg, V=V,
        P_Wstar=np.vstack([P_Wg, V.T]), P_Wg=P_Wg, ker_C=ker_C)
