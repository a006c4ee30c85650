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

import ctypes
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (DimensionMismatch, InvarianceViolated,
                     NotConditionedInvariant, SpectrumUnassignable)
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy,
                        _exceeds, _fixed_point, _norm_once, _preimage,
                        _rank_cut, _require_invariant, _svd, as_matrix,
                        canonical_projection, contains, image, intersect,
                        kernel, orth_complement, subspace_sum, two_norm,
                        unobservable_subspace)

# Eigenvalues within this band of the boundary are classified conservatively
# ("bad"): a raw comparison would flip on rounding noise when zeros sit
# exactly on the boundary.
EIG_TIE_TOL = 1e-8


@dataclass(frozen=True)
class SpectralPartition:
    """Spectral specification of one design.

    An eigenvalue is "good" iff its real part is strictly below ``alpha``;
    boundary ties count as bad.  Assignable quotient modes are placed at
    ``targets``: ``pole_targets`` first (each left of ``alpha``), then further
    real targets 0.5 apart that clear the boundary by more than ``margin``
    (>= 0).  ``safety`` (>= 1) scales the networked observer's consensus
    gains above their bounds.
    """

    alpha: float = 0.0
    margin: float = 0.5
    pole_targets: tuple | None = None
    safety: float = 1.1

    def __post_init__(self):
        if self.pole_targets is not None:
            object.__setattr__(self, "pole_targets",
                               tuple(float(v) for v in self.pole_targets))
        if not all(map(math.isfinite, (self.alpha, self.margin, self.safety,
                                       *(self.pole_targets or ())))):
            raise ValueError("alpha, margin, safety and pole_targets must be finite")
        if self.safety < 1:
            raise ValueError("safety must be >= 1")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if any(t >= self.alpha for t in self.pole_targets or ()):
            raise ValueError(f"pole_targets must lie left of alpha = {self.alpha}, "
                             f"got {self.pole_targets}")

    def is_bad(self, re: float, scale: float = 1.0) -> bool:
        return re >= self.alpha - EIG_TIE_TOL * max(1.0, scale)

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
    a_scale = two_norm(A)
    history = _fixed_point(
        lambda W: subspace_sum(Bbar, image(A @ intersect(W, KC, tol).basis, tol,
                                           scale_floor=a_scale), tol),
        Bbar, n + 1)
    return (history[-1], history) if return_history else history[-1]


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
    a_norm = _norm_once(A)
    history = _fixed_point(
        lambda S: subspace_sum(W_star, intersect(_preimage(A, S, tol, a_norm), KC,
                                                 tol), tol),
        Subspace.full(n, tol.rel_rank_tol), n + 1)
    return (history[-1], history) if return_history else history[-1]


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

    Works in the chart ``canonical_projection(W_star)``; eigenvalues the
    partition counts as bad lead the ordered real Schur form and span the
    bad subspace.  Returns ``(X_good, X_bad)`` with dimensions summing to
    dim S* - dim W*.
    """
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    L0 = as_matrix(L0, "L0")
    P = canonical_projection(W_star, tol)
    AL = A + L0 @ C
    al_norm = _norm_once(AL)
    _require_invariant(P, AL, W_star, al_norm, tol, "L0 is not a friend of W*")
    _require_invariant(canonical_projection(S_star, tol), AL, S_star, al_norm,
                       tol, "L0 is not a friend of S*")
    q = P.shape[0]
    # S* ∩ W*^perp maps isometrically onto the quotient image of S*.
    Sq = P @ intersect(S_star, orth_complement(W_star, tol), tol).basis
    d = Sq.shape[1]
    if d == 0:
        z = Subspace.zero(q, tol.rel_rank_tol)
        return z, z
    Abar = P @ AL @ P.T
    off = float(np.linalg.norm(Abar @ Sq - Sq @ (Sq.T @ Abar @ Sq)))
    if _exceeds(off, 1e3 * tol.abs_residual_tol, al_norm):
        raise InvarianceViolated(
            f"quotient image of S* is not invariant (residual {off:.2e})")
    R = Sq.T @ Abar @ Sq
    scale = two_norm(R)
    bad = lambda re, im: part.is_bad(re, scale)
    schur = _ordered_schur()
    _, Zb, nb = schur(R, bad)
    _, Zg, ng = schur(R, lambda re, im: not bad(re, im))
    if nb + ng != d:
        raise InvarianceViolated("spectral split lost eigenvalues at the boundary")
    Xb = image(Sq @ Zb[:, :nb], tol) if nb else Subspace.zero(q, tol.rel_rank_tol)
    Xg = image(Sq @ Zg[:, :ng], tol) if ng else Subspace.zero(q, tol.rel_rank_tol)
    return Xg, Xb


def compute_wg_star(W_star: Subspace, Xbar_b: Subspace,
                    tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Inverse image of the bad quotient subspace under the chart of X/W*.

    ``Xbar_b`` lives in the chart ``canonical_projection(W_star)``.  The
    result contains W* and has dimension dim W* + dim Xbar_b.
    """
    if Xbar_b.ambient_dim != W_star.ambient_dim - W_star.dim:
        raise DimensionMismatch("Xbar_b must live in the chart of X/W*")
    # The chart has orthonormal rows: its 2-norm is 1.
    Wg = _preimage(canonical_projection(W_star, tol), Xbar_b, tol, lambda: 1.0)
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


class _FullQR:
    """``scipy.linalg.qr(a, mode="full")`` of float arrays, bit for bit.

    Calls LAPACK dgeqrf and dorgqr through numpy's ``lapack_lite`` as scipy
    calls them, with the optimal workspace sizes scipy's ``safecall``
    queries.  A C-ordered copy of ``a.T`` is ``a`` in the Fortran layout
    LAPACK expects, and Q comes back as the transpose of a C-ordered array:
    Fortran-ordered, as scipy returns it.  A workspace depends only on the
    routine and the shape of ``a``, so each is queried and allocated once and
    kept; one placement owns one instance.  Skips scipy's per-call dispatch
    and checks: the caller passes finite, non-empty float arrays.
    """

    def __init__(self):
        self._geqrf, self._orgqr = lapack_lite.dgeqrf, lapack_lite.dorgqr
        self._buffers = {}

    def _allocate(self, M, N):
        """tau and the two work arrays of an M x N factorization, kept."""
        tau, query = np.empty(min(M, N)), np.empty(1)
        self._geqrf(M, N, np.empty((N, M)), M, tau, query, -1, 0)
        work_qr = np.empty(int(query[0]))
        self._orgqr(M, M, tau.size, np.empty((M, M)), M, tau, query, -1, 0)
        buffers = self._buffers[M, N] = (tau, work_qr, np.empty(int(query[0])))
        return buffers

    def __call__(self, a, with_r: bool = False):
        """Q of ``a``, and R too when ``with_r``."""
        M, N = a.shape
        tau, work_qr, work_q = self._buffers.get(a.shape) or self._allocate(M, N)
        qr = a.T.copy()  # qr.T is a, Fortran-ordered
        info = self._geqrf(M, N, qr, M, tau, work_qr, work_qr.size, 0)["info"]
        R = np.triu(qr.T) if with_r else None  # before dorgqr overwrites qr
        if M < N:
            Q = qr[:M]
        else:  # pad the reflectors to M x M; dorgqr forms all of Q in place
            Q = np.empty((M, M))
            Q[:N] = qr
        info = min(info, self._orgqr(M, M, tau.size, Q, M, tau, work_q,
                                     work_q.size, 0)["info"])
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgeqrf/dorgqr")
        return (Q.T, R) if with_r else Q.T


_INT = ctypes.c_int64
_SELECT = ctypes.CFUNCTYPE(_INT, ctypes.POINTER(ctypes.c_double),
                           ctypes.POINTER(ctypes.c_double))


class _OrderedSchur:
    """``scipy.linalg.schur(a, output="real", sort=select)`` of float arrays,
    bit for bit.

    Calls LAPACK dgees, which reorders the form with dtrsen, from the ILP64
    OpenBLAS numpy links, through ctypes in the gfortran ABI: INTEGER and
    LOGICAL are 64-bit, and the lengths of the two CHARACTER arguments trail
    as ``size_t``.  A C-ordered copy of ``a.T`` is ``a`` in Fortran layout,
    and T and Z come back as transposes of C-ordered arrays: Fortran-ordered,
    as scipy returns them.  The workspace size is scipy's query (``LWORK =
    -1``, unsorted); the workspace, the eigenvalue arrays and ``BWORK``
    depend only on the order, so each order's are queried and allocated once
    and kept.  ``select(re, im)`` answers through one C callback made at
    construction, so an instance is not reentrant.  Skips scipy's finiteness
    check and its empty-matrix case: the caller passes a finite, non-empty
    square array.
    """

    def __init__(self, dgees):
        self._dgees = dgees
        self._select = None
        self._callback = _SELECT(lambda wr, wi: self._select(wr[0], wi[0]))
        self._sdim, self._info = _INT(), _INT()
        self._buffers = {}

    def _allocate(self, n: int):
        """The kept arrays of order n, with N, LWORK and their addresses."""
        N, query = _INT(n), np.empty(1)
        wr, wi, bwork = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64)
        self._dgees(b"V", b"N", self._callback, N, np.empty((n, n)).ctypes.data, N,
                    self._sdim, wr.ctypes.data, wi.ctypes.data,
                    np.empty((n, n)).ctypes.data, N, query.ctypes.data, _INT(-1),
                    bwork.ctypes.data, self._info, 1, 1)
        kept = (wr, wi, np.empty(int(query[0])), bwork)
        buffers = self._buffers[n] = (kept, N, _INT(kept[2].size),
                                      *(x.ctypes.data for x in kept))
        return buffers

    def __call__(self, a, select):
        """``(T, Z, sdim)`` with the eigenvalues ``select`` accepts leading."""
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("expected square matrix")
        _, N, lwork, wr, wi, work, bwork = self._buffers.get(n) or self._allocate(n)
        t = np.array(a.T, dtype=float, order="C")  # t.T is a, Fortran-ordered
        vs = np.empty((n, n))
        self._select = select
        self._dgees(b"V", b"S", self._callback, N, t.ctypes.data, N, self._sdim,
                    wr, wi, vs.ctypes.data, N, work, lwork, bwork, self._info, 1, 1)
        info = self._info.value
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gees")
        if info == n + 1:
            raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
        if info == n + 2:
            raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
        if info > 0:
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
        return t.T, vs.T, self._sdim.value


def _numpy_dgees():
    """numpy's LAPACK dgees as a ctypes function, or None.

    numpy's wheels link the ILP64 scipy-openblas, which exports
    ``scipy_dgees_64_``; lapack_lite's handle resolves it through its own
    dependency.  Other builds (Accelerate, MKL, a system LAPACK) lack it.
    """
    try:
        dgees = ctypes.CDLL(lapack_lite.__file__).scipy_dgees_64_
    except (OSError, AttributeError):
        return None
    ptr, ref = ctypes.c_void_p, ctypes.POINTER(_INT)
    # JOBVS, SORT, SELECT, N, A, LDA, SDIM, WR, WI, VS, LDVS, WORK, LWORK,
    # BWORK, INFO, then the lengths of JOBVS and SORT.
    dgees.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _SELECT, ref, ptr, ref,
                      ref, ptr, ptr, ptr, ref, ptr, ref, ptr, ref,
                      ctypes.c_size_t, ctypes.c_size_t]
    dgees.restype = None
    return dgees


def _scipy_schur(a, select):
    """The ordered real Schur form where numpy's LAPACK exports no dgees."""
    import scipy.linalg as sla
    return sla.schur(a, output="real", sort=select)


@cache
def _ordered_schur():
    """``schur(a, select) -> (T, Z, sdim)``: numpy's dgees, else scipy's.

    Resolved on the first nonempty spectral split and kept for the process,
    with its workspaces.
    """
    dgees = _numpy_dgees()
    return _scipy_schur if dgees is None else _OrderedSchur(dgees)


def _yt_real_update(ker_pole, Q, X, i, j):
    """Tits-Yang update of the real column pair (i, j) of X (YT section 6.1)."""
    # u, v span the complement of the other n - 2 columns of X.
    u = Q[:, -2, np.newaxis]
    v = Q[:, -1, np.newaxis]
    m = np.dot(np.dot(ker_pole[i].T, np.dot(u, v.T) - np.dot(v, u.T)),
               ker_pole[j])
    um, sm, vm = _svd(m)
    mu1, mu2 = um.T[:2, :, np.newaxis]
    nu1, nu2 = vm[:2, :, np.newaxis]
    x_ij = np.vstack((X[:, i, np.newaxis], X[:, j, np.newaxis]))
    # scipy's two np.allclose tests, written out (the operands are finite).
    s0, s1 = float(sm[0]), float(sm[1])
    if not abs(s0 - s1) <= 1e-8 + 1e-5 * abs(s1):
        ker_mu_nu = np.vstack((np.dot(ker_pole[i], mu1), np.dot(ker_pole[j], nu1)))
    else:
        ker_ij = np.vstack((
            np.hstack((ker_pole[i], np.zeros(ker_pole[i].shape))),
            np.hstack((np.zeros(ker_pole[j].shape), ker_pole[j]))))
        ker_mu_nu = np.dot(ker_ij, np.vstack((np.hstack((mu1, mu2)),
                                              np.hstack((nu1, nu2)))))
    x_ij = np.dot(np.dot(ker_mu_nu, ker_mu_nu.T), x_ij)
    n = X.shape[0]
    if np.abs(x_ij).max() > 1e-8:
        x_ij = np.sqrt(2) * x_ij / np.linalg.norm(x_ij)
        X[:, i] = x_ij[:n, 0]
        X[:, j] = x_ij[n:, 0]
    else:
        # x_ij is orthogonal to span(ker_mu_nu): restart from that span.
        X[:, i] = ker_mu_nu[:n, 0]
        X[:, j] = ker_mu_nu[n:, 0]


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
    qr = _FullQR()
    u, z = qr(np.asarray_chkfinite(B), with_r=True)
    u0, u1, z = u[:, :rank], u[:, rank:], z[:rank, :]
    ker_pole, cols = [], []
    for p in poles:
        pole_space = np.dot(u1.T, A - p * np.eye(n)).T
        Q = qr(pole_space)
        ker = Q[:, pole_space.shape[1]:]
        x = np.sum(ker, axis=1)[:, np.newaxis]
        ker_pole.append(ker)
        cols.append(x / np.linalg.norm(x))
    X = np.hstack(cols)
    if rank > 1:  # with one input X is already unique up to scaling
        sweep = [(i, j, np.delete(np.arange(n), (i, j)))
                 for i, j in _yt_update_order(n)]
        floor = np.sqrt(np.spacing(1))
        for _ in range(_YT_MAXITER):
            det_before = np.abs(np.linalg.det(X))
            for i, j, others in sweep:
                _yt_real_update(ker_pole, qr(X[:, others]), X, i, j)
            det = max(floor, np.abs(np.linalg.det(X)))
            if np.abs((det - det_before) / det) < _YT_RTOL and det > floor:
                break
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
    c_scale = two_norm(C)
    unobs = unobservable_subspace(Cbar, Abar0, tol, meas_scale=c_scale)
    U2 = unobs.basis
    U1 = orth_complement(unobs, tol).basis
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
    eigs = np.linalg.eigvals(Abar)
    worst = float(eigs.real.max())
    if worst >= part.alpha - 1e-9:
        raise SpectrumUnassignable(
            f"quotient spectrum cannot be pushed below alpha={part.alpha} "
            f"(max Re = {worst:.3e})", eigenvalues=eigs)
    al_norm = _norm_once(AL)
    for W in (W_g_star, W_star):
        _require_invariant(canonical_projection(W, tol), AL, W, al_norm, tol,
                           "stabilizing friend broke an invariance")
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
    Xbar_g: Subspace
    Xbar_b: Subspace
    W_g_star: Subspace
    V: np.ndarray
    P_Wstar: np.ndarray
    P_Wg: np.ndarray

    @property
    def n(self) -> int:
        return self.W_star.ambient_dim


def decompose(A, C, B_unknown, part: SpectralPartition = SpectralPartition(),
              tol: TolerancePolicy = DEFAULT_POLICY) -> GeometricDecomposition:
    """Run the full geometric pipeline for the triple (C, A, Im B_unknown)."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    Bbar = B_unknown if isinstance(B_unknown, Subspace) else image(
        as_matrix(B_unknown, "B_unknown"), tol)
    W = infimal_conditioned_invariant(A, C, Bbar, tol)
    S = infimal_unobservability_subspace(A, C, W, tol)
    L0 = common_friend(A, C, [W, S], tol)
    Xg_raw, Xb_raw = spectral_split(A, C, W, S, L0, part, tol)
    Wg = compute_wg_star(W, Xb_raw, tol)
    P_raw = canonical_projection(W, tol)
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
        W_star=W, S_star=S, Xbar_g=relabel(Xg_raw), Xbar_b=relabel(Xb_raw),
        W_g_star=Wg, V=V, P_Wstar=P_W, P_Wg=P_Wg)
