"""Tolerance-aware numerical subspace algebra.

Every subspace is stored as an orthonormal basis obtained from an SVD, with
ranks cut at ``sigma_max * max_dim * rel_rank_tol``.  Only the operations that
decide a rank take a tolerance: an orthonormal basis has rank its dimension,
so complements and quotient charts are exact.  Degenerate subspaces
(dimension 0 or full) are ordinary values.  All operations are pure and
deterministic: identical inputs give bit-identical outputs.

Every scaled decision (a rank floor, a residual limit) takes the matrix
itself and reads its 2-norm from it, only on the path where the decision
needs that scale.

``unobservable_subspace`` is computed through its dual, as the complement
of the observable subspace, which grows by one image per step:
``(Ker C ∩ A^{-1} N)^perp = Im C^T + A^T N^perp``.

The module also holds every LAPACK call that geouio makes past numpy's
wrappers: ``_svd``, ``_pinv``, ``_eigvals``, ``_lstsq`` (the ``dgelsd``
gufunc behind ``numpy.linalg.lstsq``) and ``_matrix_sign`` call numpy's own
gufuncs, on every numpy build, and ``_fro`` and ``_kron`` take the
Frobenius norm and the Kronecker product by numpy's own formulas.  Each
gives exactly what numpy's wrapper gives.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch, InvarianceViolated

DEFAULT_REL_RANK_TOL = 1e-10
DEFAULT_ABS_RESIDUAL_TOL = 1e-9


class TolerancePolicy:
    """Numerical regime shared by every rank and residual decision.

    rel_rank_tol
        Relative singular-value cutoff for rank decisions, in (0, 1).
    abs_residual_tol
        Absolute bound under which residuals count as zero.
    """

    __slots__ = ("rel_rank_tol", "abs_residual_tol")

    def __init__(self, rel_rank_tol: float = DEFAULT_REL_RANK_TOL,
                 abs_residual_tol: float = DEFAULT_ABS_RESIDUAL_TOL):
        if not (0 < rel_rank_tol < 1 and 0 < abs_residual_tol < np.inf):
            raise ValueError("tolerances must be positive and finite, rel_rank_tol < 1")
        self.rel_rank_tol = rel_rank_tol
        self.abs_residual_tol = abs_residual_tol


DEFAULT_POLICY = TolerancePolicy()


# ---------------------------------------------------------------------------
# Decision-margin monitoring.
#
# Randomized verification needs to know how close any rank decision (or
# spectral-boundary classification) came to flipping.  Monitors form a stack
# so nested batteries stay independent.

class _MonitorState(threading.local):
    def __init__(self):
        self.stack = []


_monitor_state = _MonitorState()


class MarginRecorder:
    """Collects the flip distance of every numerical decision made under it,
    as a context manager: ``with margin_monitor() as rec: ...``."""

    def __init__(self):
        self.margins: list[float] = []

    def __enter__(self):
        _monitor_state.stack.append(self)
        return self

    def __exit__(self, *exc):
        _monitor_state.stack.pop()

    def note(self, margin: float):
        self.margins.append(float(margin))

    @property
    def min_margin(self) -> float:
        return min(self.margins) if self.margins else np.inf


# Record rank-gap and eigenvalue-boundary margins of enclosed operations.
margin_monitor = MarginRecorder


def note_margin(margin: float):
    for rec in _monitor_state.stack:
        rec.note(margin)


# ---------------------------------------------------------------------------
# Matrix plumbing.  Linear maps are plain float ndarrays.


def as_matrix(M, name="matrix") -> np.ndarray:
    if not (type(M) is np.ndarray and M.ndim == 2 and M.dtype == np.float64):
        M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise DimensionMismatch(f"{name} has non-finite entries")
    return M


def _block_diag(*blocks) -> np.ndarray:
    """The blocks along the diagonal, zeros elsewhere.

    A block with no columns still takes its rows, and one with no rows its
    columns, as scipy's ``block_diag`` does.
    """
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.kron(a, b)`` of two 2-D arrays, bit for bit: every entry of
    ``a`` times every entry of ``b`` in one broadcast product, as numpy forms
    it, without numpy's per-call wrapping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


# numpy.linalg.svd's gufuncs: full factors, reduced factors, values only.
_SVD_GUFUNCS = (_umath_linalg.svd_f, _umath_linalg.svd_s, _umath_linalg.svd)


def _svd(M: np.ndarray, full: bool = True, uv: bool = True):
    """``numpy.linalg.svd(M, full_matrices=full, compute_uv=uv)`` of a 2-D
    float64 or complex128 array, bit for bit: the same LAPACK gufunc with the
    same signature, without numpy's per-call dispatch and ``errstate``.  A
    failed SVD, which the gufunc fills with NaN, raises ``LinAlgError``."""
    cplx = M.dtype.kind == "c"
    if uv:
        out = _SVD_GUFUNCS[0 if full else 1](M, signature="D->DdD" if cplx else "d->ddd")
        s = out[1]
    else:
        out = s = _SVD_GUFUNCS[2](M, signature="D->d" if cplx else "d->d")
    if math.isnan(sum(s.tolist())):  # cheaper than s.sum() on small arrays
        raise LinAlgError("SVD did not converge")
    return out


def _eigvals(a: np.ndarray) -> np.ndarray:
    """``numpy.linalg.eigvals(a)`` of a real square float64 array, bit for
    bit: the same LAPACK gufunc (``d->D``) without numpy's per-call
    dispatch and ``errstate``.  Real when every imaginary part is 0, complex
    otherwise.  Raises ``LinAlgError`` for a non-finite ``a`` and for a
    failed eigensolve, which the gufunc fills with NaN."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w = _umath_linalg.eigvals(a, signature="d->D")
    # a sum that is not NaN proves it of every entry; an exact test runs
    # only past it (inf - inf)
    if cmath.isnan(sum(w.tolist())) and np.isnan(w).any():
        raise LinAlgError("Eigenvalues did not converge")
    return w if w.imag.any() else w.real


def _pinv(M: np.ndarray) -> np.ndarray:
    """``numpy.linalg.pinv(M)`` of a real 2-D float64 array, bit for bit,
    with numpy 2's steps on ``_svd``'s reduced factors: singular values up
    to ``1e-15 * sigma_max`` count as zero, and the result is vt^T (s^-1 u^T)."""
    if not M.size:
        return np.zeros(M.shape[::-1])
    u, s, vt = _svd(M, full=False)
    large = s > 1e-15 * s.max()
    s = np.divide(1.0, s, where=large, out=s)
    s[~large] = 0.0
    return vt.T @ (s[:, None] * u.T)


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.linalg.lstsq(a, b, rcond=None)[0]`` of a real 2-D float64
    ``a`` with at least one row and a 1-D or 2-D float64 ``b`` with at least
    one column, bit for bit: the same LAPACK gufunc with numpy's ``rcond =
    eps * max(m, n)`` and its floating-point error handling, without the
    rest of numpy's per-call wrapping.  A failed solve raises numpy's
    ``LinAlgError``."""
    rcond = sys.float_info.epsilon * max(a.shape)
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        if b.ndim == 1:
            return _umath_linalg.lstsq(a, b[:, None], rcond,
                                       signature="ddd->ddid")[0][:, 0]
        return _umath_linalg.lstsq(a, b, rcond, signature="ddd->ddid")[0]


def _fro(M: np.ndarray) -> float:
    """Frobenius norm of a float64 array, equal to ``numpy.linalg.norm(M)``:
    numpy's own ``sqrt(x . x)`` of ``M.ravel(order="K")``; 0.0 if M is
    empty."""
    x = M.ravel(order="K")
    return math.sqrt(x.dot(x))


def two_norm(M: np.ndarray) -> float:
    """||M||_2, equal to ``numpy.linalg.norm(M, 2)``; 0.0 if M is empty."""
    return float(_svd(M, uv=False)[0]) if M.size else 0.0


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of Ker M by the rule of scipy's ``null_space``.

    A full SVD; singular values up to ``sigma_max * eps * max(M.shape)``
    count as zero.  Independent of the policy's cutoff, so checks can use it
    as an oracle for ``kernel`` and ``orth_complement``.
    """
    _, s, vh = _svd(M)
    cut = np.amax(s, initial=0.0) * np.finfo(float).eps * max(M.shape)
    return vh[np.sum(s > cut, dtype=int):].T


def _rank_cut(s: np.ndarray, shape, rel_tol: float, scale_floor: float = 0.0) -> int:
    """Number of singular values kept, recording the flip margin.

    The cutoff is ``max(sigma_max, scale_floor) * max(shape) * rel_tol``.
    ``scale_floor`` guards products of operators: a numerically-zero product
    must not resurface as a normalized garbage direction.
    """
    sv = s.tolist()
    scale = max(sv[0] if sv else 0.0, scale_floor)
    if scale == 0.0:  # an all-zero matrix: a cut that cannot flip
        return 0
    threshold = scale * max(shape) * rel_tol
    rank = sum(1 for v in sv if v > threshold)
    # Flip margin of the decision: the spectral gap across the cut.  Exactly
    # (or numerically) zero singular values below the cut are stable drops.
    kept_min = sv[rank - 1] if rank > 0 else math.inf
    dropped_max = sv[rank] if rank < len(sv) else 0.0
    note_margin(kept_min - dropped_max)
    return rank


def monitored_rank(M, tol: TolerancePolicy = DEFAULT_POLICY,
                   scale_floor: float = 0.0) -> int:
    """Numerical rank with the shared cutoff rule (works for complex input)."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    if not np.isfinite(M).all():
        raise DimensionMismatch("matrix has non-finite entries")
    return _rank_cut(_svd(M, uv=False), M.shape, tol.rel_rank_tol, scale_floor)


# ---------------------------------------------------------------------------
# The matrix sign function.


def _matrix_sign(Z: np.ndarray) -> np.ndarray:
    """sign(Z) of a real square float64 array: +1 on the invariant subspace
    of Z's eigenvalues right of the imaginary axis, -1 on that of those left.

    Newton's iteration ``Z <- (cZ + (cZ)^-1) / 2`` (Roberts, Int. J. Control,
    1980) on numpy's LAPACK gufuncs, as ``_svd`` calls them, with ``c =
    |det Z|^(-1/n)`` while a step moves Z by more than 1e-2 of its largest
    entry, then ``c = 1``.  Stops once a step moves Z by at most
    ``sqrt(n * eps)``, as the next, quadratically smaller step would be
    rounding, or, below 1e-6, by more than half the step before (the
    rounding floor).  Raises InvarianceViolated for a singular iterate or
    after 100 steps.
    """
    n = Z.shape[0]
    floor = n * np.finfo(float).eps
    move = np.inf
    for _ in range(100):
        sign, logdet = _umath_linalg.slogdet(Z, signature="d->dd")
        if sign == 0.0:
            raise InvarianceViolated("matrix sign of a singular matrix")
        c = math.exp(-logdet / n) if move > 1e-2 else 1.0
        cZ = c * Z
        # (cZ)^-1 as Z^-1 / c: Z's LU has just shown no zero pivot, cZ's might
        Z = 0.5 * (cZ + _umath_linalg.inv(Z, signature="d->d") / c)
        last, move = move, abs(Z - cZ).max() / abs(Z).max()
        if move * move <= floor or (move < 1e-6 and 2.0 * move > last):
            return Z
    raise InvarianceViolated("matrix sign did not converge in 100 Newton steps")


# ---------------------------------------------------------------------------
# The subspace value type.


class Subspace:
    """A linear subspace of R^n held as an orthonormal basis.

    ``basis`` is ``ambient_dim x k`` with orthonormal columns; the zero
    subspace has ``k == 0`` (never a zero column).
    """

    __slots__ = ("ambient_dim", "basis", "_perp")

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        b = (basis if type(basis) is np.ndarray and basis.dtype == np.float64
             else np.asarray(basis, dtype=float))
        if b.ndim != 2 or b.shape[0] != ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} inconsistent with ambient dim {ambient_dim}")
        if b.shape[1] > ambient_dim:
            raise DimensionMismatch("subspace dimension exceeds ambient dimension")
        k = b.shape[1]
        if k:
            gram = b.T @ b
            gram.reshape(-1)[::k + 1] -= 1.0
            gram_err = np.abs(gram, out=gram).max()
            if not gram_err <= 1e-12:  # a NaN entry fails it too
                raise DimensionMismatch(f"basis not orthonormal (error {gram_err:.2e})")
        b.setflags(write=False)
        self.ambient_dim = ambient_dim
        self.basis = b
        self._perp = None  # orth_complement(self), once taken

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _check_same_ambient(V: Subspace, W: Subspace):
    if V.ambient_dim != W.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {V.ambient_dim} vs {W.ambient_dim}")


# ---------------------------------------------------------------------------
# Operations.


def image(M, tol: TolerancePolicy = DEFAULT_POLICY, scale_floor: float = 0.0) -> Subspace:
    """Numerical column space of ``M`` as a Subspace."""
    M = as_matrix(M)
    n = M.shape[0]
    if M.size == 0:
        return Subspace.zero(n)
    U, s, _ = _svd(M, full=False)
    rank = _rank_cut(s, M.shape, tol.rel_rank_tol, scale_floor)
    return Subspace(n, U[:, :rank])


def kernel(M, tol: TolerancePolicy = DEFAULT_POLICY, scale_floor: float = 0.0) -> Subspace:
    """Numerical null space of ``M``; dimension is ``n - rank(M)``."""
    M = as_matrix(M)
    n = M.shape[1]
    if M.size == 0:
        return Subspace.full(n)
    _, s, Vt = _svd(M)
    rank = _rank_cut(s, M.shape, tol.rel_rank_tol, scale_floor)
    return Subspace(n, Vt[rank:].T)


def subspace_sum(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """V + W, the span of both bases."""
    _check_same_ambient(V, W)
    if V.is_zero:
        return W
    if W.is_zero:
        return V
    return image(np.concatenate([V.basis, W.basis], axis=1), tol)


def orth_complement(V: Subspace) -> Subspace:
    """Orthogonal complement; dim(V) + dim(V^perp) = n.

    Exact, so it takes no tolerance and makes no rank decision: V's basis is
    orthonormal, so its transpose has rank dim V, and the complement is the
    trailing rows of that transpose's full SVD.  Computed once and kept on V.
    """
    if V._perp is None:
        n, k = V.ambient_dim, V.dim
        # a degenerate subspace's complement is the other one, no SVD
        V._perp = Subspace(n, _svd(V.basis.T)[2][k:].T if 0 < k < n else
                           np.eye(n)[:, k:])
    return V._perp


def intersect(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """V ∩ W, computed through complement duality for conditioning."""
    _check_same_ambient(V, W)
    if V.is_full:
        return W
    if W.is_full:
        return V
    return orth_complement(
        subspace_sum(orth_complement(V), orth_complement(W), tol))


def preimage(M, S: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """{x : Mx ∈ S}, the inverse image of S under the map M."""
    M = as_matrix(M)
    if M.shape[0] != S.ambient_dim:
        raise DimensionMismatch(
            f"map codomain {M.shape[0]} does not match subspace ambient {S.ambient_dim}")
    comp = orth_complement(S)
    if comp.is_zero:
        return Subspace.full(M.shape[1])
    # Scale floor ||M||: a product that vanishes relative to M maps into S.
    return kernel(comp.basis.T @ M, tol, scale_floor=two_norm(M))


def canonical_projection(W: Subspace) -> np.ndarray:
    """Chart of the quotient X/W: orthonormal rows spanning W^perp, kernel W."""
    return orth_complement(W).basis.T


def induced_map(A, W: Subspace, P, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Matrix of the map induced by ``A`` on the quotient chart ``P``.

    Requires A·W ⊆ W; the result ``Abar`` satisfies ``Abar @ P == P @ A`` up
    to the residual tolerance.  Raises InvarianceViolated otherwise.
    """
    A = as_matrix(A, "A")
    P = as_matrix(P, "P")
    _require_invariant(P, A, W, tol, "subspace is not invariant under the map")
    return P @ A @ P.T


def _exceeds(resid: float, limit: float, M: np.ndarray) -> bool:
    """``resid > limit * max(1, ||M||_2)``.  Up to ``limit`` the test passes
    for any scale, so ||M||_2 is taken only past it."""
    return resid > limit and resid > limit * max(1.0, two_norm(M))


def _require_invariant(P, M, W: Subspace, tol: TolerancePolicy, what: str):
    """Raise InvarianceViolated naming ``what`` unless ||P M W|| is within
    ``abs_residual_tol * max(1, ||M||_2)``; P charts X/W."""
    if W.dim:
        resid = _fro(P @ M @ W.basis)
        if _exceeds(resid, tol.abs_residual_tol, M):
            raise InvarianceViolated(f"{what} (residual {resid:.2e})")


def contains(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff W ⊆ V within the residual tolerance."""
    _check_same_ambient(V, W)
    if W.is_zero:
        return True
    resid = W.basis - V.basis @ (V.basis.T @ W.basis)
    return bool(np.linalg.norm(resid, axis=0).max() <= tol.abs_residual_tol)


def subspaces_equal(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    return contains(V, W, tol) and contains(W, V, tol)


def unobservable_subspace(C, A, tol: TolerancePolicy = DEFAULT_POLICY,
                          meas_scale: float = 0.0) -> Subspace:
    """Largest A-invariant subspace inside Ker C, as the complement of the
    observable subspace.

    The observable subspace is the fixed point of O <- O_0 + A^T O from
    O_0 = Im C^T, the dual of N <- Ker C ∩ A^{-1} N, since (Ker C ∩ A^{-1}
    N)^perp = Im C^T + A^T N^perp: one image per step where the primal step
    takes a preimage and an intersection.  ``meas_scale`` floors the rank
    decision of Im C^T when C is itself a product that may be numerically
    zero; ||A||_2 floors that of each A^T O, and is taken only when O_0 is
    neither zero nor the whole space.
    """
    C = as_matrix(C, "C")
    A = as_matrix(A, "A")
    n = A.shape[0]
    if C.shape[1] != n:
        raise DimensionMismatch(f"C has {C.shape[1]} columns, A is {n} x {n}")
    O0 = image(C.T, tol, scale_floor=meas_scale)
    if O0.is_zero:
        return Subspace.full(n)
    obs = O0
    if not O0.is_full:
        At, a_scale = A.T, two_norm(A)
        # a full O is its own successor: the chain stops without a step
        obs = _fixed_point(lambda O: O if O.is_full else subspace_sum(
            O0, image(At @ O.basis, tol, scale_floor=a_scale), tol), O0, n)[-1]
    return orth_complement(obs)


def _fixed_point(step, start: Subspace, max_steps: int) -> list:
    """The chain start, step(start), ... up to the first element whose
    dimension equals its predecessor's, or of max_steps steps at most."""
    chain = [start]
    for _ in range(max_steps):
        chain.append(step(chain[-1]))
        if chain[-1].dim == chain[-2].dim:
            break
    return chain
