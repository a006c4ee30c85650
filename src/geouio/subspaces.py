"""Tolerance-aware numerical subspace algebra.

Every subspace is stored as an orthonormal basis obtained from an SVD, with
ranks cut at ``sigma_max * max_dim * rel_rank_tol``.  Degenerate subspaces
(dimension 0 or full) are ordinary values.  All operations are pure and
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch, InvarianceViolated

DEFAULT_REL_RANK_TOL = 1e-10
DEFAULT_ABS_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical regime shared by every rank and residual decision.

    rel_rank_tol
        Relative singular-value cutoff for rank decisions, in (0, 1).
    abs_residual_tol
        Absolute bound under which residuals count as zero.
    """

    rel_rank_tol: float = DEFAULT_REL_RANK_TOL
    abs_residual_tol: float = DEFAULT_ABS_RESIDUAL_TOL

    def __post_init__(self):
        if not (0 < self.rel_rank_tol < 1 and 0 < self.abs_residual_tol < np.inf):
            raise ValueError("tolerances must be positive and finite, rel_rank_tol < 1")


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
    columns, as in ``scipy.linalg.block_diag``.
    """
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


# The gufuncs behind numpy.linalg.svd: full and reduced factors, singular
# values only.  numpy < 2 names them differently; _svd falls back there.
_SVD_GUFUNCS = ((_umath_linalg.svd_f, _umath_linalg.svd_s, _umath_linalg.svd)
                if hasattr(_umath_linalg, "svd_f") else None)


def _svd(M: np.ndarray, full: bool = True, uv: bool = True):
    """``numpy.linalg.svd(M, full_matrices=full, compute_uv=uv)`` of a 2-D
    float64 or complex128 array, bit for bit: the same LAPACK gufunc with the
    same signature, without numpy's per-call dispatch and ``errstate``.  A
    failed SVD, which the gufunc fills with NaN, raises ``LinAlgError``."""
    if _SVD_GUFUNCS is None:
        return np.linalg.svd(M, full_matrices=full, compute_uv=uv)
    cplx = M.dtype.kind == "c"
    if uv:
        out = _SVD_GUFUNCS[0 if full else 1](M, signature="D->DdD" if cplx else "d->ddd")
        s = out[1]
    else:
        out = s = _SVD_GUFUNCS[2](M, signature="D->d" if cplx else "d->d")
    if math.isnan(s.sum()):
        raise LinAlgError("SVD did not converge")
    return out


def two_norm(M: np.ndarray) -> float:
    """||M||_2, equal to ``numpy.linalg.norm(M, 2)``; 0.0 if M is empty."""
    return float(_svd(M, uv=False)[0]) if M.size else 0.0


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of Ker M by ``scipy.linalg.null_space``'s rule.

    A full SVD; singular values up to ``sigma_max * eps * max(M.shape)``
    count as zero.  Independent of the policy's cutoff, so checks can use it
    as an oracle for ``kernel`` and ``orth_complement``.
    """
    _, s, vh = _svd(M)
    cut = np.amax(s, initial=0.0) * np.finfo(float).eps * max(M.shape)
    return vh[np.sum(s > cut, dtype=int):].T


def _rank_cut(s: np.ndarray, shape, rel_tol: float, scale_floor: float = 0.0):
    """Number of singular values kept, recording the flip margin.

    The cutoff is ``max(sigma_max, scale_floor) * max(shape) * rel_tol``.
    ``scale_floor`` guards products of operators: a numerically-zero product
    must not resurface as a normalized garbage direction.
    """
    scale = max(float(s[0]) if s.size else 0.0, scale_floor)
    if scale == 0.0:
        note_margin(np.inf)
        return 0, 0.0
    threshold = scale * max(shape) * rel_tol
    rank = int(np.count_nonzero(s > threshold))
    # Flip margin of the decision: the spectral gap across the cut.  Exactly
    # (or numerically) zero singular values below the cut are stable drops.
    kept_min = float(s[rank - 1]) if rank > 0 else np.inf
    dropped_max = float(s[rank]) if rank < s.size else 0.0
    note_margin(kept_min - dropped_max)
    return rank, threshold


def monitored_rank(M, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank with the shared cutoff rule (works for complex input)."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    rank, _ = _rank_cut(_svd(M, uv=False), M.shape, tol.rel_rank_tol)
    return rank


# ---------------------------------------------------------------------------
# The subspace value type.


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as an orthonormal basis.

    ``basis`` is ``ambient_dim x k`` with orthonormal columns; the zero
    subspace has ``k == 0`` (never a zero column).  ``tol`` records the
    relative rank tolerance used to construct it.
    """

    ambient_dim: int
    basis: np.ndarray
    tol: float = DEFAULT_REL_RANK_TOL
    # orth_complement's results by rel_rank_tol, each with its rank margins.
    _perp: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} inconsistent with ambient dim {self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("subspace dimension exceeds ambient dimension")
        k = b.shape[1]
        if k:
            gram = b.T @ b
            gram.reshape(-1)[::k + 1] -= 1.0
            gram_err = np.abs(gram).max()
            if gram_err > 1e-12:
                raise DimensionMismatch(f"basis not orthonormal (error {gram_err:.2e})")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

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
    def zero(cls, n: int, tol: float = DEFAULT_REL_RANK_TOL) -> "Subspace":
        return cls(n, np.zeros((n, 0)), tol)

    @classmethod
    def full(cls, n: int, tol: float = DEFAULT_REL_RANK_TOL) -> "Subspace":
        return cls(n, np.eye(n), tol)

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
        return Subspace.zero(n, tol.rel_rank_tol)
    U, s, _ = _svd(M, full=False)
    rank, _ = _rank_cut(s, M.shape, tol.rel_rank_tol, scale_floor)
    return Subspace(n, U[:, :rank], tol.rel_rank_tol)


def kernel(M, tol: TolerancePolicy = DEFAULT_POLICY, scale_floor: float = 0.0) -> Subspace:
    """Numerical null space of ``M``; dimension is ``n - rank(M)``."""
    M = as_matrix(M)
    n = M.shape[1]
    if M.size == 0:
        return Subspace.full(n, tol.rel_rank_tol)
    _, s, Vt = _svd(M)
    rank, _ = _rank_cut(s, M.shape, tol.rel_rank_tol, scale_floor)
    return Subspace(n, Vt[rank:].T, tol.rel_rank_tol)


def subspace_sum(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """V + W, the span of both bases."""
    _check_same_ambient(V, W)
    if V.is_zero:
        return W
    if W.is_zero:
        return V
    return image(np.hstack([V.basis, W.basis]), tol)


def orth_complement(V: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthogonal complement; dim(V) + dim(V^perp) = n.

    Computed once per subspace and rank tolerance and kept on ``V``; a repeat
    call notes the first call's rank margins again for any margin monitor.
    """
    cached = V._perp.get(tol.rel_rank_tol)
    if cached is None:
        with margin_monitor() as rec:
            # a degenerate subspace's complement is the other one, no SVD
            comp = (kernel(V.basis.T, tol) if 0 < V.dim < V.ambient_dim else
                    Subspace(V.ambient_dim, np.eye(V.ambient_dim)[:, V.dim:],
                             tol.rel_rank_tol))
        cached = V._perp[tol.rel_rank_tol] = (comp, rec.margins)
    else:
        for margin in cached[1]:
            note_margin(margin)
    return cached[0]


def intersect(V: Subspace, W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """V ∩ W, computed through complement duality for conditioning."""
    _check_same_ambient(V, W)
    if V.is_full:
        return W
    if W.is_full:
        return V
    return orth_complement(
        subspace_sum(orth_complement(V, tol), orth_complement(W, tol), tol), tol)


def preimage(M, S: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """{x : Mx ∈ S}, the inverse image of S under the map M."""
    M = as_matrix(M)
    return _preimage(M, S, tol, _norm_once(M))


def _norm_once(M: np.ndarray):
    """A function returning ||M||_2 (0 if M is empty), computed on its first
    call only."""
    return cache(lambda: two_norm(M))


def _preimage(M: np.ndarray, S: Subspace, tol: TolerancePolicy,
              m_norm) -> Subspace:
    """``preimage`` with ``m_norm()`` giving ||M||_2, called only when a kernel
    is taken; a recursion over one map shares one ``_norm_once(M)``."""
    if M.shape[0] != S.ambient_dim:
        raise DimensionMismatch(
            f"map codomain {M.shape[0]} does not match subspace ambient {S.ambient_dim}")
    comp = orth_complement(S, tol)
    if comp.is_zero:
        return Subspace.full(M.shape[1], tol.rel_rank_tol)
    # Scale floor ||M||: a product that vanishes relative to M maps into S.
    return kernel(comp.basis.T @ M, tol, scale_floor=m_norm())


def canonical_projection(W: Subspace, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Chart of the quotient X/W: orthonormal rows spanning W^perp, kernel W."""
    return orth_complement(W, tol).basis.T


def induced_map(A, W: Subspace, P, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Matrix of the map induced by ``A`` on the quotient chart ``P``.

    Requires A·W ⊆ W; the result ``Abar`` satisfies ``Abar @ P == P @ A`` up
    to the residual tolerance.  Raises InvarianceViolated otherwise.
    """
    A = as_matrix(A, "A")
    P = as_matrix(P, "P")
    _require_invariant(P, A, W, _norm_once(A), tol,
                       "subspace is not invariant under the map")
    return P @ A @ P.T


def _exceeds(resid: float, limit: float, m_norm) -> bool:
    """``resid > limit * max(1, m_norm())``.  Up to ``limit`` the test passes
    for any scale, so ``m_norm`` (a ``_norm_once``) is called only past it."""
    return resid > limit and resid > limit * max(1.0, m_norm())


def _require_invariant(P, M, W: Subspace, m_norm, tol: TolerancePolicy,
                       what: str):
    """Raise InvarianceViolated naming ``what`` unless ||P M W|| is within
    ``abs_residual_tol * max(1, ||M||_2)``; P charts X/W and ``m_norm()``
    gives ||M||_2."""
    if W.dim:
        resid = float(np.linalg.norm(P @ M @ W.basis))
        if _exceeds(resid, tol.abs_residual_tol, m_norm):
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
    """Largest A-invariant subspace inside Ker C (iterated-kernel construction).

    ``meas_scale`` floors the kernel rank decision when C is itself a product
    that may be numerically zero.
    """
    C = as_matrix(C, "C")
    A = as_matrix(A, "A")
    K = kernel(C, tol, scale_floor=meas_scale)
    a_norm = _norm_once(A)
    return _fixed_point(lambda N: intersect(K, _preimage(A, N, tol, a_norm), tol),
                        K, A.shape[0])[-1]


def _fixed_point(step, start: Subspace, max_steps: int) -> list:
    """The chain start, step(start), ... up to the first element whose
    dimension equals its predecessor's, or of max_steps steps at most."""
    chain = [start]
    for _ in range(max_steps):
        chain.append(step(chain[-1]))
        if chain[-1].dim == chain[-2].dim:
            break
    return chain
