"""Invariant zeros as an oracle that shares no code with geouio.

On square plants (as many outputs as unknown inputs) the eigenvalues of the
map that ``A + L0 C`` induces on S*/W* are the invariant zeros of
``(A, B, C)`` (Basile & Marro, 1992), and a UIO exists exactly when
``rank(C B) = rank(B)`` and every zero lies left of ``alpha`` (Hautus,
1983).  The zeros are the finite generalized eigenvalues of the Rosenbrock
pencil ``[[A, B], [C, 0]]`` against ``diag(I, 0)``, from scipy's QZ.  Draws
come from the equivalence battery's generator; a draw whose least rank
margin is under ``MARGINAL_GAP`` is skipped, as the battery skips it.
"""

import numpy as np
import scipy.linalg as sla

from geouio.central import check_uio_condition
from geouio.subspaces import (canonical_projection, image, intersect, kernel,
                              margin_monitor, orth_complement)
from geouio.synthesis import (SpectralPartition, common_friend, decompose,
                              infimal_conditioned_invariant,
                              infimal_unobservability_subspace)
from geouio.verify import MARGINAL_GAP, _draw

DRAWS = 300
ALPHA = 0.0


def _square_draws(seed):
    """The (A, B, C) of the battery's square draws among ``DRAWS``."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        n, p, q, A, C, B = _draw(rng)
        if p == q:
            yield A, B, C


def _zeros(A, B, C) -> np.ndarray:
    """The finite invariant zeros of (A, B, C).  An eigenvalue whose beta
    is under 1e-8 of its alpha counts as infinite; on these draws the betas
    of the infinite ones stay under 1e-13."""
    n, q = B.shape
    p = C.shape[0]
    pencil = np.block([[A, B], [C, np.zeros((p, q))]])
    diag = np.zeros((n + p, n + q))
    diag[:n, :n] = np.eye(n)
    a, b = sla.eigvals(pencil, diag, homogeneous_eigvals=True)
    finite = np.abs(b) > 1e-8 * np.abs(a)
    return a[finite] / b[finite]


def _quotient_map(A, B, C) -> np.ndarray:
    """``R``, the map induced on S*/W*, formed as ``spectral_split`` forms
    it: ``A + L0 C`` in the chart of X/W*, on the image of S* ∩ W*^perp."""
    ker_C = kernel(C)
    W = infimal_conditioned_invariant(A, ker_C, image(B))
    S = infimal_unobservability_subspace(A, ker_C, W)
    L0 = common_friend(A, C, [W, S])
    P = canonical_projection(W)
    Sq = P @ intersect(S, orth_complement(W)).basis
    return Sq.T @ (P @ (A + L0 @ C) @ P.T) @ Sq


def test_quotient_spectrum_is_the_invariant_zeros():
    used = 0
    for A, B, C in _square_draws(7):
        with margin_monitor() as rec:
            R = _quotient_map(A, B, C)
        if rec.min_margin < MARGINAL_GAP:
            continue
        used += 1
        eigs = list(sla.eigvals(R)) if R.size else []
        zeros = list(_zeros(A, B, C))
        assert len(eigs) == len(zeros), (A, B, C, eigs, zeros)
        for lam in eigs:  # each to its nearest zero, so conjugates pair up
            z = min(zeros, key=lambda z: abs(z - lam))
            assert abs(z - lam) <= 1e-9 * max(1.0, abs(z)), (A, B, C, eigs, zeros)
            zeros.remove(z)
    assert used > DRAWS // 3


def test_existence_verdict_follows_the_invariant_zeros():
    verdicts = []
    for A, B, C in _square_draws(11):
        with margin_monitor() as rec:
            exists = check_uio_condition(decompose(A, C, B, SpectralPartition(ALPHA)))
        if rec.min_margin < MARGINAL_GAP:
            continue
        judge = (np.linalg.matrix_rank(C @ B) == np.linalg.matrix_rank(B)
                 and bool((_zeros(A, B, C).real < ALPHA).all()))
        assert exists == judge, (A, B, C, _zeros(A, B, C))
        verdicts.append(exists)
    assert len(verdicts) > DRAWS // 3 and len(set(verdicts)) == 2
