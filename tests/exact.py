"""Subspace algebra over the rationals, on ``fractions.Fraction``: an exact
oracle for the geometric recursions on small integer plants.

A matrix is a list of rows; a subspace of Q^n is a list of basis vectors
in reduced row echelon form, so that equal subspaces have equal bases.
W* and S* are computed by their primal recursions, with no tolerance.

The plants come from ``integer_plants``: n 2..6, p 1..n and q 1..p, each
entry of A, C and B drawn from {-2, ..., 2} and kept with a probability
drawn from U(0.2, 0.6).  A draw with C = 0 or B = 0 is skipped, but keeps
its index.
"""

from fractions import Fraction

import numpy as np


def _rref(rows, n):
    """Reduced row echelon form of the rows (vectors of length n), zero
    rows dropped."""
    rows = [list(map(Fraction, r)) for r in rows]
    out = []
    for col in range(n):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = 1 / pivot[col]
        pivot = [v * inv for v in pivot]
        for r in (*out, *rows):
            f = r[col]
            if f:
                r[:] = [a - f * b for a, b in zip(r, pivot)]
        out.append(pivot)
    return out


def span(vectors, n):
    """Basis of the span of the vectors, each of length n."""
    return _rref(vectors, n)


def kernel(M, n):
    """Basis of {x in Q^n : M x = 0}."""
    R = _rref(M, n)
    pivots = [next(j for j, v in enumerate(r) if v) for r in R]
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for r, j in zip(R, pivots):
            x[j] = -r[free]
        basis.append(x)
    return span(basis, n)


def subspace_sum(V, W, n):
    return span(V + W, n)


def annihilator(V, n):
    """Basis of V^perp: the rows whose products with V vanish."""
    return kernel(V, n)


def intersect(V, W, n):
    return kernel(annihilator(V, n) + annihilator(W, n), n)


def apply(M, V):
    """Images M v of the vectors v of V."""
    return [[sum(a * b for a, b in zip(row, v)) for row in M] for v in V]


def preimage(M, S, n):
    """{x : M x in S}, M an m x n matrix and S a subspace of Q^m."""
    return kernel([[sum(a[i] * M[i][j] for i in range(len(M))) for j in range(n)]
                   for a in annihilator(S, len(M))], n)


def _fractions(M):
    return [[Fraction(int(v)) for v in row] for row in np.asarray(M)]


def w_star(A, C, B):
    """Infimal (C, A)-invariant subspace containing Im B: the fixed point
    of W <- Im B + A (W ∩ Ker C) from Im B."""
    A, C, B = _fractions(A), _fractions(C), _fractions(B)
    n = len(A)
    ker_c = kernel(C, n)
    im_b = span([list(col) for col in zip(*B)], n)
    W = im_b
    while True:
        nxt = subspace_sum(im_b, apply(A, intersect(W, ker_c, n)), n)
        if len(nxt) == len(W):
            return W
        W = nxt


def s_star(A, C, W):
    """Infimal unobservability subspace containing W: the fixed point of
    S <- W + (A^{-1} S ∩ Ker C) from the whole space."""
    A, C = _fractions(A), _fractions(C)
    n = len(A)
    ker_c = kernel(C, n)
    S = kernel([], n)
    while True:
        nxt = subspace_sum(W, intersect(preimage(A, S, n), ker_c, n), n)
        if len(nxt) == len(S):
            return S
        S = nxt


def integer_plants(seed, draws):
    """``(draw, A, C, B)`` for each draw below ``draws`` of the recipe in
    the module docstring whose C and B are not zero."""
    rng = np.random.default_rng(seed)
    for draw in range(draws):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, p + 1))
        keep = rng.uniform(0.2, 0.6)
        A, C, B = (rng.integers(-2, 3, shape) * (rng.random(shape) < keep)
                   for shape in ((n, n), (p, n), (n, q)))
        if C.any() and B.any():
            yield draw, A, C, B
