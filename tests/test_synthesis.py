"""Geometric synthesis: recursions, splitting, friends, full decomposition."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geouio.config import parse_config
from geouio.errors import (DimensionMismatch, InvarianceViolated,
                           NotConditionedInvariant, SpectrumUnassignable)
from geouio.subspaces import (Subspace, _exceeds, canonical_projection,
                              contains, image, intersect, kernel,
                              margin_monitor, orth_complement, preimage,
                              subspace_sum, subspaces_equal)
from geouio import subspaces, synthesis, verify
from geouio.synthesis import (SpectralPartition, _riccati_gain,
                              common_friend, compute_wg_star,
                              decompose, friend_gain,
                              infimal_conditioned_invariant,
                              infimal_unobservability_subspace, spectral_split,
                              stabilizing_friend)

A3 = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -2.0, 1.0]])
C3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
BBAR3 = np.array([[1.0], [1.0], [0.0]])
DIAG_SPAN = image(BBAR3)  # span{(1,1,0)}
KC3 = kernel(C3)

ALPHA0 = SpectralPartition(0.0)


def plain_friend(A, C, part=ALPHA0):
    """stabilizing_friend with W* = W_g* = 0: classical observer placement."""
    zero = Subspace.zero(A.shape[0])
    return stabilizing_friend(A, C, zero, part, W_star=zero)


def rand_system(rng, n_max=5, p_max=3, q_max=2):
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, min(p_max, n) + 1))
    q = int(rng.integers(1, min(q_max, p) + 1))
    return (rng.uniform(-2, 2, (n, n)), rng.uniform(-2, 2, (p, n)),
            rng.uniform(-2, 2, (n, q)))


# ---------------------------------------------------------------------------
# W* recursion


def test_wstar_demo_system_fixes_at_input_span():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    assert subspaces_equal(W, DIAG_SPAN)


def test_wstar_of_zero_input_is_zero():
    W = infimal_conditioned_invariant(A3, KC3, Subspace.zero(3))
    assert W.is_zero


def test_wstar_with_injective_output_is_input_span():
    # Ker C = 0 makes the recursion add nothing.
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 1))
    W = infimal_conditioned_invariant(A, kernel(np.eye(3)), image(B))
    assert subspaces_equal(W, image(B))


def test_wstar_chain_is_monotone_and_short():
    rng = np.random.default_rng(2)
    for _ in range(25):
        A, C, B = rand_system(rng)
        W, hist = infimal_conditioned_invariant(A, kernel(C), image(B),
                                                return_history=True)
        dims = [h.dim for h in hist]
        assert dims == sorted(dims)
        assert len(hist) <= A.shape[0] + 2
        for prev, nxt in zip(hist, hist[1:]):
            assert contains(nxt, prev)


# ---------------------------------------------------------------------------
# S* recursion


def test_sstar_demo_system_equals_wstar():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, KC3, W)
    assert subspaces_equal(S, W)


def test_sstar_with_injective_output_is_wstar():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 1))
    KC = kernel(np.eye(4))
    W = infimal_conditioned_invariant(A, KC, image(B))
    S = infimal_unobservability_subspace(A, KC, W)
    assert subspaces_equal(S, W)


def test_sstar_with_zero_output_is_everything():
    KC = kernel(np.zeros((1, 3)))
    W = infimal_conditioned_invariant(A3, KC, DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, KC, W)
    assert S.is_full


def _primal_sstar_chain(A, KC, W):
    """The S* recursion in its primal form, S <- W* + (A^-1 S ∩ Ker C) from
    R^n, up to its first repeated dimension, from the public operations."""
    chain = [Subspace.full(A.shape[0])]
    while len(chain) <= A.shape[0] + 1:
        chain.append(subspace_sum(W, intersect(preimage(A, chain[-1]), KC)))
        if chain[-1].dim == chain[-2].dim:
            break
    return chain


def _hidden_block_system(rng, n, p, q, hidden):
    """(A, C, B) with ``hidden`` extra states that neither the input nor the
    measurement reaches, in random orthonormal coordinates: their modes
    join S*, so S* lies strictly between W* and R^n when p > q."""
    A, C, B = rng.normal(size=(n, n)), rng.normal(size=(p, n)), rng.normal(size=(n, q))
    m = n + hidden
    Af, Cf, Bf = np.zeros((m, m)), np.zeros((p, m)), np.zeros((m, q))
    Af[:n, :n], Af[n:, :] = A, rng.normal(size=(hidden, m))
    Cf[:, :n], Bf[:n] = C, B
    T = np.linalg.qr(rng.normal(size=(m, m)))[0]
    return T @ Af @ T.T, Cf @ T.T, T @ Bf


def test_sstar_chain_is_monotone_decreasing():
    # the primal chain, built here, decreases to the S* that the dual gives
    rng = np.random.default_rng(4)
    for _ in range(25):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S = infimal_unobservability_subspace(A, KC, W)
        hist = _primal_sstar_chain(A, KC, W)
        dims = [h.dim for h in hist]
        assert dims == sorted(dims, reverse=True)
        assert len(hist) <= A.shape[0] + 2
        assert contains(S, W)
        assert subspaces_equal(S, hist[-1])
        # fixed point: S = W* + (A^-1 S ∩ Ker C)
        rhs = subspace_sum(W, intersect(preimage(A, S), KC))
        assert subspaces_equal(S, rhs)


def test_sstar_equals_the_primal_fixed_point_in_all_three_cases():
    rng = np.random.default_rng(40)
    cases = {"W*": 0, "X": 0, "between": 0}
    for k in range(60):
        if k % 2:
            A, C, B = rand_system(rng)
        else:
            n = int(rng.integers(2, 5))
            A, C, B = _hidden_block_system(rng, n, int(rng.integers(2, n + 1)),
                                           1, int(rng.integers(1, 3)))
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S = infimal_unobservability_subspace(A, KC, W)
        assert subspaces_equal(S, _primal_sstar_chain(A, KC, W)[-1])
        assert np.abs(S.basis.T @ S.basis - np.eye(S.dim)).max() <= 1e-12
        if S.dim == W.dim:
            assert S is W
            cases["W*"] += 1
        else:
            cases["X" if S.is_full else "between"] += 1
    assert min(cases.values()) >= 5, cases


def test_sstar_of_the_distributed_demo_nodes(dist_cfg):
    # nodes 1 and 3 have S* strictly between W* and R^6, nodes 2 and 4 S* = R^6
    dims = {}
    for spec in dist_cfg.node_specs:
        A, C = dist_cfg.system.A, spec.C
        KC = kernel(C)
        W = infimal_conditioned_invariant(
            A, KC, image(dist_cfg.system.B[:, list(spec.unknown_cols)]))
        S = infimal_unobservability_subspace(A, KC, W)
        assert subspaces_equal(S, _primal_sstar_chain(A, KC, W)[-1])
        assert contains(S, W)
        dims[spec.node_id] = (W.dim, S.dim)
    assert dims == {1: (1, 4), 2: (2, 6), 3: (1, 4), 4: (5, 6)}


def test_sstar_takes_no_preimage_and_no_intersection(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a primal step in the dual S* recursion")

    rng = np.random.default_rng(41)
    for _ in range(3):
        A, C, B = _hidden_block_system(rng, 3, 2, 1, 2)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        with monkeypatch.context() as mp:
            for module in (subspaces, synthesis):
                mp.setattr(module, "intersect", refused, raising=False)
                mp.setattr(module, "preimage", refused, raising=False)
            S = infimal_unobservability_subspace(A, KC, W)
        assert W.dim < S.dim < A.shape[0]


# ---------------------------------------------------------------------------
# friends


def test_friend_zero_subspace_gives_zero_gain():
    L = friend_gain(A3, C3, Subspace.zero(3))
    assert np.allclose(L, 0.0)


def test_friend_for_A_invariant_subspace():
    # span{e1} is A-invariant for A3, so L = 0 works; check the contract.
    W = image(np.array([[1.0], [0.0], [0.0]]))
    L = friend_gain(A3, C3, W)
    P = canonical_projection(W)
    assert np.linalg.norm(P @ (A3 + L @ C3) @ W.basis) <= 1e-9
    assert np.linalg.norm(P @ A3 @ W.basis) <= 1e-12  # L = 0 already valid


def test_friend_on_demo_wstar():
    L = friend_gain(A3, C3, DIAG_SPAN)
    P = canonical_projection(DIAG_SPAN)
    assert np.linalg.norm(P @ (A3 + L @ C3) @ DIAG_SPAN.basis) <= 1e-9


def test_friend_rejects_non_conditioned_invariant():
    # span{e3} ⊂ Ker C3 and A e3 = (0,1,1) is outside span{e3}.
    W = image(np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(NotConditionedInvariant):
        friend_gain(A3, C3, W)


def test_common_friend_fixes_both_subspaces():
    rng = np.random.default_rng(5)
    for _ in range(25):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S = infimal_unobservability_subspace(A, KC, W)
        L0 = common_friend(A, C, [W, S])
        AL = A + L0 @ C
        for sub in (W, S):
            if 0 < sub.dim < A.shape[0]:
                P = canonical_projection(sub)
                resid = np.linalg.norm(P @ AL @ sub.basis)
                assert resid <= 1e-8 * max(1, np.linalg.norm(A))


def test_a_failed_friend_solve_is_not_conditioned_invariant(monkeypatch):
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    assert 0 < W.dim < 3

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(synthesis, "_lstsq", failing)
    with pytest.raises(NotConditionedInvariant) as exc:
        common_friend(A3, C3, [W])
    assert "common friend" in str(exc.value)
    assert "SVD did not converge in Linear Least Squares" in str(exc.value)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def _count_two_norms(monkeypatch):
    """Patch ``subspaces.two_norm``, through which ``preimage``, ``_exceeds``
    and ``_require_invariant`` take every scale, to record the functions
    that asked for it; returns that list."""
    callers = []
    two_norm = subspaces.two_norm

    def counting(M):
        callers.append((sys._getframe(1).f_code.co_name,
                        sys._getframe(2).f_code.co_name))
        return two_norm(M)

    monkeypatch.setattr(subspaces, "two_norm", counting)
    return callers


def test_residual_tests_take_the_norm_only_past_the_bare_limit(monkeypatch):
    # resid > tol * max(1, ||M||_2) cannot hold when resid <= tol.
    M = np.diag([4.0, 1.0])
    assert subspaces.two_norm(M) == 4.0
    calls = _count_two_norms(monkeypatch)
    assert not _exceeds(1e-9, 1e-9, M) and not _exceeds(np.nan, 1e-9, M)
    assert not calls
    assert not _exceeds(4e-9, 1e-9, M) and _exceeds(5e-9, 1e-9, M)
    assert len(calls) == 2
    assert _exceeds(2e-9, 1e-9, 0.5 * np.eye(2))  # the scale never drops below 1
    del calls[:]
    rng = np.random.default_rng(5)
    for _ in range(5):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        common_friend(A, C, [W, infimal_unobservability_subspace(A, KC, W)])
    assert calls and ("_exceeds", "common_friend") not in calls


def test_a_preimage_takes_the_norm_only_with_a_kernel(monkeypatch):
    calls = _count_two_norms(monkeypatch)
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    # S = R^2: its complement is zero, so the preimage is R^2 and no scale
    assert preimage(A, Subspace.full(2)).is_full
    assert not calls
    # S = span{e1}: the kernel of e2^T A, floored at ||A||_2, taken once
    cut = preimage(A, Subspace(2, np.eye(2)[:, :1]))
    assert cut.dim == 1 and abs(A @ cut.basis)[1, 0] <= 1e-15
    assert calls == [("preimage", "test_a_preimage_takes_the_norm_only_with_a_kernel")]


# ---------------------------------------------------------------------------
# spectral split


def test_split_demo_system_is_trivial():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, KC3, W)
    L0 = common_friend(A3, C3, [W, S])
    Xg, Xb = spectral_split(A3, C3, W, S, L0, ALPHA0)
    assert Xg.is_zero and Xb.is_zero


def test_split_diagonal_induced_map():
    # C = 0 makes S* the whole space and the induced map equal to A itself.
    A = np.diag([-1.0, 2.0])
    C = np.zeros((1, 2))
    W = Subspace.zero(2)
    S = infimal_unobservability_subspace(A, kernel(C), W)
    Xg, Xb = spectral_split(A, C, W, S, np.zeros((2, 1)), ALPHA0)
    assert Xg.dim == 1 and Xb.dim == 1
    assert np.allclose(np.abs(Xg.basis[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(Xb.basis[:, 0]), [0.0, 1.0])


def test_split_all_good_modes():
    A = np.diag([-1.0, -2.0, -3.0])
    C = np.zeros((1, 3))
    W = Subspace.zero(3)
    S = infimal_unobservability_subspace(A, kernel(C), W)
    Xg, Xb = spectral_split(A, C, W, S, np.zeros((3, 1)), ALPHA0)
    assert Xb.is_zero and Xg.dim == 3


def test_split_rejects_a_gain_that_is_not_a_friend():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    with pytest.raises(InvarianceViolated, match=r"L0 is not a friend of W\*"):
        spectral_split(A3, C3, W, W, np.zeros((3, 2)), ALPHA0)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    S = image(np.array([[0.0], [1.0]]))  # A maps e2 to e1, outside S
    with pytest.raises(InvarianceViolated, match=r"L0 is not a friend of S\*"):
        spectral_split(A, np.zeros((1, 2)), Subspace.zero(2), S,
                       np.zeros((2, 1)), ALPHA0)


def test_split_dimension_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(30):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S = infimal_unobservability_subspace(A, KC, W)
        L0 = common_friend(A, C, [W, S])
        Xg, Xb = spectral_split(A, C, W, S, L0, ALPHA0)
        assert Xg.dim + Xb.dim == S.dim - W.dim


def test_invariant_zero_spectrum_is_friend_independent():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        A, C, B = rand_system(rng, n_max=5)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S = infimal_unobservability_subspace(A, KC, W)
        if S.dim - W.dim == 0:
            continue
        n, p = A.shape[0], C.shape[0]
        rows = [np.kron((C @ sub.basis).T, canonical_projection(sub))
                for sub in (W, S) if 0 < sub.dim < n]
        rhs = [(-canonical_projection(sub) @ A @ sub.basis).flatten(order="F")
               for sub in (W, S) if 0 < sub.dim < n]
        G, h = np.vstack(rows), np.concatenate(rhs)
        spectra = []
        for jitter in (None, 11, 12):
            if jitter is None:
                L = common_friend(A, C, [W, S])
            else:
                # a different exact solution of the joint friend equations:
                # correct a random gain back onto the solution manifold
                jr = np.random.default_rng(jitter)
                L_rand = jr.normal(size=(n, p))
                fix, *_ = np.linalg.lstsq(G, G @ L_rand.flatten(order="F") - h,
                                          rcond=None)
                L = L_rand - fix.reshape((n, p), order="F")
                assert np.linalg.norm(G @ L.flatten(order="F") - h) < 1e-8
            P = canonical_projection(W)
            Sq = P @ intersect(S, orth_complement(W)).basis
            R = Sq.T @ (P @ (A + L @ C) @ P.T) @ Sq
            spectra.append(np.sort_complex(np.linalg.eigvals(R)))
        for other in spectra[1:]:
            assert np.allclose(spectra[0], other, atol=1e-6)
        checked += 1
    assert checked >= 10


def _straddling_matrix(rng, n):
    """Order-n matrix whose first complex pairs sit on both sides of Re = 0.

    Blocks alternate sides; the first two (room permitting) are complex pairs,
    the rest real or complex at random.
    """
    D, k, side = np.zeros((n, n)), 0, -1.0
    while k < n:
        re = side * rng.uniform(0.2, 2.0)
        if n - k >= 2 and (k < 4 or rng.random() < 0.5):
            im = rng.uniform(0.5, 2.0)
            D[k:k + 2, k:k + 2] = [[re, im], [-im, re]]
            k += 2
        else:
            D[k, k] = re
            k += 1
        side = -side
    V = rng.normal(size=(n, n)) + n * np.eye(n)
    return V @ D @ np.linalg.inv(V)


def _split_of(R):
    """spectral_split of R itself: with C = 0, W* = 0 and S* = X the chart
    is the identity and the induced map is R."""
    n = R.shape[0]
    return spectral_split(R, np.zeros((1, n)), Subspace.zero(n),
                          Subspace.full(n), np.zeros((n, 1)), ALPHA0)


def _gap(X: Subspace, basis) -> float:
    """Distance of the orthogonal projectors onto X and onto span(basis)."""
    return float(np.linalg.norm(X.basis @ X.basis.T - basis @ basis.T, 2))


@pytest.mark.parametrize("n", range(1, 17))
def test_ordered_schur_matches_scipy(n):
    import scipy.linalg as sla

    rng = np.random.default_rng(100 + n)
    straddling = [_straddling_matrix(rng, n) for _ in range(2)]
    if n >= 4:  # each leads with a complex pair on each side of the boundary
        for R in straddling:
            pairs = np.linalg.eigvals(R)
            pairs = pairs[pairs.imag > 0].real
            assert pairs.min() < 0 < pairs.max()
    for R in straddling + [rng.normal(size=(n, n))]:
        scale = float(np.linalg.norm(R, 2))
        bad = lambda re, im: ALPHA0.is_bad(re, scale)
        Xg, Xb = _split_of(R)
        for X, select in ((Xb, bad), (Xg, lambda re, im: not bad(re, im))):
            _, Z, sdim = sla.schur(R, output="real", sort=select)
            assert X.dim == sdim and _gap(X, Z[:, :sdim]) <= 1e-12


def test_split_counts_an_eigenvalue_at_alpha_as_bad():
    Xg, Xb = _split_of(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert Xb.dim == Xg.dim == 1
    assert _gap(Xb, np.array([[1.0], [0.0]])) <= 1e-15
    assert _gap(Xg, np.array([[1.0], [-1.0]]) / np.sqrt(2)) <= 1e-15


def test_split_separates_jordan_blocks():
    J = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 0.0, -1.0]])
    V = np.random.default_rng(4).normal(size=(4, 4)) + 4 * np.eye(4)
    Xg, Xb = _split_of(V @ J @ np.linalg.inv(V))
    for X, cols in ((Xb, V[:, :2]), (Xg, V[:, 2:])):
        assert _gap(X, np.linalg.qr(cols)[0]) <= 1e-12


def test_split_with_an_eigenvalue_on_the_boundary_raises():
    scale = subspaces.two_norm(np.diag([0.0, -2.0]))
    R = np.diag([ALPHA0.boundary(scale), -2.0])  # counted bad, sign undefined
    assert subspaces.two_norm(R) == scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvarianceViolated, match="at the boundary"):
            _split_of(R)


@pytest.mark.parametrize("z", [-1e-7, 1e-7])
def test_a_zero_near_alpha_is_a_marginal_decision(z):
    # one invariant zero, at z: bad at +1e-7, good at -1e-7
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    with margin_monitor() as rec:
        decomp = decompose(A, np.array([[-z, 1.0]]), np.array([[0.0], [1.0]]))
    assert decomp.Xbar_b.dim == (z > 0)
    assert rec.min_margin < verify.MARGINAL_GAP
    with margin_monitor() as rec:
        decompose(A, np.array([[0.5, 1.0]]), np.array([[0.0], [1.0]]))
    assert rec.min_margin > 0.4


# ---------------------------------------------------------------------------
# W_g* and the stabilizing friend


def test_wg_star_trivial_and_full_lifts():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    P = canonical_projection(W)
    q = P.shape[0]
    assert subspaces_equal(compute_wg_star(W, Subspace.zero(q)), W)
    S = infimal_unobservability_subspace(A3, KC3, W)
    quotient_of_S = image(P @ intersect(S, orth_complement(W)).basis)
    assert subspaces_equal(compute_wg_star(W, quotient_of_S), S)


def test_wg_star_rejects_a_subspace_outside_the_chart():
    W = infimal_conditioned_invariant(A3, KC3, DIAG_SPAN)
    with pytest.raises(DimensionMismatch):
        compute_wg_star(W, Subspace.zero(A3.shape[0]))


def test_wg_star_demo_equals_wstar():
    d = decompose(A3, C3, BBAR3, ALPHA0)
    assert subspaces_equal(d.W_g_star, DIAG_SPAN)
    assert d.V.shape[1] == 0


def test_the_zero_split_lifts_back_to_wg_star():
    # Xbar_b lives in the chart that compute_wg_star reads, so lifting it
    # gives W_g* again, also when good and bad zeros share S*/W*.  The lift
    # is the chart's preimage, bit for bit, taken without a rank cut, and V
    # is Xbar_b's basis lifted out of the chart.
    rng = np.random.default_rng(3)
    two_sided = bad = 0
    for _ in range(300):
        _, _, _, A, C, B = verify._draw(rng)
        d = decompose(A, C, B)
        Wg = compute_wg_star(d.W_star, d.Xbar_b)
        assert subspaces_equal(Wg, d.W_g_star)
        cut = preimage(canonical_projection(d.W_star), d.Xbar_b)
        assert Wg.basis.shape == cut.basis.shape
        assert np.array_equal(Wg.basis, cut.basis)
        V = d.V
        assert V.shape == (d.n, d.Xbar_b.dim) and not V.flags.writeable
        assert abs(V.T @ V - np.eye(V.shape[1])).max(initial=0.0) <= 1e-14
        assert abs(d.W_star.basis.T @ V).max(initial=0.0) <= 1e-14
        assert contains(d.W_g_star, Subspace(d.n, V))
        two_sided += not (d.Xbar_g.is_zero or d.Xbar_b.is_zero)
        bad += not d.Xbar_b.is_zero
    assert two_sided >= 50 and 50 <= bad <= 250


def test_the_chart_of_x_mod_wstar_is_factored_once(monkeypatch):
    """With no bad zero directions W_g* is Ker P_W*, the complement of W*^perp
    that spectral_split's intersection has already taken: one full SVD of
    the chart per decomposition, where taking W_g* as a preimage took two."""
    svd = subspaces._svd
    operands = []

    def counting(M, full=True, uv=True):
        if full and uv:
            operands.append(np.array(M))
        return svd(M, full=full, uv=uv)

    for name, mod in list(sys.modules.items()):
        if name.startswith("geouio") and getattr(mod, "_svd", None) is svd:
            monkeypatch.setattr(mod, "_svd", counting)
    rng = np.random.default_rng(2)
    counts = []
    for _ in range(40):
        _, _, _, A, C, B = verify._draw(rng)
        operands.clear()
        d = decompose(A, C, B, ALPHA0)
        if d.Xbar_b.is_zero and not (d.W_star.is_zero or d.W_star.is_full):
            chart = canonical_projection(d.W_star)  # kept: no further SVD
            counts.append(sum(np.array_equal(M, chart) for M in operands))
    assert len(counts) >= 20 and set(counts) == {1}


def test_decomposition_sandwich_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        A, C, B = rand_system(rng)
        d = decompose(A, C, B, ALPHA0)
        assert contains(d.W_star, image(B))
        assert contains(d.W_g_star, d.W_star)
        assert contains(d.S_star, d.W_g_star)
        assert d.W_g_star.dim == d.W_star.dim + d.Xbar_b.dim
        assert d.Xbar_g.dim + d.Xbar_b.dim == d.S_star.dim - d.W_star.dim
        # each chart has orthonormal rows and kills its subspace
        for P, W in ((d.P_Wstar, d.W_star), (d.P_Wg, d.W_g_star)):
            assert np.abs(P @ P.T - np.eye(P.shape[0])).max(initial=0.0) <= 1e-9
            assert np.linalg.norm(P @ W.basis) <= 1e-9
        # V spans W_g* ∩ W*^perp: inside W_g*, orthogonal to W*, and with W*
        # it spans W_g*
        V = Subspace(d.n, d.V)
        assert contains(d.W_g_star, V)
        assert np.linalg.norm(d.V.T @ d.W_star.basis) <= 1e-9
        assert subspaces_equal(d.W_g_star, subspace_sum(d.W_star, V))


def test_rank_condition_forces_wstar_equal_input_span():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(40):
        A, C, B = rand_system(rng)
        if np.linalg.matrix_rank(C @ B) != np.linalg.matrix_rank(B):
            continue
        W = infimal_conditioned_invariant(A, kernel(C), image(B))
        assert subspaces_equal(W, image(B))
        hits += 1
    assert hits >= 15


def test_stabilizing_friend_demo():
    d = decompose(A3, C3, BBAR3, ALPHA0)
    L, Abar = stabilizing_friend(A3, C3, d.W_g_star, ALPHA0, W_star=d.W_star)
    assert Abar.shape == (2, 2)
    eigs = np.linalg.eigvals(Abar)
    assert eigs.real.max() < -0.5
    # the friend keeps the decoupled subspace invariant
    resid = np.linalg.norm(d.P_Wg @ (A3 + L @ C3) @ d.W_g_star.basis)
    assert resid <= 1e-9


def test_stabilizing_friend_classical_observer_case():
    # W_g* = 0 with an observable pair reduces to plain pole placement.
    rng = np.random.default_rng(10)
    A = rng.normal(size=(4, 4))
    C = rng.normal(size=(2, 4))
    L, Abar = plain_friend(A, C)
    assert np.allclose(Abar, A + L @ C)
    assert np.linalg.eigvals(Abar).real.max() < ALPHA0.placement_bound


def test_stabilizing_friend_accepts_already_stable_quotient():
    A = np.diag([-2.0, -3.0])
    C = np.zeros((1, 2))
    # quotient spectrum is fixed at {-2, -3}: nothing to place, still valid
    L, Abar = plain_friend(A, C)
    assert np.linalg.eigvals(Abar).real.max() < 0.0


def test_stabilizing_friend_unassignable_spectrum_raises():
    # undetectable unstable mode: C = 0 and A has an eigenvalue at +1
    A = np.diag([1.0, -1.0])
    C = np.zeros((1, 2))
    with pytest.raises(SpectrumUnassignable):
        plain_friend(A, C)


def test_explicit_pole_targets_are_used():
    # the slowest target bounds the spectrum
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(2, 3))
    L, Abar = plain_friend(A, C, SpectralPartition(pole_targets=(-4.0, -5.0, -6.0)))
    assert np.allclose(Abar, A + L @ C)
    assert np.linalg.eigvals(Abar).real.max() < -4.0


def test_stabilizing_friend_rank_cut_is_monitored(monkeypatch):
    rng = np.random.default_rng(10)
    A, C = rng.normal(size=(4, 4)), rng.normal(size=(2, 4))
    cuts, real = [], synthesis._rank_cut

    def recorded(s, shape, *rest):
        cuts.append(shape)
        return real(s, shape, *rest)

    monkeypatch.setattr(synthesis, "_rank_cut", recorded)
    with margin_monitor() as rec:
        plain_friend(A, C)
    # W_g* = 0 and an observable pair: C1 is C, of full row rank
    assert cuts == [C.shape]
    sb = np.linalg.svd(C.T, full_matrices=False)[1]
    assert sb[-1] in rec.margins


def test_pole_target_rule():
    for part in (ALPHA0, SpectralPartition(alpha=-0.3, margin=0.2),
                 SpectralPartition(pole_targets=())):
        assert part.placement_bound == part.alpha - (part.margin + 0.5)
    for given in ((-4.0, -5.0, -6.0), (-1.5,), (-0.2, -0.1), (-9.0, -0.3)):
        assert SpectralPartition(pole_targets=given).placement_bound == max(given)
    with pytest.raises(ValueError, match="safety"):
        SpectralPartition(safety=0.9)
    with pytest.raises(ValueError, match="finite"):
        SpectralPartition(pole_targets=(np.nan,))
    with pytest.raises(ValueError, match="margin"):
        SpectralPartition(margin=-0.1)
    for given in ((0.0,), (-1.0, 0.5)):
        with pytest.raises(ValueError, match="left of alpha"):
            SpectralPartition(pole_targets=given)
    assert SpectralPartition(alpha=2.0, margin=0.0, pole_targets=(1.0,))


# ---------------------------------------------------------------------------
# The shifted-Riccati gain, with scipy.linalg.solve_continuous_are as the oracle


def _riccati_draw(rng, n, m):
    beta = float(rng.uniform(-2, 2))
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
    return A, B, beta, A + beta * np.eye(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_riccati_gain_matches_scipy(n):
    import scipy.linalg as sla

    rng = np.random.default_rng([n, 11])
    for _ in range(4):
        # two inputs or more, as a quotient with several outputs sees: with
        # one input and n >= 5 the equation is ill-conditioned (|X| up to
        # 1e10) and the two solvers agree to about 1e-6 only
        A, B, beta, F = _riccati_draw(rng, n, int(rng.integers(min(n, 2), min(n, 3) + 1)))
        want = B.T @ sla.solve_continuous_are(F, B, 1e-6 * np.eye(n), np.eye(B.shape[1]))
        got = _riccati_gain(F, B)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        assert np.linalg.eigvals(A - B @ got).real.max() < -beta
    # one input: the closed loop still lies left of -beta
    A, B, beta, F = _riccati_draw(rng, n, 1)
    assert np.linalg.eigvals(A - B @ _riccati_gain(F, B)).real.max() < -beta


def test_riccati_gain_mirrors_unstable_modes():
    # with the small state weight a full-rank input moves each unstable mode
    # to about its mirror image and leaves the stable ones nearly in place
    F = np.diag([2.0, -3.0])
    K = _riccati_gain(F, np.eye(2))
    assert np.allclose(np.sort(np.linalg.eigvals(F - K).real), [-3.0, -2.0], atol=1e-6)


def test_riccati_gain_raises_for_an_unreachable_mode_on_the_axis():
    # the mode at 0 is invisible to B: the Hamiltonian is singular
    with pytest.raises(SpectrumUnassignable, match="Riccati"):
        _riccati_gain(np.diag([0.0, 1.0]), np.array([[0.0], [1.0]]))


def test_stabilizing_friend_accepts_repeated_targets():
    # one output cannot place a target twice, but a bound needs no placement
    rng = np.random.default_rng(12)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(1, 3))
    L, Abar = plain_friend(A, C, SpectralPartition(pole_targets=(-2.0, -2.0, -3.0)))
    assert np.allclose(Abar, A + L @ C)
    assert np.linalg.eigvals(Abar).real.max() < -2.0


def test_stabilizing_friend_uncontrollable_pair_raises():
    # (A^T, C^T) is uncontrollable: the mode at +2 is invisible to C.
    A = np.diag([1.0, 2.0, -1.0])
    C = np.array([[1.0, 0.0, 1.0]])
    with pytest.raises(SpectrumUnassignable):
        plain_friend(A, C)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_design_sweep_n24_probe_plants_design(monkeypatch, seed):
    # perfbench's centralized n = 24 probe plants: 23 quotient modes, each
    # designed and within every residual limit of verify
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import central_plant

    for r in range(3):
        rng = np.random.default_rng([seed, 2**31 + r])
        for _ in range(2):
            cfg = parse_config(central_plant(rng, 24))
            failed = [c.name for c in verify.synthesis_residual_checks(cfg)
                      if not c.passed]
            assert failed == []


# ---------------------------------------------------------------------------
# What C sees of a subspace: synthesis._seen against its SVD rule


def _seen_by_svd(C, W):
    """``synthesis._seen`` by its definition: keep C W iff ||C W||_2 >
    max(C.shape) * eps * max(1, ||C||_2), both norms by numpy's SVD."""
    CW = C @ W.basis
    lim = max(C.shape) * np.finfo(float).eps
    keep = (np.linalg.norm(CW, 2) if CW.size else 0.0) > lim * max(
        1.0, np.linalg.norm(C, 2))
    return CW if keep else np.zeros_like(CW)


def _assert_seen_by_svd(C, W):
    want = _seen_by_svd(C, W)
    got = synthesis._seen(C, W)
    assert got.shape == want.shape and np.array_equal(got, want)
    return bool(want.any())


def test_seen_decides_as_its_svd_rule_on_random_draws():
    rng = np.random.default_rng(64)
    kept = []
    for _ in range(400):
        n = int(rng.integers(2, 9))
        p, k = int(rng.integers(1, n + 1)), int(rng.integers(1, n))
        W = image(rng.normal(size=(n, k)))
        Wp = orth_complement(W).basis
        lim = max(p, n) * np.finfo(float).eps
        # C's part on W scaled from far below to far above the noise limit,
        # its part on W^perp from 0 to large
        on_w = 10.0 ** rng.uniform(-3, 3) * lim * rng.normal(size=(p, W.dim))
        off_w = 10.0 ** rng.uniform(-2, 3) * rng.normal(size=(p, Wp.shape[1]))
        C = on_w @ W.basis.T + off_w @ Wp.T
        kept.append(_assert_seen_by_svd(C, W))
    assert 50 < sum(kept) < 350


def test_seen_decides_as_its_svd_rule_at_the_bounds():
    eps = np.finfo(float).eps
    n = 4
    e1, e12 = Subspace(n, np.eye(n)[:, :1]), Subspace(n, np.eye(n)[:, :2])
    u = np.array([0.6, 0.8, 0.0])
    for big in (0.0, 0.5, 7.0):
        # the rest of C sets ||C||: below 1 (no effect) or above
        rest = np.zeros((3, n - 2))
        rest[2, 0] = big
        lim = 4 * eps
        scale = lim * max(1.0, np.linalg.norm(np.hstack([np.zeros((3, 2)), rest]), 2))
        for t in (lim, scale, scale * (1 + 1e-12), scale * (1 - 1e-12)):
            for d in range(-3, 4):
                s = t
                for _ in range(abs(d)):  # d ulps from the bound
                    s = np.nextafter(s, np.inf if d > 0 else -np.inf)
                # rank 1 with one column: ||CW||_2 = ||CW||_F
                C1 = np.hstack([s * u[:, None], np.zeros((3, 1)), rest])
                _assert_seen_by_svd(C1, e1)
                # rank 1 with two columns: ||CW||_2 = ||CW||_F again
                C2 = np.hstack([s * np.outer(u, [0.6, 0.8]), rest])
                _assert_seen_by_svd(C2, e12)
        # an exact zero: C cannot see W at all
        C0 = np.hstack([np.zeros((3, 2)), rest])
        assert not _assert_seen_by_svd(C0, e12)
    # no measurement at all
    assert synthesis._seen(np.zeros((0, n)), e12).shape == (0, 2)
