"""Geometric synthesis: recursions, splitting, friends, full decomposition."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geouio.central import synthesize_centralized_uio
from geouio.config import parse_config
from geouio.errors import (DimensionMismatch, InvarianceViolated,
                           NotConditionedInvariant, SpectrumUnassignable)
from geouio.subspaces import (Subspace, _exceeds, _qr, canonical_projection,
                              contains, image, intersect, kernel,
                              margin_monitor, orth_complement, subspace_sum,
                              subspaces_equal)
from geouio import subspaces, synthesis, verify
from geouio.synthesis import (SpectralPartition, _place_real_poles,
                              _yt_update_order, common_friend, compute_wg_star,
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


def test_sstar_chain_is_monotone_decreasing():
    rng = np.random.default_rng(4)
    for _ in range(25):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        S, hist = infimal_unobservability_subspace(A, KC, W, return_history=True)
        dims = [h.dim for h in hist]
        assert dims == sorted(dims, reverse=True)
        assert len(hist) <= A.shape[0] + 2
        assert contains(S, W)
        # fixed point: S = W* + (A^-1 S ∩ Ker C)
        from geouio.subspaces import preimage, subspace_sum
        rhs = subspace_sum(W, intersect(preimage(A, S), KC))
        assert subspaces_equal(S, rhs)


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


def test_residual_tests_take_the_norm_only_past_the_bare_limit(monkeypatch):
    # resid > tol * max(1, ||M||_2) cannot hold when resid <= tol.
    calls = []

    def norm():
        calls.append(1)
        return 4.0

    assert not _exceeds(1e-9, 1e-9, norm) and not _exceeds(np.nan, 1e-9, norm)
    assert not calls
    assert not _exceeds(4e-9, 1e-9, norm) and _exceeds(5e-9, 1e-9, norm)
    assert len(calls) == 2
    assert _exceeds(2e-9, 1e-9, lambda: 0.5)  # the scale never drops below 1
    callers = []
    norm2 = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            callers.append(sys._getframe(1).f_code.co_name)
        return norm2(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    rng = np.random.default_rng(5)
    for _ in range(5):
        A, C, B = rand_system(rng)
        KC = kernel(C)
        W = infimal_conditioned_invariant(A, KC, image(B))
        common_friend(A, C, [W, infimal_unobservability_subspace(A, KC, W)])
    assert "common_friend" not in callers


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
    assert np.linalg.eigvals(Abar).real.max() < 0.0
    assert np.allclose(Abar, A + L @ C)
    targets = ALPHA0.targets(4)
    assert np.allclose(np.sort(np.linalg.eigvals(Abar).real), np.sort(targets),
                       atol=1e-6)


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
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(2, 3))
    L, Abar = plain_friend(A, C, SpectralPartition(pole_targets=(-4.0, -5.0, -6.0)))
    assert np.allclose(np.sort(np.linalg.eigvals(Abar).real),
                       [-6.0, -5.0, -4.0], atol=1e-6)


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
    for part in (ALPHA0, SpectralPartition(alpha=-0.3, margin=0.2)):
        old = part.alpha - (part.margin + 0.5) - 0.5 * np.arange(7)
        assert np.array_equal(part.targets(7), old)
    part = SpectralPartition(pole_targets=(-4.0, -5.0, -6.0))
    assert np.array_equal(part.targets(3), [-4.0, -5.0, -6.0])
    assert np.array_equal(part.targets(2), [-4.0, -5.0])
    for given in ((-1.5,), (-0.2, -0.1), (-9.0, -0.3)):
        part = SpectralPartition(pole_targets=given)
        targets = part.targets(6)
        padded = targets[len(given):]
        assert np.array_equal(targets[:len(given)], given)
        assert len(set(targets.tolist())) == 6
        assert np.all(padded < min(given))
        assert np.all(padded < part.alpha - part.margin - 0.5)
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
# Real-target pole placement, with scipy.signal.place_poles as the oracle


def _scipy_gain(A, B, poles):
    import scipy.signal as ssig

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on non-convergence
        return ssig.place_poles(A, B, poles)


@pytest.mark.parametrize("n, m, poles", [
    (4, 1, [-1.0, -2.0, -3.0, -4.0]),                 # rank(B) = 1
    (6, 3, [-1.0, -1.5, -2.0, -2.5, -3.0, -3.5]),     # 1 < rank(B) < n
    (3, 3, [-1.0, -2.0, -3.0]),                       # rank(B) = n: lstsq
    (3, 4, [-2.0, -1.0, -3.0]),                       # wide B, rank n
    (5, 2, [-3.0, -1.0, -4.5, -2.0, -0.5]),           # unsorted targets
    (6, 3, [-2.0, -2.0, -2.0, -1.0, -1.0, -3.0]),     # repeated rank(B) times
    (7, 2, [-1.0, -1.0, -2.0, -2.0, -3.0, -4.0, -5.0]),
])
def test_place_real_poles_matches_scipy(n, m, poles):
    rng = np.random.default_rng(100 + 10 * n + m)
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
    ref = _scipy_gain(A, B, poles).gain_matrix
    K = _place_real_poles(A, B, poles)
    assert np.array_equal(K, ref)
    placed = np.sort(np.linalg.eigvals(A - B @ K).real)
    assert np.allclose(placed, np.sort(poles), atol=1e-6)


def test_place_real_poles_matches_scipy_without_convergence():
    # n = 11 with 2 inputs: scipy runs all 30 Tits-Yang sweeps.
    rng = np.random.default_rng(7)
    A, B = rng.normal(size=(11, 11)), rng.normal(size=(11, 2))
    poles = ALPHA0.targets(11)
    ref = _scipy_gain(A, B, poles)
    assert ref.nb_iter == 30
    assert np.array_equal(_place_real_poles(A, B, poles), ref.gain_matrix)


def _assert_qr_matches_scipy(a):
    import scipy.linalg as sla

    before = a.copy()
    Q_ref, R_ref = sla.qr(a, mode="full")
    assert np.array_equal(_qr(a), Q_ref)
    Q, R = _qr(a, with_r=True)
    assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)
    # Fortran order keeps the rounding of the products that consume Q
    assert Q.flags.f_contiguous and R.flags.f_contiguous
    assert np.array_equal(a, before)  # factored in a copy


@pytest.mark.parametrize("n", range(3, 25))
def test_full_qr_matches_scipy_on_sweep_shapes(n):
    # the sweep factors the n - 2 columns of X outside the updated pair
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n))
    for i, j in _yt_update_order(n)[:3]:
        _assert_qr_matches_scipy(X[:, np.delete(np.arange(n), (i, j))])


@pytest.mark.parametrize("shape", [(3, 1), (6, 2), (6, 5), (12, 1), (12, 11),
                                   (3, 5), (2, 7)])
def test_full_qr_matches_scipy_on_kernel_and_input_shapes(shape):
    # kernel bases factor a transposed product (a Fortran-ordered view);
    # the input matrix B may be tall or wide
    rng = np.random.default_rng(sum(shape))
    _assert_qr_matches_scipy(rng.normal(size=shape[::-1]).T)
    _assert_qr_matches_scipy(rng.normal(size=shape))


def test_thirty_sweep_placement_calls_lapack_directly(monkeypatch):
    import scipy.linalg as sla

    def banned(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    calls = []

    def counted(a, with_r=False):
        calls.append(a.shape)
        return _qr(a, with_r)

    monkeypatch.setattr(sla, "qr", banned("scipy.linalg.qr"))
    monkeypatch.setattr(np.linalg, "qr", banned("numpy.linalg.qr"))
    monkeypatch.setattr(synthesis, "_qr", counted)
    rng = np.random.default_rng(7)  # scipy needs all 30 sweeps here
    A, B = rng.normal(size=(11, 11)), rng.normal(size=(11, 2))
    _place_real_poles(A, B, ALPHA0.targets(11))
    sweeps = 30 * len(_yt_update_order(11))
    # B, one kernel basis per target, then every pair of every sweep
    assert calls == [(11, 2)] + [(11, 9)] * 11 + [(11, 9)] * sweeps


def test_place_real_poles_rejects_what_scipy_rejects():
    rng = np.random.default_rng(5)
    A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="repeated more than rank"):
        _place_real_poles(A, B, [-1.0, -1.0, -1.0, -2.0])
    # mode 3 of diag(1, 2, 3) is uncontrollable from B: X is singular
    with pytest.raises(ValueError, match="can't be placed"):
        _place_real_poles(np.diag([1.0, 2.0, 3.0]), np.array([[1.0], [1.0], [0.0]]),
                          [-1.0, -2.0, -3.0])


def test_stabilizing_friend_reports_unplaceable_targets():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(1, 3))  # one output: rank 1
    with pytest.raises(SpectrumUnassignable,
                       match="pole placement failed: .*repeated more than rank"):
        plain_friend(A, C, SpectralPartition(pole_targets=(-2.0, -2.0, -3.0)))


def test_stabilizing_friend_uncontrollable_pair_raises():
    # (A^T, C^T) is uncontrollable: the mode at +2 is invisible to C.
    A = np.diag([1.0, 2.0, -1.0])
    C = np.array([[1.0, 0.0, 1.0]])
    with pytest.raises(SpectrumUnassignable):
        plain_friend(A, C)


def test_non_converged_placement_is_silent(monkeypatch):
    placements = []

    def recording(A, B, poles):
        placements.append((A, B, poles))
        return _place_real_poles(A, B, poles)

    monkeypatch.setattr(synthesis, "_place_real_poles", recording)
    rng = np.random.default_rng(3)
    A, C = rng.normal(size=(11, 11)), rng.normal(size=(2, 11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, Abar = plain_friend(A, C)
    assert np.linalg.eigvals(Abar).real.max() < -0.5
    (A11t, B1, poles), = placements
    assert _scipy_gain(A11t, B1, poles).nb_iter == 30


def _count_scipy_branches(monkeypatch):
    """Count the branches that scipy's real-pair Tits-Yang update takes: its
    np.allclose(sm[0], sm[1]) (singular-value tie) and np.allclose(x_ij, 0)
    (restart from the kernel direction) that hold.  With real targets and
    n >= 3 no other np.allclose runs in ``place_poles``."""
    taken = {"tie": 0, "restart": 0}
    allclose = np.allclose

    def counting(a, b, *args, **kwargs):
        held = allclose(a, b, *args, **kwargs)
        if held:
            taken["tie" if np.ndim(a) == 0 else "restart"] += 1
        return held

    monkeypatch.setattr(np, "allclose", counting)
    return taken


@pytest.mark.parametrize("n, m", [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3)])
def test_placement_tie_and_restart_branches_match_scipy(monkeypatch, n, m):
    # each target repeated m times makes kernel bases equal, so the pair's
    # 2x2 matrix is skew with equal singular values, and often kills x_ij
    taken = _count_scipy_branches(monkeypatch)
    poles = -(1.0 + np.arange(n) // m)
    for seed in range(3):
        rng = np.random.default_rng([n, m, seed])
        A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        assert np.array_equal(_place_real_poles(A, B, poles),
                              _scipy_gain(A, B, poles).gain_matrix)
    assert taken["tie"] > 0 and taken["restart"] > 0


def test_design_sweep_placement_matches_scipy(monkeypatch):
    # the quotient placement of perfbench's centralized n = 12 plants:
    # 11 modes, a rank-2 input, all 30 sweeps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import central_plant

    placements = []

    def recording(A, B, poles):
        placements.append((A, B, poles, _place_real_poles(A, B, poles)))
        return placements[-1][-1]

    monkeypatch.setattr(synthesis, "_place_real_poles", recording)
    cfg = parse_config(central_plant(np.random.default_rng([1, 0]), 12))
    synthesize_centralized_uio(cfg.system, cfg.partition, cfg.spectral)
    (A11t, B1, poles, K), = placements
    assert A11t.shape == (11, 11) and B1.shape == (11, 2)
    ref = _scipy_gain(A11t, B1, poles)
    assert ref.nb_iter == 30
    assert np.array_equal(K, ref.gain_matrix)


# ---------------------------------------------------------------------------
# What C sees of a subspace: synthesis._seen against its SVD rule


def _seen_by_svd(C, W):
    """``synthesis._seen`` by its definition: keep C W iff ||C W||_2 >
    max(C.shape) * eps * max(1, ||C||_2), both norms by SVD."""
    CW = C @ W.basis
    lim = max(C.shape) * np.finfo(float).eps
    keep = _exceeds(np.linalg.norm(CW, 2) if CW.size else 0.0, lim,
                    lambda: np.linalg.norm(C, 2))
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
