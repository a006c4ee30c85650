"""Geometric synthesis: recursions, splitting, friends, full decomposition."""

import warnings

import numpy as np
import pytest

from geouio.errors import (DimensionMismatch, InvarianceViolated,
                           NotConditionedInvariant, SpectrumUnassignable)
from geouio.subspaces import (Subspace, canonical_projection, contains, image,
                              intersect, kernel, margin_monitor,
                              orth_complement, subspaces_equal)
from geouio import synthesis
from geouio.synthesis import (SpectralPartition, _FullQR, _place_real_poles,
                              _yt_update_order, common_friend, compute_wg_star,
                              decompose, friend_gain,
                              infimal_conditioned_invariant,
                              infimal_unobservability_subspace, spectral_split,
                              stabilizing_friend)

A3 = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -2.0, 1.0]])
C3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
BBAR3 = np.array([[1.0], [1.0], [0.0]])
DIAG_SPAN = image(BBAR3)  # span{(1,1,0)}

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
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
    assert subspaces_equal(W, DIAG_SPAN)


def test_wstar_of_zero_input_is_zero():
    W = infimal_conditioned_invariant(A3, C3, Subspace.zero(3))
    assert W.is_zero


def test_wstar_with_injective_output_is_input_span():
    # Ker C = 0 makes the recursion add nothing.
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 1))
    W = infimal_conditioned_invariant(A, np.eye(3), image(B))
    assert subspaces_equal(W, image(B))


def test_wstar_chain_is_monotone_and_short():
    rng = np.random.default_rng(2)
    for _ in range(25):
        A, C, B = rand_system(rng)
        W, hist = infimal_conditioned_invariant(A, C, image(B),
                                                return_history=True)
        dims = [h.dim for h in hist]
        assert dims == sorted(dims)
        assert len(hist) <= A.shape[0] + 2
        for prev, nxt in zip(hist, hist[1:]):
            assert contains(nxt, prev)


# ---------------------------------------------------------------------------
# S* recursion


def test_sstar_demo_system_equals_wstar():
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, C3, W)
    assert subspaces_equal(S, W)


def test_sstar_with_injective_output_is_wstar():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 1))
    W = infimal_conditioned_invariant(A, np.eye(4), image(B))
    S = infimal_unobservability_subspace(A, np.eye(4), W)
    assert subspaces_equal(S, W)


def test_sstar_with_zero_output_is_everything():
    W = infimal_conditioned_invariant(A3, np.zeros((1, 3)), DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, np.zeros((1, 3)), W)
    assert S.is_full


def test_sstar_chain_is_monotone_decreasing():
    rng = np.random.default_rng(4)
    for _ in range(25):
        A, C, B = rand_system(rng)
        W = infimal_conditioned_invariant(A, C, image(B))
        S, hist = infimal_unobservability_subspace(A, C, W, return_history=True)
        dims = [h.dim for h in hist]
        assert dims == sorted(dims, reverse=True)
        assert len(hist) <= A.shape[0] + 2
        assert contains(S, W)
        # fixed point: S = W* + (A^-1 S ∩ Ker C)
        from geouio.subspaces import preimage, subspace_sum
        rhs = subspace_sum(W, intersect(preimage(A, S), kernel(C)))
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
        W = infimal_conditioned_invariant(A, C, image(B))
        S = infimal_unobservability_subspace(A, C, W)
        L0 = common_friend(A, C, [W, S])
        AL = A + L0 @ C
        for sub in (W, S):
            if 0 < sub.dim < A.shape[0]:
                P = canonical_projection(sub)
                resid = np.linalg.norm(P @ AL @ sub.basis)
                assert resid <= 1e-8 * max(1, np.linalg.norm(A))


# ---------------------------------------------------------------------------
# spectral split


def test_split_demo_system_is_trivial():
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
    S = infimal_unobservability_subspace(A3, C3, W)
    L0 = common_friend(A3, C3, [W, S])
    Xg, Xb = spectral_split(A3, C3, W, S, L0, ALPHA0)
    assert Xg.is_zero and Xb.is_zero


def test_split_diagonal_induced_map():
    # C = 0 makes S* the whole space and the induced map equal to A itself.
    A = np.diag([-1.0, 2.0])
    C = np.zeros((1, 2))
    W = Subspace.zero(2)
    S = infimal_unobservability_subspace(A, C, W)
    Xg, Xb = spectral_split(A, C, W, S, np.zeros((2, 1)), ALPHA0)
    assert Xg.dim == 1 and Xb.dim == 1
    assert np.allclose(np.abs(Xg.basis[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(Xb.basis[:, 0]), [0.0, 1.0])


def test_split_all_good_modes():
    A = np.diag([-1.0, -2.0, -3.0])
    C = np.zeros((1, 3))
    W = Subspace.zero(3)
    S = infimal_unobservability_subspace(A, C, W)
    Xg, Xb = spectral_split(A, C, W, S, np.zeros((3, 1)), ALPHA0)
    assert Xb.is_zero and Xg.dim == 3


def test_split_rejects_a_gain_that_is_not_a_friend():
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
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
        W = infimal_conditioned_invariant(A, C, image(B))
        S = infimal_unobservability_subspace(A, C, W)
        L0 = common_friend(A, C, [W, S])
        Xg, Xb = spectral_split(A, C, W, S, L0, ALPHA0)
        assert Xg.dim + Xb.dim == S.dim - W.dim


def test_invariant_zero_spectrum_is_friend_independent():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        A, C, B = rand_system(rng, n_max=5)
        W = infimal_conditioned_invariant(A, C, image(B))
        S = infimal_unobservability_subspace(A, C, W)
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


# ---------------------------------------------------------------------------
# W_g* and the stabilizing friend


def test_wg_star_trivial_and_full_lifts():
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
    P = canonical_projection(W)
    q = P.shape[0]
    assert subspaces_equal(compute_wg_star(W, Subspace.zero(q)), W)
    S = infimal_unobservability_subspace(A3, C3, W)
    quotient_of_S = image(P @ intersect(S, orth_complement(W)).basis)
    assert subspaces_equal(compute_wg_star(W, quotient_of_S), S)


def test_wg_star_rejects_a_subspace_outside_the_chart():
    W = infimal_conditioned_invariant(A3, C3, DIAG_SPAN)
    with pytest.raises(DimensionMismatch):
        compute_wg_star(W, Subspace.zero(A3.shape[0]))


def test_wg_star_demo_equals_wstar():
    d = decompose(A3, C3, BBAR3, ALPHA0)
    assert subspaces_equal(d.W_g_star, DIAG_SPAN)
    assert d.V.shape[1] == 0


def test_decomposition_sandwich_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        A, C, B = rand_system(rng)
        d = decompose(A, C, B, ALPHA0)
        assert contains(d.W_star, image(B))
        assert contains(d.W_g_star, d.W_star)
        assert contains(d.S_star, d.W_g_star)
        assert d.W_g_star.dim == d.W_star.dim + d.Xbar_b.dim
        ok = d.validate(A, C, B)
        for name, val in ok.items():
            if isinstance(val, bool):
                assert val, name
            else:
                assert val <= 1e-9, (name, val)


def test_rank_condition_forces_wstar_equal_input_span():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(40):
        A, C, B = rand_system(rng)
        if np.linalg.matrix_rank(C @ B) != np.linalg.matrix_rank(B):
            continue
        W = infimal_conditioned_invariant(A, C, image(B))
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
    for given in ((-1.5,), (-0.2, -0.1), (-9.0, 3.0)):
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


def _assert_qr_matches_scipy(qr, a):
    import scipy.linalg as sla

    Q_ref, R_ref = sla.qr(a, mode="full")
    assert np.array_equal(qr(a), Q_ref)
    Q, R = qr(a, with_r=True)
    assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)


@pytest.mark.parametrize("n", range(3, 25))
def test_full_qr_matches_scipy_on_sweep_shapes(n):
    # the sweep factors the n - 2 columns of X outside the updated pair
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, n))
    qr = _FullQR()
    for i, j in _yt_update_order(n)[:3]:
        _assert_qr_matches_scipy(qr, X[:, np.delete(np.arange(n), (i, j))])


@pytest.mark.parametrize("shape", [(3, 1), (6, 2), (6, 5), (12, 1), (12, 11),
                                   (3, 5), (2, 7)])
def test_full_qr_matches_scipy_on_kernel_and_input_shapes(shape):
    # kernel bases factor a transposed product (a Fortran-ordered view);
    # the input matrix B may be tall or wide
    rng = np.random.default_rng(sum(shape))
    qr = _FullQR()
    _assert_qr_matches_scipy(qr, rng.normal(size=shape[::-1]).T)
    _assert_qr_matches_scipy(qr, rng.normal(size=shape))


def test_thirty_sweep_placement_calls_lapack_directly(monkeypatch):
    import scipy.linalg as sla

    def no_qr(*args, **kwargs):
        raise AssertionError("scipy.linalg.qr called")

    queries, calls = {}, {}
    real = synthesis.get_lapack_funcs

    def counting(names, *args, **kwargs):
        def counted(name, routine):
            def call(a, *rest, lwork=None, **kw):
                if lwork == -1:  # orgqr's shape: padded reflectors and tau
                    key = (name, a.shape, *(np.shape(r) for r in rest))
                    queries[key] = queries.get(key, 0) + 1
                else:
                    calls[name] = calls.get(name, 0) + 1
                return routine(a, *rest, lwork=lwork, **kw)
            return call
        return tuple(counted(name, f)
                     for name, f in zip(names, real(names, *args, **kwargs)))

    monkeypatch.setattr(sla, "qr", no_qr)
    monkeypatch.setattr(synthesis, "get_lapack_funcs", counting)
    rng = np.random.default_rng(7)  # scipy needs all 30 sweeps here
    A, B = rng.normal(size=(11, 11)), rng.normal(size=(11, 2))
    _place_real_poles(A, B, ALPHA0.targets(11))
    factored = 1 + 11 + 30 * len(_yt_update_order(11))  # B, kernels, sweeps
    assert calls == {"geqrf": factored, "orgqr": factored}
    assert set(queries.values()) == {1}


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
