"""Subspace algebra: worked examples plus randomized structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geouio import subspaces
from geouio.errors import DimensionMismatch, InvarianceViolated
from geouio.subspaces import (Subspace, TolerancePolicy,
                              canonical_projection, contains, image,
                              induced_map, intersect, kernel, margin_monitor,
                              orth_complement, preimage, subspace_sum,
                              subspaces_equal, unobservable_subspace)

# 3-state demo data used throughout (one unknown-input column, two outputs)
A3 = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -2.0, 1.0]])
C3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
BBAR3 = np.array([[1.0], [1.0], [0.0]])


def span(*cols):
    return image(np.column_stack(cols))


def rand_subspace(rng, n, k):
    if k == 0:
        return Subspace.zero(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return Subspace(n, q[:, :k])


# ---------------------------------------------------------------------------
# image / kernel


def test_image_of_single_column():
    V = image(BBAR3)
    assert V.dim == 1
    expected = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.allclose(np.abs(V.basis[:, 0]), np.abs(expected))


def test_image_of_zero_matrix_is_zero_subspace():
    assert image(np.zeros((3, 2))).is_zero


def test_image_of_identity_is_full():
    assert image(np.eye(3)).is_full


def test_kernel_of_output_matrix_is_e3():
    K = kernel(C3)
    assert subspaces_equal(K, span(np.array([0.0, 0.0, 1.0])))


def test_kernel_of_identity_is_zero():
    assert kernel(np.eye(4)).is_zero


def test_kernel_of_zero_map_is_full():
    assert kernel(np.zeros((2, 3))).is_full


# ---------------------------------------------------------------------------
# sum / intersection


def test_sum_of_axes():
    s = subspace_sum(span(np.array([1.0, 0, 0])), span(np.array([0.0, 1, 0])))
    assert s.dim == 2
    assert contains(s, span(np.array([1.0, 0, 0])))


def test_sum_idempotent():
    V = span(np.array([1.0, 2, -1]), np.array([0.0, 1, 1]))
    assert subspaces_equal(subspace_sum(V, V), V)


def test_sum_diagonal_plus_e3():
    # span{(1,1,0)} + span{e3} = all (a, a, c): orthogonal to (1,-1,0)
    s = subspace_sum(image(BBAR3), span(np.array([0.0, 0, 1])))
    assert s.dim == 2
    assert np.allclose(np.array([1.0, -1.0, 0.0]) @ s.basis, 0.0, atol=1e-12)


def test_intersection_unknown_input_with_kernel_is_zero():
    assert intersect(image(BBAR3), kernel(C3)).is_zero


def test_intersection_idempotent():
    V = span(np.array([1.0, 0, 2]), np.array([0.0, 1, 1]))
    assert subspaces_equal(intersect(V, V), V)


def test_intersection_of_coordinate_planes():
    e1, e2, e3 = np.eye(3).T
    got = intersect(span(e1, e2), span(e2, e3))
    assert subspaces_equal(got, span(e2))


def test_binary_ops_reject_mixed_ambient():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.zero(3), Subspace.zero(4))
    with pytest.raises(DimensionMismatch):
        intersect(Subspace.full(2), Subspace.full(3))


# ---------------------------------------------------------------------------
# preimage


def test_preimage_of_zero_is_kernel():
    assert subspaces_equal(preimage(C3, Subspace.zero(2)), kernel(C3))


def test_preimage_under_A_of_plane():
    # {x : Ax in span{(1,1,0), e3}} = {x : 2x1 - 2x2 - x3 = 0} (by hand:
    # the plane is the kernel of (1,-1,0)^T, and (1,-1,0) A = (2,-2,-1)).
    S = subspace_sum(image(BBAR3), span(np.array([0.0, 0, 1])))
    got = preimage(A3, S)
    assert got.dim == 2
    assert np.allclose(np.array([2.0, -2.0, -1.0]) @ got.basis, 0.0, atol=1e-10)


def test_preimage_under_identity():
    V = span(np.array([1.0, 2, 3]), np.array([-1.0, 0, 1]))
    assert subspaces_equal(preimage(np.eye(3), V), V)


# ---------------------------------------------------------------------------
# complement / canonical projection / induced map


def test_orth_complement_of_e3():
    got = orth_complement(span(np.array([0.0, 0, 1])))
    e1, e2 = np.eye(3).T[:2]
    assert subspaces_equal(got, span(e1, e2))


@pytest.mark.parametrize("degenerate, complement", [
    (Subspace.zero, "is_full"), (Subspace.full, "is_zero")], ids=["zero", "full"])
def test_orth_complement_of_degenerate_subspace(monkeypatch, degenerate,
                                                complement):
    monkeypatch.setattr(subspaces, "kernel", None)  # takes no SVD
    with margin_monitor() as rec:
        assert getattr(orth_complement(degenerate(5)), complement)
    assert not rec.margins


def test_orth_complement_orthogonality_and_dims():
    V = image(BBAR3)
    W = orth_complement(V)
    assert V.dim + W.dim == 3
    assert np.abs(V.basis.T @ W.basis).max() < 1e-12


def test_canonical_projection_kills_subspace():
    W = span(np.array([0.0, 0, 1]))
    P = canonical_projection(W)
    assert P.shape == (2, 3)
    assert np.allclose(P @ np.array([0.0, 0, 1]), 0.0, atol=1e-12)
    assert np.allclose(P @ P.T, np.eye(2), atol=1e-12)


def test_canonical_projection_of_zero_is_orthogonal():
    P = canonical_projection(Subspace.zero(3))
    assert P.shape == (3, 3)
    assert np.allclose(P @ P.T, np.eye(3), atol=1e-12)


def test_canonical_projection_of_full_space_has_no_rows():
    assert canonical_projection(Subspace.full(3)).shape == (0, 3)


def test_induced_map_with_zero_subspace_is_similar_to_A():
    W = Subspace.zero(3)
    P = canonical_projection(W)
    Abar = induced_map(A3, W, P)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(Abar)),
                       np.sort_complex(np.linalg.eigvals(A3)))


def test_induced_map_of_identity_is_identity():
    W = span(np.array([1.0, 1, 0]))
    P = canonical_projection(W)
    assert np.allclose(induced_map(np.eye(3), W, P), np.eye(2), atol=1e-12)


def test_induced_map_rejects_noninvariant_subspace():
    W = span(np.array([0.0, 1, 0]))  # A e2 = (-2, 0, -2) not in span{e2}
    P = canonical_projection(W)
    with pytest.raises(InvarianceViolated):
        induced_map(A3, W, P)


# ---------------------------------------------------------------------------
# contains / equal


def test_contains_full_and_zero():
    rng = np.random.default_rng(0)
    V = rand_subspace(rng, 4, 2)
    assert contains(Subspace.full(4), V)
    assert not contains(Subspace.zero(4), V)


def test_equal_is_scale_invariant():
    a = span(np.array([1.0, 1, 0]))
    b = span(np.array([2.0, 2, 0]))
    assert subspaces_equal(a, b)


# ---------------------------------------------------------------------------
# randomized properties


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 2**31 - 1))
def test_dimension_formula(n, kv, kw, seed):
    kv, kw = min(kv, n), min(kw, n)
    rng = np.random.default_rng(seed)
    V, W = rand_subspace(rng, n, kv), rand_subspace(rng, n, kw)
    s = subspace_sum(V, W)
    i = intersect(V, W)
    assert s.dim + i.dim == V.dim + W.dim
    assert contains(s, V) and contains(s, W)
    assert contains(V, i) and contains(W, i)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 3),
       st.integers(0, 2**31 - 1))
def test_preimage_duality(p, n, k, seed):
    # preimage(M, S)^perp = image(M^T basis(S^perp))
    k = min(k, p)
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(p, n))
    S = rand_subspace(rng, p, k)
    left = orth_complement(preimage(M, S))
    right = image(M.T @ orth_complement(S).basis)
    assert subspaces_equal(left, right)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_induced_map_commutation(n, k, seed):
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    blocks = rng.normal(size=(n, n))
    blocks[k:, :k] = 0.0  # first k coordinates invariant in the Q chart
    A = Q @ blocks @ Q.T
    W = Subspace(n, Q[:, :k])
    P = canonical_projection(W)
    Abar = induced_map(A, W, P)
    assert np.linalg.norm(Abar @ P - P @ A) <= 1e-9 * max(1, np.linalg.norm(A))


def test_operations_are_deterministic():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(5, 3))
    N = rng.normal(size=(2, 5))
    a1, a2 = image(M), image(M)
    assert np.array_equal(a1.basis, a2.basis)
    k1, k2 = kernel(N), kernel(N)
    assert np.array_equal(k1.basis, k2.basis)
    s1 = subspace_sum(a1, kernel(N))
    s2 = subspace_sum(a2, kernel(N))
    assert np.array_equal(s1.basis, s2.basis)


def test_unobservable_subspace_matches_observability_matrix():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        C = rng.normal(size=(p, n))
        if rng.random() < 0.5:
            C[:, rng.integers(0, n)] = 0.0
        obs_rows = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        N = unobservable_subspace(C, A)
        assert N.dim == n - np.linalg.matrix_rank(obs_rows)
        if N.dim:
            assert np.linalg.norm(obs_rows @ N.basis) < 1e-7


def _primal_unobservable(C, A):
    """Ker C ∩ A^-1 N iterated from N = Ker C to its first repeated
    dimension, from the public operations."""
    N = kernel(C)
    while True:
        M = intersect(kernel(C), preimage(A, N))
        if M.dim == N.dim:
            return M
        N = M


def test_unobservable_subspace_dual_matches_primal_at_every_dimension(monkeypatch):
    # (C, A) in observability form, [[A11, 0], [A21, A22]] and [C1, 0], in
    # random orthonormal coordinates: the unobservable subspace is the last
    # d coordinates, for every d from 0 to n
    rng = np.random.default_rng(11)
    n, p = 5, 2
    for d in range(n + 1):
        for _ in range(4):
            A = rng.normal(size=(n, n))
            A[:n - d, n - d:] = 0.0
            C = np.zeros((p, n))
            C[:, :n - d] = rng.normal(size=(p, n - d))
            T = np.linalg.qr(rng.normal(size=(n, n)))[0]
            A, C = T @ A @ T.T, C @ T.T
            N = unobservable_subspace(C, A)
            assert N.dim == d
            assert subspaces_equal(N, _primal_unobservable(C, A))
            assert subspaces_equal(N, Subspace(n, T[:, n - d:]))
    # no measurement: everything unobservable, and no 2-norm of A taken
    monkeypatch.setattr(subspaces, "two_norm", None)
    for C in (np.zeros((0, 3)), np.zeros((2, 3))):
        assert unobservable_subspace(C, np.eye(3)).is_full
    with pytest.raises(DimensionMismatch):
        unobservable_subspace(np.ones((1, 2)), np.eye(3))


def test_margin_monitor_flags_near_threshold_decisions():
    with margin_monitor() as rec:
        image(np.array([[1.0, 0.0], [0.0, 5e-10]]))  # just above the rank cut
    assert rec.margins and rec.min_margin < 1e-6
    with margin_monitor() as rec:
        image(np.array([[1.0, 0.0], [0.0, 0.0]]))  # exact zero: stable drop
    assert rec.min_margin > 0.5


def test_orth_complement_is_kept_once_and_notes_no_margin():
    V = image(np.array([[1.0, 0.0], [0.0, 5e-10], [0.0, 0.0]]))
    with margin_monitor() as rec:
        first = orth_complement(V)
        assert orth_complement(V) is first
    assert rec.margins == []
    assert np.array_equal(canonical_projection(V), first.basis.T)


def test_subspace_rejects_nonorthonormal_basis():
    with pytest.raises(DimensionMismatch):
        Subspace(3, np.array([[1.0], [1.0], [0.0]]))


def test_subspace_rejects_a_nan_basis():
    with pytest.raises(DimensionMismatch):
        Subspace(2, np.array([[np.nan], [0.0]]))


@pytest.mark.parametrize("M", [np.array([[np.nan, 1.0]]),
                               np.array([[1.0], [-np.inf]]),
                               np.array([[1j, complex(np.nan, 0.0)]]),
                               np.array([[complex(0.0, np.inf), 1.0]])],
                         ids=["real-nan", "real-inf", "complex-nan", "complex-inf"])
def test_monitored_rank_rejects_non_finite_input_as_image_does(M):
    # raised before LAPACK sees the matrix: no RuntimeWarning under the
    # suite's error::RuntimeWarning filter
    with pytest.raises(DimensionMismatch, match="^matrix has non-finite entries$"):
        subspaces.monitored_rank(M)
    if M.dtype == float:
        with pytest.raises(DimensionMismatch, match="^matrix has non-finite entries$"):
            image(M)


def _orthonormal_bases():
    """Seeded orthonormal bases of every dimension 0..n in R^n, n = 1..24,
    from Gaussian matrices and from matrices of condition about 1e8."""
    rng = np.random.default_rng(5)
    for n in range(1, 25):
        for k in range(n + 1):
            M = rng.standard_normal((n, k))
            if k % 2:
                U, _, Wt = np.linalg.svd(M, full_matrices=False)
                M = (U * np.logspace(0, -8, k)) @ Wt
            V = image(M) if k else Subspace.zero(n)
            assert V.dim == k
            yield V


def test_orth_complement_is_exact_against_the_kernel_oracle():
    for V in _orthonormal_bases():
        n, k = V.ambient_dim, V.dim
        with margin_monitor() as rec:
            comp = orth_complement(V)
            P = canonical_projection(V)
        assert rec.margins == []
        assert comp.dim == n - k and P.shape == (n - k, n)
        assert np.linalg.norm(V.basis.T @ comp.basis) <= 1e-13
        if 0 < k < n:
            assert np.array_equal(comp.basis, kernel(V.basis.T).basis)


def test_intersect_decides_only_the_rank_of_the_sum():
    rng = np.random.default_rng(6)
    for V in _orthonormal_bases():
        if V.is_full:
            continue
        n = V.ambient_dim
        W = rand_subspace(rng, n, int(rng.integers(0, n)))
        with margin_monitor() as cut:
            image(np.hstack([orth_complement(V).basis, orth_complement(W).basis]))
        with margin_monitor() as rec:
            intersect(V, W)
        assert len(rec.margins) == 1 and rec.margins == cut.margins


def test_tolerance_policy_requires_positive_entries():
    with pytest.raises(ValueError):
        TolerancePolicy(rel_rank_tol=0.0)


# ---------------------------------------------------------------------------
# numpy stand-ins for scipy.linalg.block_diag and null_space, bit for bit


@pytest.mark.parametrize("shapes", [
    [(2, 3), (1, 1), (4, 2)],
    [(3, 3)],
    [(6, 0), (6, 2), (6, 0), (6, 1)],   # blocks with no columns keep their rows
    [(0, 4), (2, 2), (0, 1)],           # blocks with no rows keep their columns
    [(0, 0), (3, 0), (0, 2)],
])
def test_block_diag_matches_scipy(shapes):
    import scipy.linalg as sla

    rng = np.random.default_rng(len(shapes))
    blocks = [rng.normal(size=s) for s in shapes]
    out = subspaces._block_diag(*blocks)
    ref = sla.block_diag(*blocks)
    assert out.shape == ref.shape and np.array_equal(out, ref)


@pytest.mark.parametrize("shape, rank", [((3, 6), 3), ((2, 5), 1), ((5, 5), 3),
                                         ((6, 4), 4), ((4, 7), 0), ((1, 3), 1),
                                         ((0, 4), 0)])
def test_null_space_matches_scipy(shape, rank):
    import scipy.linalg as sla

    rng = np.random.default_rng(sum(shape) + rank)
    M = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    Z = subspaces._null_space(M)
    ref = sla.null_space(M)
    assert Z.shape == ref.shape == (shape[1], shape[1] - rank)
    assert np.array_equal(Z, ref)
