"""Networked observer: classification, per-node synthesis, gains, node dynamics."""

import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from geouio import distributed as dist, subspaces

from geouio.central import LinSystem
from geouio.distributed import (N1, N2, NodeSpec, SensorGraph,
                                build_consensus_blocks, classify_nodes,
                                gain_bounds, joint_detectability_check,
                                node_estimate_n1, node_rhs_n1, node_rhs_n2,
                                per_node_decomposition,
                                recoverability_intersection,
                                synthesize_distributed)
from geouio.errors import AssumptionViolated, DimensionMismatch
from geouio.subspaces import Subspace, contains, image, subspaces_equal
from geouio.synthesis import SpectralPartition

ALPHA0 = SpectralPartition(0.0)

A6 = np.array([[0.0, 3, 0, 0, 0, 0], [-2, 0, 1, 0, 0, 0], [0, 0, 0, 2, 0, 0],
               [0, 0, -3, -2, 0, 0], [0, 0, 0, 1, 0, -3], [0, 2, 0, 0, 4, 0]])
B6 = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 0], [1, 0, 1]])
C_ROWS = {
    1: np.array([[1.0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
    2: np.array([[0.0, 1, 0, 0, 1, 0]]),
    3: np.array([[0.0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),
    4: np.array([[1.0, 1, 0, 0, 0, 0]]),
}
KNOWN = {1: (0, 1), 2: (0, 2), 3: (1, 2), 4: (0,)}
UNKNOWN = {1: (2,), 2: (1,), 3: (0,), 4: (1, 2)}
RING = SensorGraph(np.array([[0, 1, 0, 1], [1, 0, 1, 0],
                             [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float))


def demo_specs():
    return [NodeSpec(i, C_ROWS[i], KNOWN[i], UNKNOWN[i]) for i in range(1, 5)]


def demo_sys():
    return LinSystem(A6, B6, np.vstack([C_ROWS[i] for i in range(1, 5)]))


# ---------------------------------------------------------------------------
# graph


def test_graph_validation():
    with pytest.raises(DimensionMismatch):
        SensorGraph(np.array([[0, 1], [0, 0]], dtype=float))  # asymmetric
    with pytest.raises(DimensionMismatch):
        SensorGraph(np.array([[1.0]]))  # nonzero diagonal
    with pytest.raises(DimensionMismatch):
        SensorGraph(np.array([[0, 2], [2, 0]], dtype=float))  # not 0/1


def test_ring_is_connected_and_two_components_are_not():
    assert RING.is_connected
    assert RING.algebraic_connectivity > 1e-9
    two = SensorGraph(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
    assert not two.is_connected
    assert np.allclose(RING.laplacian.sum(axis=1), 0.0)


# ---------------------------------------------------------------------------
# classification


def test_demo_classification():
    n1, n2 = classify_nodes(demo_sys(), demo_specs())
    assert n1 == [1, 3]
    assert n2 == [2, 4]
    # direct multiplies behind the classification
    assert np.allclose(C_ROWS[1] @ B6[:, 2], [0.0, 1.0])
    assert np.allclose(C_ROWS[4] @ B6[:, 1], 0.0)
    assert np.allclose(C_ROWS[4] @ B6[:, 2], 0.0)


def test_all_known_inputs_gives_all_class1():
    specs = [NodeSpec(i, C_ROWS[i], (0, 1, 2), ()) for i in range(1, 5)]
    n1, n2 = classify_nodes(demo_sys(), specs)
    assert n1 == [1, 2, 3, 4] and n2 == []


def test_blind_unknown_channels_give_all_class2():
    # every node sees nothing of its unknown channel
    specs = [NodeSpec(1, C_ROWS[2], (0, 2), (1,)),
             NodeSpec(2, C_ROWS[4], (0,), (1, 2))]
    n1, n2 = classify_nodes(demo_sys(), specs)
    assert n1 == [] and n2 == [1, 2]


def test_classification_is_permutation_equivariant():
    sys = demo_sys()
    specs = demo_specs()
    perm = [2, 0, 3, 1]
    n1p, n2p = classify_nodes(sys, [specs[k] for k in perm])
    assert sorted(n1p) == [1, 3] and sorted(n2p) == [2, 4]
    assert classify_nodes(sys, specs) == classify_nodes(sys, specs)


# ---------------------------------------------------------------------------
# per-node synthesis


@pytest.fixture(scope="module")
def demo_nodes(request):
    sys = demo_sys()
    return [per_node_decomposition(sys, sp, ALPHA0) for sp in demo_specs()]


def test_node1_is_class1_with_reconstruction(demo_nodes):
    nd = demo_nodes[0]
    assert nd.node_class == N1
    resid = np.linalg.norm(nd.E @ nd.P_Wstar + nd.F @ nd.C - np.eye(6))
    assert resid <= 1e-9


def test_node4_is_class2_with_nontrivial_decoupled_subspace(demo_nodes):
    nd = demo_nodes[3]
    assert nd.node_class == N2
    assert nd.decomp.W_g_star.dim > 0
    assert nd.E is None


def test_node_with_full_measurement_is_trivial():
    sys = demo_sys()
    spec = NodeSpec(9, np.eye(6), (0, 1), (2,))
    nd = per_node_decomposition(sys, spec, ALPHA0)
    assert nd.node_class == N1
    assert subspaces_equal(nd.decomp.W_star, image(B6[:, [2]]))
    assert np.linalg.norm(nd.E @ nd.P_Wstar + nd.F @ nd.C - np.eye(6)) <= 1e-9


def test_block_relations_per_class1_node(demo_nodes):
    for nd in demo_nodes:
        if nd.node_class != N1:
            continue
        d = nd.decomp
        n = 6
        # rows of the X/W* chart span (W*)^perp
        rowspace = Subspace(n, d.P_Wstar.T)
        perp = Subspace(n, sla.null_space(d.W_star.basis.T)) if d.W_star.dim \
            else Subspace.full(n)
        assert subspaces_equal(rowspace, perp)
        # V sits inside W_g*, orthogonal to W*
        assert contains(d.W_g_star, Subspace(n, d.V))
        if d.W_star.dim and d.V.size:
            assert np.linalg.norm(d.V.T @ d.W_star.basis) <= 1e-9
        # the chart stacks as [P_Wg; V^T] and W_g* = span[W* basis, V]
        assert np.allclose(d.P_Wstar, np.vstack([d.P_Wg, d.V.T]))
        stacked = image(np.hstack([d.W_star.basis, d.V]))
        assert subspaces_equal(stacked, d.W_g_star)


def test_quotient_spectra_are_stable(demo_nodes):
    for nd in demo_nodes:
        if nd.Abarbar.size:
            assert np.linalg.eigvals(nd.Abarbar).real.max() < 0.0


# ---------------------------------------------------------------------------
# joint detectability and gains


def test_demo_joint_detectability(demo_nodes):
    ok, smin = joint_detectability_check(demo_nodes, RING)
    assert ok and smin > 1e-9
    assert recoverability_intersection(demo_nodes).is_zero


def test_disconnected_graph_fails_assumption(demo_nodes):
    two = SensorGraph(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
    ok, _ = joint_detectability_check(demo_nodes, two)
    assert not ok


def test_gram_matrix_routes_agree_on_random_networks():
    rng = np.random.default_rng(12)
    for _ in range(40):
        N = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        adj = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N):
                adj[i, j] = adj[j, i] = float(rng.random() < 0.6)
        graph = SensorGraph(adj)
        blocks = []
        for _k in range(N):
            k = int(rng.integers(0, n + 1))
            q, _ = np.linalg.qr(rng.normal(size=(n, max(k, 1))))
            blocks.append(q[:, :k])
        L = graph.laplacian
        W_V = np.zeros((n * N, sum(b.shape[1] for b in blocks)))
        c = 0
        for k, b in enumerate(blocks):
            W_V[k * n:(k + 1) * n, c:c + b.shape[1]] = b
            c += b.shape[1]
        Q = W_V.T @ np.kron(L, np.eye(n)) @ W_V
        assert np.allclose(Q, Q.T, atol=1e-12)
        if Q.size:
            assert np.linalg.eigvalsh(Q).min() > -1e-10  # always psd
        inter = None
        for b in blocks:
            sub = Subspace(n, b)
            from geouio.subspaces import intersect
            inter = sub if inter is None else intersect(inter, sub)
        gram_pd = Q.size == 0 or np.linalg.eigvalsh(Q).min() > 1e-9
        if graph.is_connected:
            assert gram_pd == inter.is_zero
        elif inter.dim > 0:
            assert not gram_pd


def test_gain_bounds_zero_cases(demo_nodes):
    chi_min, gamma_min, smin = gain_bounds(demo_nodes, RING, u_bar_max=0.0)
    assert gamma_min == 0.0 and chi_min > 0 and smin > 0


def test_gain_bounds_cross_checked_against_fresh_assembly(dist_cfg, dist_net):
    net, _ = dist_net
    # independent re-evaluation from node data
    order = sorted(net.n1_ids) + sorted(net.n2_ids)
    blocks, ablocks = [], []
    for nid in order:
        nd = net.node_by_id(nid)
        blk = nd.V if nd.node_class == N1 else nd.Wg_basis
        blocks.append(blk)
        ablocks.append(blk.T @ nd.A_cl @ blk)
    W_V = sla.block_diag(*blocks)
    A_L = sla.block_diag(*ablocks)
    ids = [nd.node_id for nd in net.nodes]
    perm = [ids.index(i) for i in order]
    Lp = net.graph.laplacian[np.ix_(perm, perm)]
    Q = W_V.T @ np.kron(Lp, np.eye(6)) @ W_V
    smin = np.linalg.svd(Q, compute_uv=False).min()
    chi_min = np.linalg.norm(A_L, 2) / smin
    n2 = [net.node_by_id(i) for i in net.n2_ids]
    gamma_min = (net.u_bar_max
                 * max(np.linalg.norm(nd.B_unknown, 1) for nd in n2)
                 * max(np.linalg.norm(nd.Wg_basis, np.inf) for nd in n2))
    assert np.isclose(chi_min, net.chi_min, rtol=1e-9)
    assert np.isclose(gamma_min, net.gamma_min, rtol=1e-9)
    assert np.isclose(smin, net.sigma_min_Q, rtol=1e-9)


def test_gamma_bound_is_monotone_in_unknown_channel_norm():
    sys = demo_sys()
    nodes = [per_node_decomposition(sys, sp, ALPHA0) for sp in demo_specs()]
    _, gamma_min, _ = gain_bounds(nodes, RING, u_bar_max=0.2)
    # doubling an unknown channel of a class-2 node (same span, bigger norm)
    B_scaled = B6.copy()
    B_scaled[:, 1] *= 2.0
    sys2 = LinSystem(A6, B_scaled, sys.C)
    nodes2 = [per_node_decomposition(sys2, sp, ALPHA0) for sp in demo_specs()]
    _, gamma_min2, _ = gain_bounds(nodes2, RING, u_bar_max=0.2)
    assert gamma_min2 >= gamma_min


# ---------------------------------------------------------------------------
# full synthesis


def test_synthesize_demo_network(dist_cfg, dist_net):
    net, _ = dist_net
    assert net.n1_ids == [1, 3] and net.n2_ids == [2, 4]
    assert net.chi > net.chi_min and net.gamma > net.gamma_min
    checks = net.validate(dist_cfg.system)
    for name, val in checks.items():
        if isinstance(val, (bool, np.bool_)):
            assert val, name
        elif "residual" in name or "orthogonal" in name:
            assert val <= 1e-9, (name, val)
        elif "spectrum" in name:
            assert val < 0.0, (name, val)


def test_synthesis_builds_consensus_blocks_once(dist_cfg, dist_net, monkeypatch):
    net, _ = dist_net
    calls = []

    def counted(nodes):
        calls.append(1)
        return build_consensus_blocks(nodes)

    monkeypatch.setattr(dist, "build_consensus_blocks", counted)
    again = synthesize_distributed(dist_cfg.system, dist_cfg.node_specs,
                                   dist_cfg.graph, dist_cfg.spectral,
                                   u_bar_max=dist_cfg.u_bar_max)
    assert len(calls) == 1
    assert (again.chi, again.gamma, again.sigma_min_Q) == (
        net.chi, net.gamma, net.sigma_min_Q)
    assert joint_detectability_check(net.nodes, net.graph) == (
        True, net.sigma_min_Q)
    assert gain_bounds(net.nodes, net.graph, net.u_bar_max) == (
        net.chi_min, net.gamma_min, net.sigma_min_Q)


def test_synthesize_rejects_disconnected_graph():
    sys = demo_sys()
    two = SensorGraph(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
    with pytest.raises(AssumptionViolated) as exc:
        synthesize_distributed(sys, demo_specs(), two, ALPHA0, u_bar_max=0.2)
    assert exc.value.assumption == 1


def test_synthesize_rejects_jointly_unrecoverable_network():
    # both nodes see only x1, and the unknown input drives x3
    C = np.array([[1.0, 0, 0]])
    sys_ = LinSystem(np.diag([-1.0, -2, -3]), np.array([[0.0], [0], [1]]),
                     np.vstack([C, C]))
    pair = SensorGraph(np.array([[0, 1], [1, 0]], dtype=float))
    with pytest.raises(AssumptionViolated) as exc:
        synthesize_distributed(sys_, [NodeSpec(i, C, (), (0,)) for i in (1, 2)],
                               pair, ALPHA0)
    diag = exc.value.diagnostics
    assert exc.value.assumption == 3
    assert diag["failed_route"] == "both" and diag["intersection_dim"] >= 1
    assert diag["sigma_min_Q"] <= dist.GRAM_FLOOR
    assert "jointly unrecoverable directions remain" in str(exc.value)
    assert f"intersection dimension {diag['intersection_dim']}" in str(exc.value)


def test_assumption_3_names_a_gram_only_failure(dist_cfg, monkeypatch):
    consensus = dist._consensus
    monkeypatch.setattr(dist, "_consensus", lambda nodes, graph: replace(
        consensus(nodes, graph), sigma_min=1e-12))
    with pytest.raises(AssumptionViolated) as exc:
        synthesize_distributed(dist_cfg.system, dist_cfg.node_specs,
                               dist_cfg.graph, dist_cfg.spectral,
                               u_bar_max=dist_cfg.u_bar_max)
    diag = exc.value.diagnostics
    assert exc.value.assumption == 3
    assert diag["failed_route"] == "gram" and diag["intersection_dim"] == 0
    assert diag["sigma_min_Q"] == 1e-12
    msg = str(exc.value)
    assert "Gram matrix is singular" in msg and "unrecoverable" not in msg
    assert "sigma_min_Q = 1.00e-12" in msg


def test_single_node_degenerates_to_centralized():
    # a single node satisfying the centralized condition, no blind directions
    A = np.array([[2.0, -2, 0], [0, 0, 1], [0, -2, 1]])
    B = np.array([[0.0, 1], [0, 1], [1, 0]])
    C = np.array([[1.0, 0, 0], [0, 1, 0]])
    sys = LinSystem(A, B, C)
    graph = SensorGraph(np.zeros((1, 1)))
    net = synthesize_distributed(sys, [NodeSpec(1, C, (0,), (1,))], graph,
                                 ALPHA0, u_bar_max=1.0)
    nd = net.nodes[0]
    assert nd.node_class == N1 and nd.V.shape[1] == 0
    assert net.chi == 0.1  # floor when the coupling bound is vacuous
    # consensus term vanishes: no neighbors
    dz = node_rhs_n1(nd, np.zeros(nd.z_dim), np.zeros(2), np.zeros(1), [],
                     net.chi)
    assert np.allclose(dz, 0.0)


# ---------------------------------------------------------------------------
# node dynamics


def test_class1_rhs_consensus_vanishes_at_agreement(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    z = nd.P_Wstar @ x
    y = nd.C @ x
    est = node_estimate_n1(nd, z, y)
    assert np.linalg.norm(est - x) <= 1e-9 * max(1, np.linalg.norm(x))
    with_neighbors = node_rhs_n1(nd, z, y, np.zeros(2), [est, est], net.chi)
    without = node_rhs_n1(nd, z, y, np.zeros(2), [], net.chi)
    assert np.allclose(with_neighbors, without, atol=1e-9)


def test_class1_rhs_chi_zero_is_decoupled(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(3)
    rng = np.random.default_rng(4)
    z = rng.normal(size=nd.z_dim)
    y = rng.normal(size=nd.C.shape[0])
    u = rng.normal(size=len(nd.known_cols))
    other = rng.normal(size=6)
    base = nd.Abar_L @ z - nd.P_Wstar @ (nd.L @ y) + nd.P_Wstar @ (nd.B_known @ u)
    got = node_rhs_n1(nd, z, y, u, [other], 0.0)
    assert np.allclose(got, base, atol=1e-12)


def test_class1_rhs_hand_evaluation(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(1)
    x0 = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    z = np.zeros(nd.z_dim)
    y = nd.C @ x0
    u = np.array([0.0, 0.2])  # sin(0) and 0.2 cos(0)
    others = [np.zeros(6), np.zeros(6)]
    got = node_rhs_n1(nd, z, y, u, others, net.chi)
    xhat = nd.E @ z + nd.F @ y
    s = (others[0] - xhat) + (others[1] - xhat)
    expected = (nd.Abar_L @ z - nd.P_Wstar @ nd.L @ y
                + nd.P_Wstar @ nd.B_known @ u
                + net.chi * nd.P_Wstar @ nd.V @ (nd.V.T @ s))
    assert np.allclose(got, expected, atol=1e-12)
    assert np.all(np.isfinite(got))


def test_class2_rhs_perfect_consensus_reduces_to_local(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(2)
    rng = np.random.default_rng(5)
    xhat = rng.normal(size=6)
    y = nd.C @ xhat
    u = rng.normal(size=len(nd.known_cols))
    got = node_rhs_n2(nd, xhat, y, u, [xhat, xhat], net.chi, net.gamma)
    local = nd.A_cl @ xhat - nd.L @ y + nd.B_known @ u
    assert np.allclose(got, local, atol=1e-9)


def test_class2_rhs_hand_evaluation(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(2)
    x0 = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    xhat = np.zeros(6)
    y = nd.C @ x0
    u = np.array([0.0, 0.2])  # known channels of node 2 at t = 0
    others = [x0, 0.5 * x0]
    got = node_rhs_n2(nd, xhat, y, u, others, net.chi, net.gamma)
    s = (others[0] - xhat) + (others[1] - xhat)
    Wg = nd.Wg_basis
    expected = (nd.A_cl @ xhat - nd.L @ y + nd.B_known @ u
                + net.chi * Wg @ (Wg.T @ s)
                + net.gamma * Wg @ np.sign(Wg.T @ s))
    assert np.allclose(got, expected, atol=1e-12)


def test_class2_rhs_zero_gains_still_finite(dist_cfg, dist_net):
    net, _ = dist_net
    nd = net.node_by_id(4)
    rng = np.random.default_rng(6)
    got = node_rhs_n2(nd, rng.normal(size=6), rng.normal(size=1),
                      rng.normal(size=1), [rng.normal(size=6)], 0.0, 0.0)
    assert np.all(np.isfinite(got))


def test_block_matrices_follow_class_order(dist_net):
    net, _ = dist_net
    W_V, A_L, ordered = build_consensus_blocks(net.nodes)
    assert [nd.node_id for nd in ordered] == [1, 3, 2, 4]
    widths = [nd.consensus_block().shape[1] for nd in ordered]
    assert W_V.shape == (24, sum(widths))
    assert A_L.shape == (sum(widths), sum(widths))
    # spot-check one diagonal block
    c = widths[0]
    blk = ordered[1].consensus_block()
    assert np.allclose(W_V[6:12, c:c + widths[1]], blk)


def test_all_class1_network_has_zero_gamma_bound():
    sys = demo_sys()
    specs = [NodeSpec(i, C_ROWS[i], (0, 1, 2), ()) for i in range(1, 5)]
    nodes = [per_node_decomposition(sys, sp, ALPHA0) for sp in specs]
    assert all(nd.node_class == N1 for nd in nodes)
    _, gamma_min, _ = gain_bounds(nodes, RING, u_bar_max=5.0)
    assert gamma_min == 0.0
    W_V, _, ordered = build_consensus_blocks(nodes)
    assert W_V.shape[1] == sum(nd.V.shape[1] for nd in ordered)


def test_random_network_synthesis_invariants_hold():
    rng = np.random.default_rng(321)
    synthesized = 0
    for _ in range(60):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        A = rng.uniform(-2, 2, (n, n))
        B = rng.uniform(-2, 2, (n, m))
        specs, rows = [], []
        for i in range(N):
            C_i = rng.uniform(-2, 2, (int(rng.integers(1, 3)), n))
            rows.append(C_i)
            n_unknown = int(rng.integers(0, m + 1))
            unknown = tuple(sorted(
                rng.choice(m, size=n_unknown, replace=False).tolist()))
            known = tuple(j for j in range(m) if j not in unknown)
            specs.append(NodeSpec(i + 1, C_i, known, unknown))
        sys = LinSystem(A, B, np.vstack(rows))
        adj = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N):
                adj[i, j] = adj[j, i] = float(rng.random() < 0.7)
        try:
            net = synthesize_distributed(sys, specs, SensorGraph(adj), ALPHA0,
                                         u_bar_max=float(rng.uniform(0, 1)))
        except AssumptionViolated:
            continue
        synthesized += 1
        for name, val in net.validate(sys).items():
            if isinstance(val, (bool, np.bool_)):
                assert val, name
            elif "residual" in name or "orthogonal" in name:
                assert val <= 1e-9, (name, val)
            elif "spectrum" in name:
                assert val < 0.0, (name, val)
    assert synthesized >= 20


def covered_network(seed, n=12, N=16, m=3):
    """Hurwitz plant over a ring; a node with r output rows has at least r
    of its m inputs unknown, and at least one known."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = M - (np.linalg.eigvals(M).real.max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    specs = []
    for i in range(N):
        C_i = rng.standard_normal((int(rng.integers(1, 3)), n))
        unknown = tuple(sorted(rng.choice(
            m, size=int(rng.integers(C_i.shape[0], m)), replace=False).tolist()))
        known = tuple(j for j in range(m) if j not in unknown)
        specs.append(NodeSpec(i + 1, C_i, known, unknown))
    ring = np.roll(np.eye(N), 1, axis=1)
    sys_ = LinSystem(A, B, np.vstack([sp.C for sp in specs]))
    return sys_, specs, SensorGraph(ring + ring.T)


@pytest.mark.parametrize("which", ["demo", "covered N16"])
def test_synthesis_complements_each_subspace_once(dist_cfg, monkeypatch, which):
    if which == "demo":
        sys_, specs, graph = dist_cfg.system, dist_cfg.node_specs, dist_cfg.graph
    else:
        sys_, specs, graph = covered_network(0)
    complemented, repeats = {}, []
    kernel = subspaces.kernel

    def watched(M, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is subspaces.orth_complement.__code__:
            V, tol = caller.f_locals["V"], caller.f_locals["tol"]
            # keyed on the basis array, so a re-wrapped basis is a repeat
            key = (V.basis.ctypes.data, V.basis.shape, tol.rel_rank_tol)
            if key in complemented:
                repeats.append(V)
            complemented[key] = V  # held, so no later basis reuses the address
        return kernel(M, *args, **kwargs)

    monkeypatch.setattr(subspaces, "kernel", watched)
    synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    assert complemented and not repeats
