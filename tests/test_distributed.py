"""Networked observer: classification, per-node synthesis, gains, node dynamics."""

import copy
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from geouio import distributed as dist, subspaces, verify

from geouio.cases import builtin_config
from geouio.central import InputPartition, LinSystem, synthesize_centralized_uio
from geouio.config import parse_config
from geouio.distributed import (N1, N2, NodeSpec, SensorGraph,
                                build_consensus_blocks, gain_bounds,
                                joint_detectability_check,
                                per_node_decomposition,
                                recoverability_intersection,
                                synthesize_distributed)
from geouio.errors import AssumptionViolated, DimensionMismatch, GeoUioError
from geouio.subspaces import (Subspace, contains, image, margin_monitor,
                              subspaces_equal)
from geouio.synthesis import SpectralPartition, stabilizing_friend
from geouio.verify import invariant_checks

from forks import count_forks
from step_oracles import node_estimate_n1, node_rhs_n1, node_rhs_n2

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


def classes(sys, specs):
    """Ids of the class-1 and the class-2 nodes that per-node synthesis
    builds from ``specs``, each in the order given."""
    nodes = [per_node_decomposition(sys, sp, ALPHA0) for sp in specs]
    return ([nd.node_id for nd in nodes if nd.node_class == N1],
            [nd.node_id for nd in nodes if nd.node_class == N2])


def test_demo_classification():
    n1, n2 = classes(demo_sys(), demo_specs())
    assert n1 == [1, 3]
    assert n2 == [2, 4]
    # direct multiplies behind the classification
    assert np.allclose(C_ROWS[1] @ B6[:, 2], [0.0, 1.0])
    assert np.allclose(C_ROWS[4] @ B6[:, 1], 0.0)
    assert np.allclose(C_ROWS[4] @ B6[:, 2], 0.0)


def test_all_known_inputs_gives_all_class1():
    specs = [NodeSpec(i, C_ROWS[i], (0, 1, 2), ()) for i in range(1, 5)]
    n1, n2 = classes(demo_sys(), specs)
    assert n1 == [1, 2, 3, 4] and n2 == []


def test_blind_unknown_channels_give_all_class2():
    # every node sees nothing of its unknown channel
    specs = [NodeSpec(1, C_ROWS[2], (0, 2), (1,)),
             NodeSpec(2, C_ROWS[4], (0,), (1, 2))]
    n1, n2 = classes(demo_sys(), specs)
    assert n1 == [] and n2 == [1, 2]


def test_classification_is_permutation_equivariant():
    sys = demo_sys()
    specs = demo_specs()
    perm = [2, 0, 3, 1]
    n1p, n2p = classes(sys, [specs[k] for k in perm])
    assert sorted(n1p) == [1, 3] and sorted(n2p) == [2, 4]
    assert classes(sys, specs) == classes(sys, specs)


# ---------------------------------------------------------------------------
# per-node synthesis


@pytest.fixture(scope="module")
def demo_nodes(request):
    sys = demo_sys()
    return [per_node_decomposition(sys, sp, ALPHA0) for sp in demo_specs()]


def test_node1_is_class1_with_reconstruction(demo_nodes):
    nd = demo_nodes[0]
    assert nd.node_class == N1
    resid = np.linalg.norm(nd.E @ nd.decomp.P_Wstar + nd.F @ nd.C - np.eye(6))
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
    assert np.linalg.norm(nd.E @ nd.decomp.P_Wstar + nd.F @ nd.C - np.eye(6)) <= 1e-9


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


def network_gains(nodes, graph, u_bar_max):
    """(chi_min, gamma_min, sigma_min_Q) from the network steps, in order."""
    _, A_L, ordered = build_consensus_blocks(nodes)
    smin = joint_detectability_check(nodes, graph, ordered)
    return (*gain_bounds(A_L, smin, nodes, u_bar_max), smin)


def test_demo_joint_detectability(demo_nodes):
    ordered = build_consensus_blocks(demo_nodes)[2]
    assert joint_detectability_check(demo_nodes, RING, ordered) > 1e-9
    assert recoverability_intersection(demo_nodes).is_zero


def test_recoverability_intersection_reads_each_nodes_consensus_block(
        demo_nodes, monkeypatch):
    # one place decides a node's consensus block: patched there, the
    # intersection follows on every node, class 1 and class 2 alike
    block = np.eye(6)[:, [1, 4]]
    block.setflags(write=False)
    assert {nd.node_class for nd in demo_nodes} == {N1, N2}
    monkeypatch.setattr(dist.SensorNode, "consensus_block", lambda nd: block)
    inter = recoverability_intersection(demo_nodes)
    assert subspaces_equal(inter, Subspace(6, block))


def test_disconnected_graph_fails_assumption(demo_nodes):
    two = SensorGraph(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
    ordered = build_consensus_blocks(demo_nodes)[2]
    with pytest.raises(AssumptionViolated) as exc:
        joint_detectability_check(demo_nodes, two, ordered)
    assert exc.value.assumption == 1


def test_joint_detectability_needs_one_node_per_vertex(demo_nodes):
    # three of the four ring nodes gave a sigma_min_Q ten times the network's
    nodes = demo_nodes[:3]
    with pytest.raises(DimensionMismatch, match="graph size"):
        joint_detectability_check(nodes, RING, build_consensus_blocks(nodes)[2])


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
    chi_min, gamma_min, smin = network_gains(demo_nodes, RING, u_bar_max=0.0)
    assert gamma_min == 0.0 and chi_min > 0 and smin > 0


def by_id(net):
    return {nd.node_id: nd for nd in net.nodes}


def _fresh_blocks(net):
    """Node ids in class order, their consensus blocks and coupling restrictions."""
    order = sorted(net.n1_ids) + sorted(net.n2_ids)
    blocks, ablocks = [], []
    for nid in order:
        nd = by_id(net)[nid]
        blk = nd.decomp.V if nd.node_class == N1 else nd.decomp.W_g_star.basis
        blocks.append(blk)
        ablocks.append(blk.T @ nd.A_cl @ blk)
    return order, blocks, ablocks


def test_gain_bounds_cross_checked_against_fresh_assembly(dist_cfg, dist_net):
    net, _ = dist_net
    # independent re-evaluation from node data
    order, blocks, ablocks = _fresh_blocks(net)
    W_V = sla.block_diag(*blocks)
    A_L = sla.block_diag(*ablocks)
    ids = [nd.node_id for nd in net.nodes]
    perm = [ids.index(i) for i in order]
    Lp = net.graph.laplacian[np.ix_(perm, perm)]
    Q = W_V.T @ np.kron(Lp, np.eye(6)) @ W_V
    smin = np.linalg.svd(Q, compute_uv=False).min()
    chi_min = np.linalg.norm(A_L, 2) / smin
    n2 = [by_id(net)[i] for i in net.n2_ids]
    gamma_min = (net.u_bar_max
                 * max(np.linalg.norm(nd.B_unknown, 1) for nd in n2)
                 * max(np.linalg.norm(nd.decomp.W_g_star.basis, np.inf)
                       for nd in n2))
    assert np.isclose(chi_min, net.chi_min, rtol=1e-9)
    assert np.isclose(gamma_min, net.gamma_min, rtol=1e-9)
    assert np.isclose(smin, net.sigma_min_Q, rtol=1e-9)


def test_block_helpers_match_scipy_on_the_demo(dist_net):
    net, _ = dist_net
    _, blocks, ablocks = _fresh_blocks(net)
    W_V, A_L, _ = build_consensus_blocks(net.nodes)
    assert np.array_equal(W_V, sla.block_diag(*blocks))
    assert np.array_equal(A_L, sla.block_diag(*ablocks))
    assert np.array_equal(subspaces._block_diag(*blocks), W_V)
    for nd in net.nodes:
        if nd.decomp.W_star.dim:
            W = nd.decomp.W_star.basis.T
            assert np.array_equal(subspaces._null_space(W), sla.null_space(W))


def test_gamma_bound_is_monotone_in_unknown_channel_norm():
    sys = demo_sys()
    nodes = [per_node_decomposition(sys, sp, ALPHA0) for sp in demo_specs()]
    _, gamma_min, _ = network_gains(nodes, RING, u_bar_max=0.2)
    # doubling an unknown channel of a class-2 node (same span, bigger norm)
    B_scaled = B6.copy()
    B_scaled[:, 1] *= 2.0
    sys2 = LinSystem(A6, B_scaled, sys.C)
    nodes2 = [per_node_decomposition(sys2, sp, ALPHA0) for sp in demo_specs()]
    _, gamma_min2, _ = network_gains(nodes2, RING, u_bar_max=0.2)
    assert gamma_min2 >= gamma_min


# ---------------------------------------------------------------------------
# full synthesis


def test_synthesize_demo_network(dist_cfg, dist_net):
    net, _ = dist_net
    assert net.n1_ids == [1, 3] and net.n2_ids == [2, 4]
    assert net.chi > net.chi_min and net.gamma > net.gamma_min
    checks = invariant_checks(net, 0.0)
    for name, c in checks.items():
        val = c.value
        if isinstance(val, bool):
            assert val, name
        elif "residual" in name or "orthogonal" in name:
            assert val <= 1e-9, (name, val)
        elif "spectrum" in name:
            assert val < 0.0, (name, val)
    # network rows first, then each node's in config order, class-1 ones
    # ending with their reconstruction rows
    assert list(checks)[:5] == ["graph_connected", "sigma_min_Q",
                                "chi_exceeds_bound", "gamma_exceeds_bound",
                                "block_matrices_match"]
    for nd in net.nodes:
        rows = [name for name in checks if name.startswith(f"node{nd.node_id}_")]
        assert len(rows) == (10 if nd.node_class == N1 else 8)
        assert rows[0] == f"node{nd.node_id}_local_rank_condition_matches_class"
    assert len(checks) == 5 + 2 * 10 + 2 * 8


def test_synthesis_builds_consensus_blocks_once(dist_cfg, dist_net, monkeypatch):
    """One synthesis runs each network step once, and each node's once."""
    net, _ = dist_net
    steps = ("per_node_decomposition", "build_consensus_blocks",
             "joint_detectability_check", "gain_bounds")
    calls = {name: 0 for name in steps}

    def counted(name, step):
        def call(*args):
            calls[name] += 1
            return step(*args)
        return call

    for name in steps:
        monkeypatch.setattr(dist, name, counted(name, getattr(dist, name)))
    again = synthesize_distributed(dist_cfg.system, dist_cfg.node_specs,
                                   dist_cfg.graph, dist_cfg.spectral,
                                   u_bar_max=dist_cfg.u_bar_max)
    assert calls == {"per_node_decomposition": len(dist_cfg.node_specs),
                     "build_consensus_blocks": 1,
                     "joint_detectability_check": 1, "gain_bounds": 1}
    assert (again.chi, again.gamma, again.sigma_min_Q) == (
        net.chi, net.gamma, net.sigma_min_Q)


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
    # the one SVD of the module is the Gram matrix's
    monkeypatch.setattr(dist, "_svd", lambda Q, uv: np.full(len(Q), 1e-12))
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
    assert nd.node_class == N1 and nd.decomp.V.shape[1] == 0
    assert net.chi == 0.1  # floor when the coupling bound is vacuous
    # consensus term vanishes: no neighbors
    dz = node_rhs_n1(nd, np.zeros(nd.z_dim), np.zeros(2), np.zeros(1), [],
                     net.chi)
    assert np.allclose(dz, 0.0)


# ---------------------------------------------------------------------------
# Bridge relations: the centralized problem is the one-node network, and
# copying a node over a connected graph leaves the network's verdict as it is.


def _verdict(synthesize):
    """(whether the design synthesizes, the least margin of its decisions)."""
    with margin_monitor() as rec:
        try:
            synthesize()
            ok = True
        except DimensionMismatch:
            raise
        except GeoUioError:
            ok = False
    return ok, rec.min_margin


def _copies(sys_, q, k, graph):
    """Verdict of k copies of the node that measures C and knows no input."""
    specs = [NodeSpec(i + 1, sys_.C, (), range(q)) for i in range(k)]
    return _verdict(lambda: synthesize_distributed(sys_, specs, SensorGraph(graph)))


def _bridge_draws(count, seed):
    """Battery draws (plant, unknown-input count), as verify draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, p, q, A, C, B = verify._draw(rng)
        yield LinSystem(A, B, C), q


def test_one_node_network_synthesizes_exactly_when_the_centralized_uio_does():
    verdicts = []
    for trial, (sys_, q) in enumerate(_bridge_draws(200, 4)):
        part = InputPartition.from_columns(sys_, (), range(q))
        central = _verdict(lambda: synthesize_centralized_uio(sys_, part))
        network = _copies(sys_, q, 1, np.zeros((1, 1)))
        if min(central[1], network[1]) < verify.MARGINAL_GAP:
            continue
        assert network[0] == central[0], f"draw {trial} of seed 4"
        verdicts.append(central[0])
    assert len(verdicts) >= 190 and 50 <= sum(verdicts) <= len(verdicts) - 50


def test_copying_a_node_leaves_the_network_verdict_unchanged():
    graphs = {f"{kind} {k}": graph for k in (2, 3) for kind, graph in (
        ("path", np.eye(k, k=1) + np.eye(k, k=-1)),
        ("complete", np.ones((k, k)) - np.eye(k)))}
    verdicts = []
    for trial, (sys_, q) in enumerate(_bridge_draws(50, 5)):
        one, margin = _copies(sys_, q, 1, np.zeros((1, 1)))
        copies = {name: _copies(sys_, q, len(g), g) for name, g in graphs.items()}
        if min(margin, *(m for _, m in copies.values())) < verify.MARGINAL_GAP:
            continue
        for name, (ok, _) in copies.items():
            assert ok == one, f"draw {trial} of seed 5, {name}"
        verdicts.append(one)
    assert len(verdicts) >= 45 and 10 <= sum(verdicts) <= len(verdicts) - 10


def test_one_node_network_has_the_centralized_dimensions_and_class():
    """Where both designs synthesize, clear of every margin: the node's W*,
    S* and W_g* have the centralized dimensions, and it is class 1 exactly
    when rank(C Bbar) = rank(Bbar), by numpy's rank."""
    dims = lambda d: (d.W_star.dim, d.S_star.dim, d.W_g_star.dim)
    compared = set()
    for trial, (sys_, q) in enumerate(_bridge_draws(200, 4)):
        part = InputPartition.from_columns(sys_, (), range(q))
        with margin_monitor() as rec:
            try:
                obs = synthesize_centralized_uio(sys_, part)
                net = synthesize_distributed(
                    sys_, [NodeSpec(1, sys_.C, (), range(q))],
                    SensorGraph(np.zeros((1, 1))))
            except GeoUioError:
                continue
        if rec.min_margin < verify.MARGINAL_GAP:
            continue
        (nd,) = net.nodes
        assert dims(nd.decomp) == dims(obs.decomp), f"draw {trial} of seed 4"
        rank = np.linalg.matrix_rank
        held = rank(sys_.C @ part.B_unknown) == rank(part.B_unknown)
        assert (nd.node_class == N1) == held, f"draw {trial} of seed 4"
        compared.add(dims(obs.decomp))
    assert len(compared) >= 3  # more than one shape of design


# ---------------------------------------------------------------------------
# node dynamics


def test_class1_rhs_consensus_vanishes_at_agreement(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[1]
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    z = nd.decomp.P_Wstar @ x
    y = nd.C @ x
    est = node_estimate_n1(nd, z, y)
    assert np.linalg.norm(est - x) <= 1e-9 * max(1, np.linalg.norm(x))
    with_neighbors = node_rhs_n1(nd, z, y, np.zeros(2), [est, est], net.chi)
    without = node_rhs_n1(nd, z, y, np.zeros(2), [], net.chi)
    assert np.allclose(with_neighbors, without, atol=1e-9)


def test_class1_rhs_chi_zero_is_decoupled(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[3]
    rng = np.random.default_rng(4)
    z = rng.normal(size=nd.z_dim)
    y = rng.normal(size=nd.C.shape[0])
    u = rng.normal(size=len(nd.known_cols))
    other = rng.normal(size=6)
    P = nd.decomp.P_Wstar
    base = nd.Abar_L @ z - P @ (nd.L @ y) + P @ (nd.B_known @ u)
    got = node_rhs_n1(nd, z, y, u, [other], 0.0)
    assert np.allclose(got, base, atol=1e-12)


def test_class1_rhs_hand_evaluation(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[1]
    x0 = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    z = np.zeros(nd.z_dim)
    y = nd.C @ x0
    u = np.array([0.0, 0.2])  # sin(0) and 0.2 cos(0)
    others = [np.zeros(6), np.zeros(6)]
    got = node_rhs_n1(nd, z, y, u, others, net.chi)
    xhat = nd.E @ z + nd.F @ y
    s = (others[0] - xhat) + (others[1] - xhat)
    P, V = nd.decomp.P_Wstar, nd.decomp.V
    expected = (nd.Abar_L @ z - P @ nd.L @ y + P @ nd.B_known @ u
                + net.chi * P @ V @ (V.T @ s))
    assert np.allclose(got, expected, atol=1e-12)
    assert np.all(np.isfinite(got))


def test_class2_rhs_perfect_consensus_reduces_to_local(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[2]
    rng = np.random.default_rng(5)
    xhat = rng.normal(size=6)
    y = nd.C @ xhat
    u = rng.normal(size=len(nd.known_cols))
    got = node_rhs_n2(nd, xhat, y, u, [xhat, xhat], net.chi, net.gamma)
    local = nd.A_cl @ xhat - nd.L @ y + nd.B_known @ u
    assert np.allclose(got, local, atol=1e-9)


def test_class2_rhs_hand_evaluation(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[2]
    x0 = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    xhat = np.zeros(6)
    y = nd.C @ x0
    u = np.array([0.0, 0.2])  # known channels of node 2 at t = 0
    others = [x0, 0.5 * x0]
    got = node_rhs_n2(nd, xhat, y, u, others, net.chi, net.gamma)
    s = (others[0] - xhat) + (others[1] - xhat)
    Wg = nd.decomp.W_g_star.basis
    expected = (nd.A_cl @ xhat - nd.L @ y + nd.B_known @ u
                + net.chi * Wg @ (Wg.T @ s)
                + net.gamma * Wg @ np.sign(Wg.T @ s))
    assert np.allclose(got, expected, atol=1e-12)


def test_class2_rhs_zero_gains_still_finite(dist_cfg, dist_net):
    net, _ = dist_net
    nd = by_id(net)[4]
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


def test_block_matrices_match_fails_on_a_tiny_perturbation(dist_cfg, dist_net):
    """The stored blocks and the rebuilt ones come from the same
    deterministic construction, so one entry moved by 1e-7 of itself, well
    inside np.allclose's tolerance, fails the row."""
    net, _ = dist_net
    alpha = dist_cfg.spectral.alpha
    assert invariant_checks(net, alpha)["block_matrices_match"].passed
    moved = copy.copy(net)
    moved.A_L_block = net.A_L_block.copy()
    i, j = np.unravel_index(np.abs(moved.A_L_block).argmax(), moved.A_L_block.shape)
    moved.A_L_block[i, j] *= 1 + 1e-7
    assert np.allclose(moved.A_L_block, net.A_L_block)
    assert not invariant_checks(moved, alpha)["block_matrices_match"].passed


def test_all_class1_network_has_zero_gamma_bound():
    sys = demo_sys()
    specs = [NodeSpec(i, C_ROWS[i], (0, 1, 2), ()) for i in range(1, 5)]
    nodes = [per_node_decomposition(sys, sp, ALPHA0) for sp in specs]
    assert all(nd.node_class == N1 for nd in nodes)
    _, gamma_min, _ = network_gains(nodes, RING, u_bar_max=5.0)
    assert gamma_min == 0.0
    W_V, _, ordered = build_consensus_blocks(nodes)
    assert W_V.shape[1] == sum(nd.decomp.V.shape[1] for nd in ordered)


def test_a_blind_node_friend_does_not_depend_on_the_wg_basis():
    # Node 2 of the all-class-1 network: C W_g* is exactly zero, so the
    # computed C W_g* is rounding noise that no gain may be fitted to.
    C = C_ROWS[2]
    decomp = per_node_decomposition(demo_sys(), NodeSpec(2, C, (0, 1, 2), ()),
                                    ALPHA0).decomp
    Wg = decomp.W_g_star
    assert Wg.dim == 2 and np.abs(C @ Wg.basis).max() < 1e-15

    def design(basis):
        L, Abar = stabilizing_friend(A6, C, Subspace(6, basis), ALPHA0,
                                     W_star=decomp.W_star)
        return L, np.sort_complex(np.linalg.eigvals(Abar))

    L, placed = design(Wg.basis)
    assert placed.real.max() < ALPHA0.placement_bound
    rng = np.random.default_rng(5)
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        L_q, placed_q = design(Wg.basis @ Q)
        assert np.allclose(placed_q, placed, rtol=0, atol=1e-9)
        assert np.allclose(L_q, L, rtol=0, atol=1e-9)


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
        for name, c in invariant_checks(net, 0.0).items():
            val = c.value
            if isinstance(val, bool):
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
    svd = subspaces._svd

    def watched(M, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is subspaces.orth_complement.__code__:
            V = caller.f_locals["V"]
            # keyed on the basis array, so a re-wrapped basis is a repeat
            key = (V.basis.ctypes.data, V.basis.shape)
            if key in complemented:
                repeats.append(V)
            complemented[key] = V  # held, so no later basis reuses the address
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(subspaces, "_svd", watched)
    synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    assert complemented and not repeats


@pytest.mark.parametrize("coords", [0, 1, 2, 3, 4, "permutation"])
def test_demo_keeps_its_node_classes_in_other_state_coordinates(dist_net, coords):
    # Node 2's C B_unknown is exactly zero in the demo's own coordinates and
    # rounding noise in rotated ones: C loses Im B_unknown in both.
    rng = np.random.default_rng(0 if coords == "permutation" else coords)
    Q = (np.eye(6)[rng.permutation(6)] if coords == "permutation"
         else np.linalg.qr(rng.standard_normal((6, 6)))[0])
    raw = builtin_config("distributed")
    A, B, C = (np.array(raw["system"][k]) for k in "ABC")
    raw["system"] = {"A": (Q.T @ A @ Q).tolist(), "B": (Q.T @ B).tolist(),
                     "C": (C @ Q).tolist()}
    cfg = parse_config(raw)
    net = synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph,
                                 cfg.spectral, u_bar_max=cfg.u_bar_max)
    base, _ = dist_net

    def dims(network):
        return [(nd.decomp.W_star.dim, nd.decomp.S_star.dim, nd.decomp.W_g_star.dim)
                for nd in network.nodes]

    assert (net.n1_ids, net.n2_ids) == (base.n1_ids, base.n2_ids)
    assert dims(net) == dims(base)
    failed = [c.name for c in verify.synthesis_residual_checks(cfg) if not c.passed]
    assert not failed


@pytest.mark.parametrize("which", ["demo", 0, 1, 2, 3])
def test_node_order_does_not_change_a_network(dist_cfg, which):
    if which == "demo":
        sys_, specs, graph = dist_cfg.system, dist_cfg.node_specs, dist_cfg.graph
        spectral, u_bar_max = dist_cfg.spectral, dist_cfg.u_bar_max
        order = [2, 0, 3, 1]
    else:
        sys_, specs, graph = covered_network(which, N=8)
        spectral, u_bar_max = SpectralPartition(), 0.2
        order = np.random.default_rng(which).permutation(8).tolist()
    base = synthesize_distributed(sys_, specs, graph, spectral, u_bar_max)
    # the same network, its nodes listed in another order
    net = synthesize_distributed(
        sys_, [specs[i] for i in order],
        SensorGraph(graph.adjacency[np.ix_(order, order)]), spectral, u_bar_max)
    assert (net.chi, net.gamma, net.sigma_min_Q) == (
        base.chi, base.gamma, base.sigma_min_Q)
    assert np.array_equal(net.W_V_block, base.W_V_block)
    assert np.array_equal(net.A_L_block, base.A_L_block)
    assert set(net.n1_ids) == set(base.n1_ids)
    assert set(net.n2_ids) == set(base.n2_ids)


@pytest.mark.parametrize("which", ["demo", 4, 8, 16, 32])
def test_consensus_gram_matches_its_kronecker_form(dist_cfg, monkeypatch, which):
    """Q is built as (S^T S) * L[owner, owner]; the oracle is W_V^T (L (x)
    I_n) W_V, L permuted into the block order."""
    if which == "demo":
        sys_, specs, graph = dist_cfg.system, dist_cfg.node_specs, dist_cfg.graph
    else:
        sys_, specs, graph = covered_network(0, N=which)
    grams = []
    svd = dist._svd

    def kept(M, *args, **kwargs):
        grams.append(M)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(dist, "_svd", kept)
    net = synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    (Q,) = grams
    ids = [nd.node_id for nd in net.nodes]
    perm = [ids.index(i) for i in sorted(net.n1_ids) + sorted(net.n2_ids)]
    Lp = graph.laplacian[np.ix_(perm, perm)]
    W_V = net.W_V_block
    oracle = W_V.T @ np.kron(Lp, np.eye(sys_.n)) @ W_V
    assert Q.shape == oracle.shape and Q.shape[0] > 0
    assert abs(Q - oracle).max() <= 1e-13 * abs(oracle).max()


@pytest.mark.parametrize("which", ["demo", "covered N32"])
def test_synthesis_forks_nothing(dist_cfg, monkeypatch, which):
    if which == "demo":
        sys_, specs, graph = dist_cfg.system, dist_cfg.node_specs, dist_cfg.graph
    else:
        sys_, specs, graph = covered_network(2, N=32)
    forks = count_forks(monkeypatch)
    synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    assert forks == []


class NodeFailed(Exception):
    pass


@pytest.mark.parametrize("node_id", [3, 13])
def test_a_raising_node_raises_from_the_call(monkeypatch, node_id):
    sys_, specs, graph = covered_network(0, n=12, N=16)
    build = dist.per_node_decomposition

    def raising(sys_, spec, spectral, tol):
        if spec.node_id == node_id:
            raise NodeFailed(f"node {node_id} failed")
        return build(sys_, spec, spectral, tol)

    monkeypatch.setattr(dist, "per_node_decomposition", raising)
    with pytest.raises(NodeFailed, match=f"node {node_id} failed"):
        synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
