"""Networked unknown-input observers over a sensor graph.

Nodes split into two classes by the local rank test rank(C_i Bbar_i) =
rank(Bbar_i).  Class-1 nodes run a reduced observer on X/W_i* and recover
their locally-blind directions (spanned by V_i) through linear consensus;
class-2 nodes run full-order observers whose unknown-input leakage is
dominated by a sign-coupling term.  Gains come from the spectral-norm /
minimum-singular-value bound on the consensus Gram matrix.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import _workers
from .errors import AssumptionViolated, DimensionMismatch, SingularQ
from .subspaces import (DEFAULT_POLICY, Subspace, TolerancePolicy, _block_diag,
                        _svd, as_matrix, intersect, two_norm)
from .central import LinSystem, _rank_condition, solve_output_reconstruction
from .synthesis import (GeometricDecomposition, SpectralPartition, decompose,
                        stabilizing_friend)

N1 = "N1"
N2 = "N2"

# The consensus Gram matrix counts as singular at or below this sigma_min.
GRAM_FLOOR = 1e-9
# chi when its lower bound chi_min is zero.
CHI_FALLBACK = 0.1
# A network's nodes are synthesized in one process per this many nodes, up
# to the CPUs the synthesis may run on and _workers._MAX_WORKERS.
_NODES_PER_WORKER = 8


class NodeSpec:
    """Raw description of one sensor node before synthesis."""

    __slots__ = ("node_id", "C", "known_cols", "unknown_cols")

    def __init__(self, node_id: int, C: np.ndarray, known_cols: tuple,
                 unknown_cols: tuple):
        self.node_id = node_id
        self.C = as_matrix(C, f"C_{node_id}")
        self.known_cols = tuple(int(i) for i in known_cols)
        self.unknown_cols = tuple(int(i) for i in unknown_cols)


class SensorGraph:
    """Undirected communication graph given by a symmetric 0/1 adjacency."""

    # No __slots__: the cached properties below keep their values in the
    # instance __dict__.

    def __init__(self, adjacency: np.ndarray):
        A = as_matrix(adjacency, "adjacency")
        N = A.shape[0]
        if A.shape != (N, N):
            raise DimensionMismatch("adjacency must be square")
        if not np.array_equal(A, A.T):
            raise DimensionMismatch("adjacency must be symmetric")
        if np.any(np.diag(A) != 0):
            raise DimensionMismatch("adjacency diagonal must be zero")
        if not np.all(np.isin(A, (0.0, 1.0))):
            raise DimensionMismatch("adjacency entries must be 0 or 1")
        A.setflags(write=False)
        self.adjacency = A

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def laplacian(self) -> np.ndarray:
        L = np.diag(self.adjacency.sum(axis=1)) - self.adjacency
        L.setflags(write=False)
        return L

    @cached_property
    def algebraic_connectivity(self) -> float:
        if self.n_nodes == 1:
            return np.inf
        return float(np.sort(np.linalg.eigvalsh(self.laplacian))[1])

    @property
    def is_connected(self) -> bool:
        return self.n_nodes == 1 or self.algebraic_connectivity > 1e-9


class SensorNode:
    """One synthesized node of the networked observer."""

    __slots__ = ("node_id", "C", "B_known", "B_unknown", "known_cols",
                 "unknown_cols", "node_class", "decomp", "L", "A_cl",
                 "Abarbar", "E", "F", "Abar_L")

    def __init__(self, node_id: int, C: np.ndarray, B_known: np.ndarray,
                 B_unknown: np.ndarray, known_cols: tuple, unknown_cols: tuple,
                 node_class: str, decomp: GeometricDecomposition,
                 L: np.ndarray, A_cl: np.ndarray, Abarbar: np.ndarray,
                 E: np.ndarray | None = None, F: np.ndarray | None = None,
                 Abar_L: np.ndarray | None = None):
        self.node_id = node_id
        self.C = C
        self.B_known = B_known
        self.B_unknown = B_unknown
        self.known_cols = known_cols
        self.unknown_cols = unknown_cols
        self.node_class = node_class
        self.decomp = decomp
        self.L = L
        self.A_cl = A_cl              # A + L C
        self.Abarbar = Abarbar        # induced map on X/W_g,i*
        self.E = E                    # class-1 reconstruction pair
        self.F = F
        self.Abar_L = Abar_L          # class-1 induced map on X/W_i*

    @property
    def V(self) -> np.ndarray:
        return self.decomp.V

    @property
    def Wg_basis(self) -> np.ndarray:
        return self.decomp.W_g_star.basis

    @property
    def P_Wstar(self) -> np.ndarray:
        return self.decomp.P_Wstar

    @property
    def P_Wg(self) -> np.ndarray:
        return self.decomp.P_Wg

    @property
    def z_dim(self) -> int:
        n = self.decomp.n
        return n - self.decomp.W_star.dim if self.node_class == N1 else n

    def consensus_block(self) -> np.ndarray:
        """V_i for class 1, the W_g,i* insertion for class 2."""
        return self.V if self.node_class == N1 else self.Wg_basis

    def coupling_restriction(self) -> np.ndarray:
        """Restriction of A + L C to the consensus block directions."""
        blk = self.consensus_block()
        return blk.T @ self.A_cl @ blk


class DistributedObserverNetwork:
    """All synthesized nodes plus the consensus gains and block matrices."""

    __slots__ = ("nodes", "graph", "chi", "gamma", "u_bar_max", "safety",
                 "W_V_block", "A_L_block", "chi_min", "gamma_min",
                 "sigma_min_Q")

    def __init__(self, nodes: tuple, graph: SensorGraph, chi: float,
                 gamma: float, u_bar_max: float, safety: float,
                 W_V_block: np.ndarray, A_L_block: np.ndarray, chi_min: float,
                 gamma_min: float, sigma_min_Q: float):
        self.nodes = nodes
        self.graph = graph
        self.chi = chi
        self.gamma = gamma
        self.u_bar_max = u_bar_max
        self.safety = safety
        self.W_V_block = W_V_block
        self.A_L_block = A_L_block
        self.chi_min = chi_min
        self.gamma_min = gamma_min
        self.sigma_min_Q = sigma_min_Q

    @property
    def n1_ids(self):
        return [nd.node_id for nd in self.nodes if nd.node_class == N1]

    @property
    def n2_ids(self):
        return [nd.node_id for nd in self.nodes if nd.node_class == N2]

    def node_by_id(self, node_id) -> SensorNode:
        for nd in self.nodes:
            if nd.node_id == node_id:
                return nd
        raise KeyError(node_id)


# ---------------------------------------------------------------------------
# Synthesis steps.


def classify_nodes(sys: LinSystem, node_specs,
                   tol: TolerancePolicy = DEFAULT_POLICY):
    """Split node ids by the local rank condition rank(C_i Bbar_i) = rank(Bbar_i)."""
    n1, n2 = [], []
    for spec in node_specs:
        ok = _rank_condition(spec.C, sys.B[:, list(spec.unknown_cols)], tol)
        (n1 if ok else n2).append(spec.node_id)
    return n1, n2


def per_node_decomposition(sys: LinSystem, spec: NodeSpec,
                           spectral: SpectralPartition = SpectralPartition(),
                           tol: TolerancePolicy = DEFAULT_POLICY) -> SensorNode:
    """Run the geometric pipeline for one node and populate its observer data."""
    cols = sorted(spec.known_cols + spec.unknown_cols)
    if cols != list(range(sys.m)):
        raise DimensionMismatch(
            f"node {spec.node_id}: known/unknown columns must partition the inputs")
    B_known = sys.B[:, list(spec.known_cols)]
    B_unknown = sys.B[:, list(spec.unknown_cols)]
    is_n1 = _rank_condition(spec.C, B_unknown, tol)
    decomp = decompose(sys.A, spec.C, B_unknown, spectral, tol)
    L, Abarbar = stabilizing_friend(sys.A, spec.C, decomp.W_g_star, spectral,
                                    tol, W_star=decomp.W_star)
    A_cl = sys.A + L @ spec.C
    E = F = Abar_L = None
    if is_n1:
        E, F = solve_output_reconstruction(decomp.P_Wstar, spec.C, tol)
        Abar_L = decomp.P_Wstar @ A_cl @ decomp.P_Wstar.T
    return SensorNode(node_id=spec.node_id, C=spec.C, B_known=B_known,
                      B_unknown=B_unknown, known_cols=spec.known_cols,
                      unknown_cols=spec.unknown_cols,
                      node_class=N1 if is_n1 else N2, decomp=decomp, L=L,
                      A_cl=A_cl, Abarbar=Abarbar, E=E, F=F, Abar_L=Abar_L)


def _worker_count(nodes: int) -> int:
    """Processes that synthesize a network of ``nodes`` nodes, the caller
    included."""
    return _workers.count(nodes, _NODES_PER_WORKER)


def _synthesize_nodes(sys: LinSystem, node_specs, spectral: SpectralPartition,
                      tol: TolerancePolicy) -> tuple:
    """``per_node_decomposition`` of every node, in order, in one contiguous
    range of nodes per process (``_workers.map_ranges``).

    Each node is local to its own ``(A, C_i, B_i)``, so the ranges are
    independent.  A node built in a worker comes back whole, every array
    with the bytes, strides and write flag it had there, as a node built
    here has them.
    """
    specs = list(node_specs)
    return tuple(_workers.map_ranges(
        lambda i: per_node_decomposition(sys, specs[i], spectral, tol),
        len(specs), _worker_count(len(specs))))


def _class_order(nodes):
    """Class-1 nodes first (ascending id), then class-2: the block convention."""
    n1 = sorted([nd for nd in nodes if nd.node_class == N1], key=lambda d: d.node_id)
    n2 = sorted([nd for nd in nodes if nd.node_class == N2], key=lambda d: d.node_id)
    return n1 + n2


def build_consensus_blocks(nodes):
    """Block-diagonal W_V and A_L in class order; returns (W_V, A_L, ordered nodes)."""
    ordered = _class_order(nodes)
    W_V = _block_diag(*(nd.consensus_block() for nd in ordered))
    A_L = _block_diag(*(nd.coupling_restriction() for nd in ordered))
    return W_V, A_L, ordered


def _permuted_laplacian(graph: SensorGraph, nodes, ordered):
    ids = [nd.node_id for nd in nodes]
    perm = [ids.index(nd.node_id) for nd in ordered]
    L = graph.laplacian
    return L[np.ix_(perm, perm)]


def recoverability_intersection(nodes, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Directions invisible to every node: ∩ Im V_i (class 1) ∩ W_g,j* (class 2)."""
    n = nodes[0].decomp.n
    inter = None
    for nd in nodes:
        sub = (Subspace(n, nd.V) if nd.node_class == N1
               else nd.decomp.W_g_star)
        inter = sub if inter is None else intersect(inter, sub, tol)
        if inter.is_zero:
            break
    return inter


class _Consensus:
    """The consensus blocks of one set of nodes, and sigma_min of their Gram."""

    __slots__ = ("W_V", "A_L", "ordered", "sigma_min")

    def __init__(self, W_V: np.ndarray, A_L: np.ndarray, ordered: list,
                 sigma_min: float):
        self.W_V = W_V
        self.A_L = A_L
        self.ordered = ordered
        self.sigma_min = sigma_min


def _consensus(nodes, graph: SensorGraph) -> _Consensus:
    """Blocks and sigma_min of Q = W_V^T (L (x) I) W_V (inf if W_V is empty)."""
    W_V, A_L, ordered = build_consensus_blocks(nodes)
    if W_V.shape[1] == 0:
        return _Consensus(W_V, A_L, ordered, np.inf)
    Lp = _permuted_laplacian(graph, nodes, ordered)
    Q = W_V.T @ np.kron(Lp, np.eye(ordered[0].decomp.n)) @ W_V
    return _Consensus(W_V, A_L, ordered,
                      float(_svd(Q, uv=False).min()))


def _undetectable(cons: _Consensus, inter: Subspace):
    """(failed route, cause) if joint detectability fails, else None.

    The Gram-matrix route is cross-checked by the recoverability
    intersection; the two disagree only in numerically marginal situations.
    """
    gram_ok = cons.sigma_min > GRAM_FLOOR
    if gram_ok != inter.is_zero:
        return (("intersection", "the recoverability intersection is nonzero "
                 "but the consensus Gram matrix is not singular") if gram_ok else
                ("gram", "the consensus Gram matrix is singular but the "
                 "recoverability intersection is zero"))
    return None if gram_ok else ("both", "jointly unrecoverable directions remain")


def _gain_bounds(cons: _Consensus, u_bar_max: float):
    """(chi_min, gamma_min, sigma_min) from the consensus data."""
    if u_bar_max < 0:
        raise ValueError("u_bar_max must be nonnegative")
    sigma_min, A_L = cons.sigma_min, cons.A_L
    if sigma_min <= GRAM_FLOOR:
        raise SingularQ(
            f"consensus Gram matrix is singular (sigma_min = {sigma_min:.2e})")
    chi_min = two_norm(A_L) / sigma_min
    n2 = [nd for nd in cons.ordered if nd.node_class == N2]
    if n2 and u_bar_max > 0:
        gamma_min = (u_bar_max
                     * max(np.linalg.norm(nd.B_unknown, 1) for nd in n2)
                     * max(np.linalg.norm(nd.Wg_basis, np.inf) for nd in n2))
    else:
        gamma_min = 0.0
    return chi_min, gamma_min, sigma_min


def joint_detectability_check(nodes, graph: SensorGraph,
                              tol: TolerancePolicy = DEFAULT_POLICY):
    """(ok, sigma_min_Q): Gram-matrix route, cross-checked by direct intersection."""
    cons = _consensus(nodes, graph)
    inter = recoverability_intersection(nodes, tol)
    return graph.is_connected and _undetectable(cons, inter) is None, cons.sigma_min


def gain_bounds(nodes, graph: SensorGraph, u_bar_max: float):
    """Lower bounds (chi_min, gamma_min) for the consensus gains."""
    return _gain_bounds(_consensus(nodes, graph), u_bar_max)


def synthesize_distributed(sys: LinSystem, node_specs, graph: SensorGraph,
                           spectral: SpectralPartition = SpectralPartition(),
                           u_bar_max: float = 0.0,
                           tol: TolerancePolicy = DEFAULT_POLICY,
                           ) -> DistributedObserverNetwork:
    """Full networked synthesis with assumption checks and gain selection."""
    if graph.n_nodes != len(node_specs):
        raise DimensionMismatch("graph size must match the number of nodes")
    if not graph.is_connected:
        raise AssumptionViolated(
            1, "communication graph is not connected",
            diagnostics={"algebraic_connectivity": graph.algebraic_connectivity})
    if u_bar_max < 0:
        raise AssumptionViolated(2, "unknown-input bound must be nonnegative",
                                 diagnostics={"u_bar_max": u_bar_max})
    nodes = _synthesize_nodes(sys, node_specs, spectral, tol)
    cons = _consensus(nodes, graph)
    inter = recoverability_intersection(nodes, tol)
    failure = _undetectable(cons, inter)
    if failure:
        route, cause = failure
        raise AssumptionViolated(
            3, f"{cause} (sigma_min_Q = {cons.sigma_min:.2e}, "
               f"intersection dimension {inter.dim})",
            diagnostics={"failed_route": route,
                         "intersection_basis": inter.basis,
                         "intersection_dim": inter.dim,
                         "sigma_min_Q": cons.sigma_min})
    chi_min, gamma_min, sigma_min = _gain_bounds(cons, u_bar_max)
    safety = spectral.safety
    chi = safety * chi_min if chi_min > 0 else CHI_FALLBACK
    gamma = safety * gamma_min
    return DistributedObserverNetwork(
        nodes=nodes, graph=graph, chi=chi, gamma=gamma, u_bar_max=u_bar_max,
        safety=safety, W_V_block=cons.W_V, A_L_block=cons.A_L,
        chi_min=chi_min, gamma_min=gamma_min, sigma_min_Q=sigma_min)
