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
    def z_dim(self) -> int:
        n = self.decomp.n
        return n - self.decomp.W_star.dim if self.node_class == N1 else n

    def consensus_block(self) -> np.ndarray:
        """V_i for class 1, the W_g,i* insertion for class 2."""
        return (self.decomp.V if self.node_class == N1
                else self.decomp.W_g_star.basis)


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


# ---------------------------------------------------------------------------
# Synthesis steps, in the order synthesize_distributed runs them.


def _require_graph(graph: SensorGraph, n_nodes: int):
    """Raise unless ``graph`` has ``n_nodes`` nodes and is connected."""
    if graph.n_nodes != n_nodes:
        raise DimensionMismatch("graph size must match the number of nodes")
    if not graph.is_connected:
        raise AssumptionViolated(
            1, "communication graph is not connected",
            diagnostics={"algebraic_connectivity": graph.algebraic_connectivity})


def per_node_decomposition(sys: LinSystem, spec: NodeSpec,
                           spectral: SpectralPartition = SpectralPartition(),
                           tol: TolerancePolicy = DEFAULT_POLICY) -> SensorNode:
    """Run the geometric pipeline for one node and populate its observer data;
    the local rank test rank(C_i Bbar_i) = rank(Bbar_i) decides its class."""
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


def build_consensus_blocks(nodes):
    """Block-diagonal W_V and A_L in class order (class-1 nodes first, then
    class-2, each by ascending id); returns (W_V, A_L, ordered nodes).
    A_L's blocks restrict A + L C to each node's consensus block."""
    ordered = sorted(nodes, key=lambda nd: (nd.node_class != N1, nd.node_id))
    blocks = [nd.consensus_block() for nd in ordered]
    W_V = _block_diag(*blocks)
    A_L = _block_diag(*(b.T @ nd.A_cl @ b for nd, b in zip(ordered, blocks)))
    return W_V, A_L, ordered


def recoverability_intersection(nodes, tol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Directions invisible to every node: ∩ Im V_i (class 1) ∩ W_g,j* (class 2)."""
    n = nodes[0].decomp.n
    inter = None
    for nd in nodes:
        block = nd.consensus_block()
        # W_g,j* itself where the block is its basis: its complement is taken
        sub = (nd.decomp.W_g_star if block is nd.decomp.W_g_star.basis
               else Subspace(n, block))
        inter = sub if inter is None else intersect(inter, sub, tol)
        if inter.is_zero:
            break
    return inter


def joint_detectability_check(nodes, graph: SensorGraph, ordered,
                              tol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """sigma_min of the consensus Gram matrix Q = W_V^T (L (x) I) W_V, in the
    block order of ``ordered`` as ``build_consensus_blocks`` returns it (inf
    if W_V is empty).  ``nodes`` come in graph order: vertex k is nodes[k].

    Raises DimensionMismatch for a node count other than the graph's,
    AssumptionViolated(1) for a disconnected graph, and (3), naming the
    route that failed, unless Q is nonsingular and the recoverability
    intersection is zero.  Block (i, j) of Q is L_ij B_i^T B_j for the
    consensus blocks B_i, so Q is (S^T S) * L[owner, owner], with S the
    blocks side by side and ``owner`` the node of each column."""
    _require_graph(graph, len(nodes))
    blocks = [nd.consensus_block() for nd in ordered]
    widths = [b.shape[1] for b in blocks]
    sigma_min = np.inf
    if sum(widths):
        S = np.hstack(blocks)
        owner = np.repeat([nodes.index(nd) for nd in ordered], widths)
        Q = (S.T @ S) * graph.laplacian[np.ix_(owner, owner)]
        sigma_min = float(_svd(Q, uv=False).min())
    inter = recoverability_intersection(nodes, tol)
    gram_ok = sigma_min > GRAM_FLOOR
    if gram_ok and inter.is_zero:
        return sigma_min
    route, cause = (
        ("intersection", "the recoverability intersection is nonzero "
         "but the consensus Gram matrix is not singular") if gram_ok else
        ("gram", "the consensus Gram matrix is singular but the "
         "recoverability intersection is zero") if inter.is_zero else
        ("both", "jointly unrecoverable directions remain"))
    raise AssumptionViolated(
        3, f"{cause} (sigma_min_Q = {sigma_min:.2e}, "
           f"intersection dimension {inter.dim})",
        diagnostics={"failed_route": route,
                     "intersection_basis": inter.basis,
                     "intersection_dim": inter.dim,
                     "sigma_min_Q": sigma_min})


def gain_bounds(A_L: np.ndarray, sigma_min: float, nodes, u_bar_max: float):
    """(chi_min, gamma_min): lower bounds for the consensus gains from A_L
    and sigma_min(Q), the results of the two steps above."""
    if u_bar_max < 0:
        raise ValueError("u_bar_max must be nonnegative")
    if sigma_min <= GRAM_FLOOR:
        raise SingularQ(
            f"consensus Gram matrix is singular (sigma_min = {sigma_min:.2e})")
    chi_min = two_norm(A_L) / sigma_min
    n2 = [nd for nd in nodes if nd.node_class == N2]
    gamma_min = 0.0
    if n2 and u_bar_max > 0:
        gamma_min = (u_bar_max
                     * max(np.linalg.norm(nd.B_unknown, 1) for nd in n2)
                     * max(np.linalg.norm(nd.consensus_block(), np.inf)
                           for nd in n2))
    return chi_min, gamma_min


def synthesize_distributed(sys: LinSystem, node_specs, graph: SensorGraph,
                           spectral: SpectralPartition = SpectralPartition(),
                           u_bar_max: float = 0.0,
                           tol: TolerancePolicy = DEFAULT_POLICY,
                           ) -> DistributedObserverNetwork:
    """Full networked synthesis: the steps above, each once, then the gains.
    ``node_specs`` come in graph order."""
    _require_graph(graph, len(node_specs))
    if u_bar_max < 0:
        raise AssumptionViolated(2, "unknown-input bound must be nonnegative",
                                 diagnostics={"u_bar_max": u_bar_max})
    nodes = tuple(per_node_decomposition(sys, spec, spectral, tol)
                  for spec in node_specs)
    W_V, A_L, ordered = build_consensus_blocks(nodes)
    sigma_min = joint_detectability_check(nodes, graph, ordered, tol)
    chi_min, gamma_min = gain_bounds(A_L, sigma_min, nodes, u_bar_max)
    safety = spectral.safety
    chi = safety * chi_min if chi_min > 0 else CHI_FALLBACK
    gamma = safety * gamma_min
    return DistributedObserverNetwork(
        nodes=nodes, graph=graph, chi=chi, gamma=gamma, u_bar_max=u_bar_max,
        safety=safety, W_V_block=W_V, A_L_block=A_L,
        chi_min=chi_min, gamma_min=gamma_min, sigma_min_Q=sigma_min)
