"""Per-step reference dynamics, the test oracles of the simulator.

Each right-hand side is written term by term from the observer equations,
one observer or node at a time; the simulator assembles the same maps into
one stacked kernel and steps it with a fixed operator, and the tests check
the two against each other.
"""

import numpy as np

from geouio.distributed import N1, N2
from geouio.simulate import eval_signals


def observer_rhs(obs, part, z, y, u_known) -> np.ndarray:
    """Centralized observer of the input split ``part``:
    dz/dt = Abar_L z + (P B_known) u_known - (P L) y."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    u_known = np.asarray(u_known, dtype=float)
    return (obs.Abar_L @ z + obs.P_Wg @ part.B_known @ u_known
            - obs.P_Wg @ obs.L @ y)


def node_estimate_n1(node, z_i, y_i) -> np.ndarray:
    """Class-1 node estimate: xhat_i = E_i z_i + F_i y_i."""
    return node.E @ np.asarray(z_i, float) + node.F @ np.asarray(y_i, float)


def _disagreement(node, xhat_i, neighbor_estimates) -> np.ndarray:
    s = np.zeros(node.decomp.n)
    for xj in neighbor_estimates:
        s += np.asarray(xj, float) - xhat_i
    return s


def node_rhs_n1(node, z_i, y_i, u_i, neighbor_estimates, chi) -> np.ndarray:
    """Reduced-order node: quotient copy plus consensus drive along V_i."""
    assert node.node_class == N1
    z_i = np.asarray(z_i, float)
    y_i = np.asarray(y_i, float)
    u_i = np.asarray(u_i, float)
    s = _disagreement(node, node_estimate_n1(node, z_i, y_i), neighbor_estimates)
    P, V = node.P_Wstar, node.V
    return (node.Abar_L @ z_i - P @ (node.L @ y_i) + P @ (node.B_known @ u_i)
            + chi * (P @ V) @ (V.T @ s))


def node_rhs_n2(node, xhat_i, y_i, u_i, neighbor_estimates, chi, gamma,
                sign_fn=np.sign) -> np.ndarray:
    """Full-order node: local injection, linear consensus, sign coupling."""
    assert node.node_class == N2
    xhat_i = np.asarray(xhat_i, float)
    y_i = np.asarray(y_i, float)
    u_i = np.asarray(u_i, float)
    s = _disagreement(node, xhat_i, neighbor_estimates)
    Wg = node.Wg_basis
    return (node.A_cl @ xhat_i - node.L @ y_i + node.B_known @ u_i
            + chi * Wg @ (Wg.T @ s) + gamma * Wg @ sign_fn(Wg.T @ s))


def kernel_rhs(kern, signals, sign_fn):
    """f(t, s) = M s + G u(t) + lift . sign(K s) of a simulation kernel."""

    def f(t, s):
        ds = kern.M @ s + kern.G @ eval_signals(signals, t)
        if kern.K.shape[0]:
            ds += kern.lift @ sign_fn(kern.K @ s)
        return ds

    return f
