"""Centralized observer: existence, classical equivalence, reconstruction, rhs."""

import sys

import numpy as np
import pytest

from geouio import central, subspaces, verify
from geouio.central import (InputPartition, LinSystem, check_uio_condition,
                            classical_rank_condition, estimate,
                            solve_output_reconstruction,
                            synthesize_centralized_uio)
from geouio.errors import (DimensionMismatch, ExistenceFailed, NotSolvable,
                           SpectrumUnassignable)
from geouio.subspaces import Subspace, canonical_projection, image
from geouio.synthesis import SpectralPartition, decompose
from geouio.verify import invariant_checks, random_equivalence_battery

from step_oracles import observer_rhs

A3 = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -2.0, 1.0]])
B3 = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
C3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
ALPHA0 = SpectralPartition(0.0)

# 6-state network plant, viewed centrally through single nodes
A6 = np.array([[0.0, 3, 0, 0, 0, 0], [-2, 0, 1, 0, 0, 0], [0, 0, 0, 2, 0, 0],
               [0, 0, -3, -2, 0, 0], [0, 0, 0, 1, 0, -3], [0, 2, 0, 0, 4, 0]])
B6 = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 0], [1, 0, 1]])
C6_NODE2 = np.array([[0.0, 1, 0, 0, 1, 0]])


def demo_system():
    sys = LinSystem(A3, B3, C3)
    part = InputPartition.from_columns(sys, known_cols=[0], unknown_cols=[1])
    return sys, part


def test_input_partition_validates_columns():
    sys = LinSystem(A3, B3, C3)
    with pytest.raises(DimensionMismatch):
        InputPartition.from_columns(sys, [0], [0])
    with pytest.raises(DimensionMismatch):
        InputPartition.from_columns(sys, [0, 1], [1])


def test_partition_bound_on_unknown_channels():
    # 2 unknown inputs but only 1 output violates #unknown <= p
    sys = LinSystem(A3, B3, C3[:1])
    with pytest.raises(DimensionMismatch):
        InputPartition.from_columns(sys, [], [0, 1])


# ---------------------------------------------------------------------------
# existence condition


def test_existence_condition_demo_system():
    sys, part = demo_system()
    d = decompose(sys.A, sys.C, part.B_unknown, ALPHA0)
    assert check_uio_condition(d)


def test_existence_condition_with_injective_output():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 2))
    d = decompose(A, np.eye(4), B, ALPHA0)
    assert check_uio_condition(d)


def test_existence_condition_fails_with_zero_output():
    C0 = np.zeros((2, 3))
    d = decompose(A3, C0, B3[:, [1]], ALPHA0)
    assert not check_uio_condition(d)


def test_ker_c_is_taken_once_per_decomposition(monkeypatch):
    """The recursions and both existence checks read ``decomp.ker_C``: one
    full SVD of C per decomposition, per synthesis and per battery trial."""
    svd = subspaces._svd
    of_C = []

    def counting(M, full=True, uv=True):
        if full and uv and np.array_equal(M, C):
            of_C.append(M)
        return svd(M, full=full, uv=uv)

    for name, mod in list(sys.modules.items()):
        if name.startswith("geouio") and getattr(mod, "_svd", None) is svd:
            monkeypatch.setattr(mod, "_svd", counting)
    # the battery's one-trial draw of seed 4 admits an observer
    _, _, q, A, C, B = verify._draw(np.random.default_rng(4))
    plant = LinSystem(A, B, C)
    counts = []
    for run in (lambda: decompose(A, C, B),
                lambda: synthesize_centralized_uio(
                    plant, InputPartition.from_columns(plant, (), range(q))),
                lambda: random_equivalence_battery(1, 4)):
        of_C.clear()
        run()
        counts.append(len(of_C))
    assert counts == [1, 1, 1]


# ---------------------------------------------------------------------------
# classical conditions


def test_classical_rank_condition_demo():
    sys, part = demo_system()
    assert np.allclose(sys.C @ part.B_unknown, [[1.0], [1.0]])  # direct multiply
    ci, cii = classical_rank_condition(sys, part)
    assert ci and cii


def test_classical_rank_condition_no_unknown_inputs():
    sys = LinSystem(A3, B3, C3)
    part = InputPartition.from_columns(sys, [0, 1], [])
    ci, _ = classical_rank_condition(sys, part)
    assert ci


def test_classical_rank_condition_node2_view_fails():
    # the unknown channel is invisible to this output: C b = 0
    sys = LinSystem(A6, B6[:, [1]], C6_NODE2)
    part = InputPartition.from_columns(sys, [], [0])
    assert np.allclose(C6_NODE2 @ B6[:, [1]], 0.0)
    ci, _ = classical_rank_condition(sys, part)
    assert not ci


def test_battery_smoke():
    res = random_equivalence_battery(60, seed=7)
    assert res.all_agree
    assert res.marginal_fraction < 0.05


# ---------------------------------------------------------------------------
# output reconstruction


def test_reconstruction_with_trivial_quotient():
    P = canonical_projection(Subspace.zero(3))  # orthogonal 3x3
    E, F = solve_output_reconstruction(P, C3)
    assert np.linalg.norm(E @ P + F @ C3 - np.eye(3)) <= 1e-9
    # E = P^T, F = 0 is also a valid solution of the same identity
    assert np.linalg.norm(P.T @ P - np.eye(3)) <= 1e-12


def test_reconstruction_with_identity_output():
    P = np.zeros((0, 3))
    E, F = solve_output_reconstruction(P, np.eye(3))
    assert np.linalg.norm(F - np.eye(3)) <= 1e-9
    assert E.shape == (3, 0)


def test_reconstruction_matches_pseudoinverse_oracle():
    sys, part = demo_system()
    d = decompose(sys.A, sys.C, part.B_unknown, ALPHA0)
    E, F = solve_output_reconstruction(d.P_Wg, sys.C)
    EF_oracle = np.linalg.pinv(np.vstack([d.P_Wg, sys.C]))
    assert np.linalg.norm(np.hstack([E, F]) - EF_oracle) <= 1e-9
    assert np.linalg.norm(E @ d.P_Wg + F @ sys.C - np.eye(3)) <= 1e-9


def test_reconstruction_unsolvable_when_rows_deficient():
    P = canonical_projection(image(np.array([[1.0], [1.0], [0.0]])))
    with pytest.raises(NotSolvable):
        solve_output_reconstruction(P[:1], np.zeros((1, 3)))


def test_a_failed_reconstruction_solve_is_not_solvable(monkeypatch):
    P = canonical_projection(Subspace.zero(3))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(central, "_lstsq", failing)
    with pytest.raises(NotSolvable) as exc:
        solve_output_reconstruction(P, C3)
    assert "reconstruction solve" in str(exc.value)
    assert "SVD did not converge in Linear Least Squares" in str(exc.value)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# full synthesis


def test_synthesize_demo_observer(central_cfg, central_obs):
    obs, _ = central_obs
    assert obs.z_dim == 2
    checks = invariant_checks(obs, 0.0, central_cfg.system, central_cfg.partition)
    assert list(checks) == ["reconstruction_residual", "commutation_residual",
                            "friend_invariance_residual",
                            "max_re_quotient_spectrum",
                            "quotient_kills_unknown_input",
                            "split_dimension_identity"]
    assert checks["reconstruction_residual"].value <= 1e-9
    assert checks["quotient_kills_unknown_input"].value <= 1e-10
    assert checks["commutation_residual"].value <= 1e-9
    assert checks["friend_invariance_residual"].value <= 1e-9
    assert checks["max_re_quotient_spectrum"].value < 0.0
    assert checks["split_dimension_identity"].value is True
    assert all(c.passed for c in checks.values())


def test_synthesize_without_unknown_inputs_is_full_order():
    sys = LinSystem(A3, B3, C3)
    part = InputPartition.from_columns(sys, [0, 1], [])
    obs = synthesize_centralized_uio(sys, part, ALPHA0)
    assert obs.z_dim == 3
    assert obs.decomp.W_g_star.is_zero
    assert np.linalg.eigvals(obs.Abar_L).real.max() < 0.0


def test_synthesize_fails_with_zero_output():
    sys = LinSystem(A3, B3, np.zeros((2, 3)))
    part = InputPartition.from_columns(sys, [0], [1])
    with pytest.raises(ExistenceFailed) as exc:
        synthesize_centralized_uio(sys, part, ALPHA0)
    assert "Ker C" in str(exc.value)
    d = exc.value.diagnostics["intersection_basis"].shape[1]
    assert d > 0 and exc.value.diagnostics["blocked_dim"] == d
    assert f"in dimension {d}" in str(exc.value)
    assert f"estimable modulo that {d}-dimensional subspace" in str(exc.value)
    assert "T·basis = 0" in str(exc.value)


def test_friend_failure_is_reported_but_programming_errors_propagate(monkeypatch):
    import geouio.central as central
    sys, part = demo_system()
    cause = SpectrumUnassignable("no placement reaches the good region")

    def unassignable(*args, **kwargs):
        raise cause

    monkeypatch.setattr(central, "stabilizing_friend", unassignable)
    with pytest.raises(ExistenceFailed) as exc:
        synthesize_centralized_uio(sys, part, ALPHA0)
    assert exc.value.diagnostics["cause"] is cause

    def buggy(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(central, "stabilizing_friend", buggy)
    with pytest.raises(TypeError):
        synthesize_centralized_uio(sys, part, ALPHA0)


# ---------------------------------------------------------------------------
# observer evaluation


def test_rhs_zero_state_zero_io(central_cfg, central_obs):
    obs, _ = central_obs
    dz = observer_rhs(obs, central_cfg.partition, np.zeros(2), np.zeros(2),
                      np.zeros(1))
    assert np.allclose(dz, 0.0)
    assert np.allclose(estimate(obs, np.zeros(2), np.zeros(2)), 0.0)


def test_estimate_is_exact_on_consistent_data(central_obs):
    obs, _ = central_obs
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=3)
        xhat = estimate(obs, obs.P_Wg @ x, C3 @ x)
        assert np.linalg.norm(xhat - x) <= 1e-9 * max(1, np.linalg.norm(x))


def test_rhs_matches_hand_evaluation(central_cfg, central_obs):
    obs, _ = central_obs
    x0 = np.array([1.0, 2.0, 3.0])
    z0 = np.zeros(2)
    y0 = C3 @ x0
    u0 = np.array([np.sin(0.0)])
    got = observer_rhs(obs, central_cfg.partition, z0, y0, u0)
    # formula evaluated directly from the synthesized matrices
    b_known = B3[:, [0]]
    expected = (obs.Abar_L @ z0 + obs.P_Wg @ b_known @ u0
                - obs.P_Wg @ obs.L @ y0)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, expected, atol=1e-12)


def test_error_dynamics_are_autonomous_in_unknown_input(central_cfg, central_obs):
    # P(Ax + Bu) - rhs(z, Cx, u_known) = Abar (Px - z) for any unknown input
    obs, _ = central_obs
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=3)
        z = rng.normal(size=2)
        u = rng.normal(size=2)  # both channels, unknown part arbitrary
        dz = observer_rhs(obs, central_cfg.partition, z, C3 @ x, u[[0]])
        dzeta = obs.P_Wg @ (A3 @ x + B3 @ u) - dz
        assert np.linalg.norm(dzeta - obs.Abar_L @ (obs.P_Wg @ x - z)) <= 1e-9


def test_random_synthesis_invariants_hold():
    # every successful synthesis must satisfy the invariant suite
    rng = np.random.default_rng(123)
    synthesized = 0
    for _ in range(150):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, min(3, n) + 1))
        q = int(rng.integers(1, min(2, p) + 1))
        A = rng.uniform(-2, 2, (n, n))
        C = rng.uniform(-2, 2, (p, n))
        B = rng.uniform(-2, 2, (n, q + 1))
        sys = LinSystem(A, B, C)
        part = InputPartition.from_columns(sys, [0], list(range(1, q + 1)))
        d = decompose(A, C, part.B_unknown, ALPHA0)
        if not check_uio_condition(d):
            continue
        obs = synthesize_centralized_uio(sys, part, ALPHA0)
        synthesized += 1
        checks = {name: c.value for name, c in
                  invariant_checks(obs, 0.0, sys, part).items()}
        assert checks["reconstruction_residual"] <= 1e-9
        assert checks["quotient_kills_unknown_input"] <= 1e-10
        assert checks["commutation_residual"] <= 1e-9
        assert checks["friend_invariance_residual"] <= 1e-9
        assert checks["max_re_quotient_spectrum"] < 0.0
        assert checks["split_dimension_identity"]
    assert synthesized >= 50
