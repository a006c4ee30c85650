"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one summary line per
criterion.  The two bundled demonstrations are synthesized and simulated at
full resolution by session fixtures (timed), so runtime budgets are asserted
against the actual wall clock of those runs.
"""

import numpy as np

from geouio.simulate import SimConfig, simulate_centralized
from geouio.subspaces import (Subspace, contains, image, intersect, kernel,
                              preimage, subspace_sum, subspaces_equal)
from geouio.synthesis import (infimal_conditioned_invariant,
                              infimal_unobservability_subspace)
from geouio.verify import invariant_checks, random_equivalence_battery


def report(num, name, passed, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. centralized reproduction


def test_criterion_1_centralized_reproduction(central_cfg, central_obs, central_runs):
    traj, traj_alt = central_runs["traj"], central_runs["traj_alt"]
    wall = central_obs[1] + central_runs["wall"] + central_runs["wall_alt"]
    tail = traj.times >= 15.0
    worst_tail = float(np.asarray(traj.err_norm[0])[tail].max())
    decouple = float(np.abs(np.asarray(traj.err_norm[0])
                            - traj_alt.err_norm[0]).max())
    passed = worst_tail < 1e-2 and decouple <= 1e-8 and wall < 5.0
    report(1, "centralized reproduction",
           passed,
           f"max err on t>=15 is {worst_tail:.3e} (< 1e-2), unknown-input "
           f"decoupling gap {decouple:.3e} (<= 1e-8), wall {wall:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. distributed reproduction


def test_criterion_2_distributed_reproduction(dist_cfg, dist_net, dist_run):
    net, wall_synth = dist_net
    traj = dist_run["traj"]
    wall = wall_synth + dist_run["wall"]
    classes_ok = net.n1_ids == [1, 3] and net.n2_ids == [2, 4]
    gains_ok = (np.isclose(net.chi, 1.1 * net.chi_min)
                and np.isclose(net.gamma, 1.1 * net.gamma_min)
                and net.gamma_min > 0)
    errs = np.max(np.stack(traj.err_norm), axis=0)
    worst30 = float(errs[traj.times >= 30.0].max())
    worst15 = float(errs[traj.times >= 15.0].max())
    passed = (classes_ok and gains_ok and worst30 < 5e-2 and worst15 < 2e-1
              and wall < 30.0)
    report(2, "distributed reproduction", passed,
           f"classes N1={net.n1_ids}/N2={net.n2_ids}, gains at 1.1x bounds "
           f"(chi={net.chi:.3f}, gamma={net.gamma:.3f}), max err {worst30:.3e} "
           f"on t>=30 (< 5e-2) and {worst15:.3e} on t>=15 (< 2e-1), "
           f"wall {wall:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. equivalence battery


def test_criterion_3_equivalence_battery():
    res = random_equivalence_battery(500, seed=42)
    frac = res.marginal_fraction
    passed = res.all_agree and frac < 0.05
    report(3, "existence-condition equivalence battery", passed,
           f"{res.agreements}/{res.scored} scored trials agree "
           f"({len(res.disagreements)} disagreements), {len(res.marginal)} "
           f"marginal excluded ({100 * frac:.1f}% < 5%), seed {res.seed}")


# ---------------------------------------------------------------------------
# 4. synthesis invariant suite


def test_criterion_4_synthesis_invariants(central_cfg, central_obs,
                                          dist_cfg, dist_net):
    obs, _ = central_obs
    net, _ = dist_net
    failures = []
    worst = {"reconstruction": 0.0, "decouple": 0.0, "friend": 0.0,
             "spectrum": -np.inf}

    def check(label, checks, alpha):
        rec = checks.get("reconstruction_residual", 0.0)
        dec = checks.get("quotient_kills_unknown_input", 0.0)
        fri = max(checks.get("friend_invariance_residual", 0.0),
                  checks.get("wstar_friend_invariance", 0.0),
                  checks.get("commutation_residual", 0.0))
        spec = checks.get("max_re_quotient_spectrum", -np.inf)
        dims = checks.get("split_dimension_identity", True)
        worst["reconstruction"] = max(worst["reconstruction"], rec)
        worst["decouple"] = max(worst["decouple"], dec)
        worst["friend"] = max(worst["friend"], fri)
        worst["spectrum"] = max(worst["spectrum"], spec)
        if rec > 1e-9:
            failures.append(f"{label}: reconstruction {rec:.2e}")
        if dec > 1e-10:
            failures.append(f"{label}: unknown-input leak {dec:.2e}")
        if fri > 1e-9:
            failures.append(f"{label}: friend invariance {fri:.2e}")
        if not spec < alpha:
            failures.append(f"{label}: spectrum reaches {spec:.2e}")
        if not dims:
            failures.append(f"{label}: split dimension identity broken")

    def values(checks, prefix=""):
        return {name[len(prefix):]: c.value for name, c in checks.items()
                if name.startswith(prefix)}

    check("centralized", values(invariant_checks(
        obs, central_cfg.spectral.alpha, central_cfg.system,
        central_cfg.partition)), central_cfg.spectral.alpha)
    net_checks = invariant_checks(net, dist_cfg.spectral.alpha)
    for nd in net.nodes:
        check(f"node{nd.node_id}", values(net_checks, f"node{nd.node_id}_"),
              dist_cfg.spectral.alpha)
    report(4, "synthesis invariant suite", not failures,
           f"5 artifacts checked; worst residuals: reconstruction "
           f"{worst['reconstruction']:.2e} (<=1e-9), unknown-input leak "
           f"{worst['decouple']:.2e} (<=1e-10), friend/commutation "
           f"{worst['friend']:.2e} (<=1e-9), max Re spectrum "
           f"{worst['spectrum']:.2e} (<0)" + ("; " + "; ".join(failures)
                                              if failures else ""))


# ---------------------------------------------------------------------------
# 5. recursion oracle battery


def _deflation_directions(rng, inner: Subspace, outer: Subspace, n_random=8):
    """Unit vectors in outer, orthogonal to inner, to deflate along."""
    free = intersect(outer, _orth(inner))
    dirs = [free.basis[:, k] for k in range(free.dim)]
    for _ in range(n_random):
        if free.dim == 0:
            break
        c = rng.normal(size=free.dim)
        c /= np.linalg.norm(c)
        dirs.append(free.basis @ c)
    return dirs


def _orth(sub: Subspace) -> Subspace:
    from geouio.subspaces import orth_complement
    return orth_complement(sub)


def _deflate(outer: Subspace, v) -> Subspace:
    """Codimension-1 subspace of ``outer`` orthogonal to direction v."""
    coords = outer.basis.T @ v
    coords /= np.linalg.norm(coords)
    import scipy.linalg as sla
    keep = sla.null_space(coords[None, :])
    return Subspace(outer.ambient_dim, outer.basis @ keep)


def _is_unobservability_subspace(A, C, S: Subspace, a_norm) -> bool:
    """Exhibit S through the defining construction and check it reproduces S."""
    from geouio.errors import NotConditionedInvariant
    from geouio.subspaces import unobservable_subspace
    from geouio.synthesis import friend_gain
    try:
        L = friend_gain(A, C, S)
    except NotConditionedInvariant:
        return False
    CS = C @ S.basis
    H = np.eye(C.shape[0]) - (CS @ np.linalg.pinv(CS) if CS.size
                              else np.zeros((C.shape[0], C.shape[0])))
    N = unobservable_subspace(H @ C, A + L @ C,
                              meas_scale=float(np.linalg.norm(C, 2)))
    return subspaces_equal(N, S)


def test_criterion_5_recursion_oracles():
    rng = np.random.default_rng(2024)
    n_checked = deflations = 0
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, min(3, n) + 1))
        q = int(rng.integers(1, min(2, p) + 1))
        A = rng.uniform(-2.0, 2.0, (n, n))
        C = rng.uniform(-2.0, 2.0, (p, n))
        B = rng.uniform(-2.0, 2.0, (n, q))
        Bspan = image(B)
        KC = kernel(C)
        a_norm = np.linalg.norm(A, 2)
        W = infimal_conditioned_invariant(A, KC, Bspan)
        # (a) containment
        if not contains(W, Bspan):
            failures.append(f"trial {trial}: B not inside W*")
        # (b) conditioned invariance
        core = A @ intersect(W, KC).basis
        if core.size and not contains(W, image(core, scale_floor=a_norm)):
            failures.append(f"trial {trial}: A(W* ∩ Ker C) escapes W*")
        # (c) minimality via one-dimension deflations
        for v in _deflation_directions(rng, Bspan, W):
            Wd = _deflate(W, v)
            deflations += 1
            still_contains = contains(Wd, Bspan)
            inv_core = A @ intersect(Wd, KC).basis
            still_invariant = (not inv_core.size) or contains(
                Wd, image(inv_core, scale_floor=a_norm))
            if still_contains and still_invariant:
                failures.append(f"trial {trial}: deflated W* stays invariant")
        # S*: containment, fixed-point identity, and deflation minimality.
        # A deflated candidate must fail to be an unobservability subspace:
        # either it loses conditioned invariance, or the unobservable
        # subspace of the factored measurement pair strictly exceeds it.
        S = infimal_unobservability_subspace(A, KC, W)
        if not contains(S, W):
            failures.append(f"trial {trial}: W* not inside S*")
        rhs = subspace_sum(W, intersect(preimage(A, S), KC))
        if not subspaces_equal(S, rhs):
            failures.append(f"trial {trial}: S* is not a recursion fixed point")
        for v in _deflation_directions(rng, W, S, n_random=4):
            Sd = _deflate(S, v)
            deflations += 1
            if _is_unobservability_subspace(A, C, Sd, a_norm):
                failures.append(
                    f"trial {trial}: deflated S* is an unobservability subspace")
        n_checked += 1
    passed = not failures and n_checked == 200
    report(5, "invariant-subspace recursion oracles", passed,
           f"{n_checked} systems checked, {deflations} deflation candidates "
           f"all rejected" + ("; " + "; ".join(failures[:5]) if failures else ""))


# ---------------------------------------------------------------------------
# 6. error-dynamics conformance


def _fd_conformance(traj):
    worst = 0.0
    dt = float(traj.times[1] - traj.times[0])
    for q, Abar in zip(traj.quotient_err, traj.quotient_maps):
        if q.shape[1] == 0:
            continue
        dq = (q[2:] - q[:-2]) / (2.0 * dt)
        resid = dq - q[1:-1] @ Abar.T
        worst = max(worst, float(np.linalg.norm(resid, axis=1).max()))
    return worst


def test_criterion_6_error_dynamics_conformance(central_runs, dist_run):
    worst_c = _fd_conformance(central_runs["traj"])
    worst_d = _fd_conformance(dist_run["traj"])
    passed = worst_c <= 1e-4 and worst_d <= 1e-4
    report(6, "quotient error dynamics conformance", passed,
           f"worst finite-difference residual: centralized {worst_c:.3e}, "
           f"distributed {worst_d:.3e} (both <= 1e-4)")


# ---------------------------------------------------------------------------
# 7. integrator order


def test_criterion_7_integrator_order(central_cfg, central_obs):
    obs, _ = central_obs
    base = dict(t_end=2.0, x0=np.array([1.0, 2.0, 3.0]))
    runs = {}
    for dt, stride in ((4e-3, 1), (2e-3, 2), (1e-3, 4)):
        cfg = SimConfig(dt=dt, record_stride=stride, **base)
        runs[dt] = simulate_centralized(central_cfg.system, central_cfg.partition,
                                        obs, central_cfg.signals, cfg)
    d1 = np.abs(runs[4e-3].x - runs[2e-3].x).max()
    d2 = np.abs(runs[2e-3].x - runs[1e-3].x).max()
    factor = float(d1 / d2)
    passed = 8.0 <= factor <= 32.0
    report(7, "integrator order (step halving)", passed,
           f"deviation shrank by {factor:.1f}x (within [8, 32]); "
           f"coarse-vs-half {d1:.3e}, half-vs-quarter {d2:.3e}")
