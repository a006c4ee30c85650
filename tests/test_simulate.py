"""Simulation harness: signals, determinism, decoupling, guards, assembly."""


import numpy as np
import pytest

from geouio.central import (InputPartition, LinSystem,
                            synthesize_centralized_uio)
from geouio.distributed import N1
from geouio.errors import DimensionMismatch, NonFiniteState
from geouio.simulate import (_CHUNK, SignalSpec, SimConfig, _central_kernel,
                             _integrate, _n_steps, _network_kernel,
                             _ScanCounts, _step_operator, error_metrics,
                             eval_signals, simulate_centralized,
                             simulate_distributed)
from geouio.synthesis import SpectralPartition

from records import rebuilt
from step_oracles import (kernel_rhs, node_estimate_n1, node_rhs_n1,
                          node_rhs_n2, observer_rhs)

ALPHA0 = SpectralPartition(0.0)


def test_signal_examples():
    assert eval_signals([SignalSpec("sin", 1.0, 1.0)], 0.0)[0] == 0.0
    assert eval_signals([SignalSpec("cos", 1.0, 0.5)], 0.0)[0] == 1.0
    assert eval_signals([SignalSpec("const", 0.2)], 123.4)[0] == 0.2
    spec = SignalSpec("sin", 2.0, 3.0, phase=0.5)
    assert np.isclose(spec(1.2), 2.0 * np.sin(3.0 * 1.2 + 0.5))
    specs = (spec, SignalSpec("const", 0.2))
    assert eval_signals(specs, 1.5).shape == (2,)
    assert eval_signals(specs, np.zeros((4, 3))).shape == (4, 3, 2)


def test_sim_config_validation():
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=0.0, x0=[1.0])
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, x0=[1.0], dt=2.0)
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, x0=[1.0], method="rk5")
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, x0=[1.0], sign_mode="soft")
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, x0=[1.0], record_stride=0)
    # a bad input, not a divergence at t = dt
    with pytest.raises(DimensionMismatch, match="^x0 has non-finite entries$"):
        SimConfig(t_end=1.0, x0=[np.nan, 0.0, 0.0])


def test_trajectory_shapes_and_uniform_times(central_cfg, central_obs):
    obs, _ = central_obs
    cfg = SimConfig(t_end=0.5, x0=[1.0, 2.0, 3.0], dt=1e-3, record_stride=5)
    traj = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                                central_cfg.signals, cfg)
    assert len(traj.times) == 101
    assert np.allclose(np.diff(traj.times), 5e-3)
    assert traj.x.shape == (101, 3)
    assert traj.xhat[0].shape == (101, 3)
    assert len(traj.err_norm[0]) == 101


def test_determinism_bit_identical(central_cfg, central_obs):
    obs, _ = central_obs
    cfg = SimConfig(t_end=1.0, x0=[1.0, 2.0, 3.0], dt=1e-3)
    t1 = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              central_cfg.signals, cfg)
    t2 = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              central_cfg.signals, cfg)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.err_norm[0], t2.err_norm[0])


def test_zero_initial_error_stays_zero(central_cfg, central_obs):
    obs, _ = central_obs
    x0 = np.array([1.0, 2.0, 3.0])
    cfg = SimConfig(t_end=5.0, x0=x0, dt=1e-3,
                    observer_init=(obs.P_Wg @ x0,))
    traj = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                                central_cfg.signals, cfg)
    assert max(traj.err_norm[0]) <= 1e-6


def test_error_independent_of_known_input(central_cfg, central_obs):
    obs, _ = central_obs
    cfg = SimConfig(t_end=2.0, x0=[1.0, 2.0, 3.0], dt=1e-3)
    sigs_a = central_cfg.signals
    sigs_b = (SignalSpec("const", 0.7), central_cfg.signals[1])
    ta = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              sigs_a, cfg)
    tb = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              sigs_b, cfg)
    assert np.abs(np.asarray(ta.err_norm[0]) - tb.err_norm[0]).max() <= 1e-10


def test_error_independent_of_unknown_input(central_cfg, central_obs):
    obs, _ = central_obs
    cfg = SimConfig(t_end=2.0, x0=[1.0, 2.0, 3.0], dt=1e-3)
    sigs_b = (central_cfg.signals[0], SignalSpec("sin", 4.0, 2.0, 0.3))
    ta = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              central_cfg.signals, cfg)
    tb = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                              sigs_b, cfg)
    assert np.abs(np.asarray(ta.err_norm[0]) - tb.err_norm[0]).max() <= 1e-8


def test_divergence_guard_default_trips_on_unstable_plant(central_cfg, central_obs):
    # the demo plant grows ~ e^{2t}: the default 1e12 guard must fire
    obs, _ = central_obs
    cfg = SimConfig(t_end=20.0, x0=[1.0, 2.0, 3.0], dt=1e-3)
    assert cfg.divergence_guard == 1e12
    with pytest.raises(NonFiniteState) as exc:
        simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                             central_cfg.signals, cfg)
    assert exc.value.t and 10.0 < exc.value.t < 20.0


def test_energy_decay_of_shifted_plant():
    # Hurwitz-shifted plant, no inputs, no observer coupling: norm decays
    A = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0], [0.0, -2.0, 1.0]])
    A_sh = A - 3.0 * np.eye(3)
    sys = LinSystem(A_sh, np.zeros((3, 1)), np.eye(3))
    part = InputPartition.from_columns(sys, [0], [])
    obs = synthesize_centralized_uio(sys, part, ALPHA0)
    cfg = SimConfig(t_end=10.0, x0=[1.0, -2.0, 0.5], dt=1e-3, record_stride=10)
    traj = simulate_centralized(sys, part, obs, (SignalSpec("const", 0.0),), cfg)
    norms = np.linalg.norm(traj.x, axis=1)
    assert norms[-1] < 1e-3 * norms[0]
    half = len(norms) // 2
    assert norms[half:].max() < norms[:half].max()


def test_euler_method_runs_and_is_first_order(central_cfg, central_obs):
    obs, _ = central_obs
    base = dict(t_end=1.0, x0=np.array([1.0, 2.0, 3.0]))
    ref = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                               central_cfg.signals,
                               SimConfig(dt=1e-4, record_stride=100, **base))
    errs = []
    for dt, stride in ((1e-2, 1), (5e-3, 2)):
        tr = simulate_centralized(central_cfg.system, central_cfg.partition,
                                  obs, central_cfg.signals,
                                  SimConfig(dt=dt, method="euler",
                                            record_stride=stride, **base))
        errs.append(np.abs(tr.x - ref.x).max())
    assert 1.5 < errs[0] / errs[1] < 2.6  # halving the step halves the error


# ---------------------------------------------------------------------------
# distributed harness


def test_assembled_rhs_matches_per_node_reference(dist_cfg, dist_net):
    net, _ = dist_net
    kern = _network_kernel(dist_cfg.system, net, dist_cfg.sim)
    offsets = dist_cfg.system.n + np.cumsum([0] + [nd.z_dim for nd in net.nodes])
    rng = np.random.default_rng(8)
    sys = dist_cfg.system
    for trial in range(5):
        s = rng.normal(size=kern.s0.size)
        t = float(rng.uniform(0, 10))
        u = eval_signals(dist_cfg.signals, t)
        fast = kernel_rhs(kern, dist_cfg.signals, np.sign)(t, s)
        # reference: plant + literal node equations on the same snapshot
        x = s[:sys.n]
        ests = {}
        for nd, off in zip(net.nodes, offsets):
            blk = s[off:off + nd.z_dim]
            ests[nd.node_id] = (node_estimate_n1(nd, blk, nd.C @ x)
                                if nd.node_class == N1 else blk)
        ref = [sys.A @ x + sys.B @ u]
        adj = net.graph.adjacency
        ids = [nd.node_id for nd in net.nodes]
        for i, (nd, off) in enumerate(zip(net.nodes, offsets)):
            neighbors = [ests[ids[j]] for j in range(len(ids)) if adj[i, j]]
            y = nd.C @ x
            ui = u[list(nd.known_cols)]
            blk = s[off:off + nd.z_dim]
            if nd.node_class == N1:
                ref.append(node_rhs_n1(nd, blk, y, ui, neighbors, net.chi))
            else:
                ref.append(node_rhs_n2(nd, blk, y, ui, neighbors, net.chi,
                                       net.gamma, sign_fn=np.sign))
        ref = np.concatenate(ref)
        assert np.allclose(fast, ref, atol=1e-10), f"trial {trial}"


def test_central_kernel_rhs_matches_plant_and_quotient_error(central_cfg,
                                                            central_obs):
    obs, _ = central_obs
    sys = central_cfg.system
    kern = _central_kernel(sys, obs, central_cfg.sim)
    f = kernel_rhs(kern, central_cfg.signals, np.sign)
    rng = np.random.default_rng(9)
    for trial in range(5):
        s = rng.normal(size=sys.n + obs.z_dim)
        t = float(rng.uniform(0, 10))
        u = eval_signals(central_cfg.signals, t)
        x, zeta = s[:sys.n], s[sys.n:]
        ref = np.concatenate([sys.A @ x + sys.B @ u, obs.Abar_L @ zeta])
        assert np.allclose(f(t, s), ref, atol=1e-10), f"trial {trial}"


@pytest.mark.parametrize("bad", ["empty", "doubled", "short", "infinite"])
def test_kernels_reject_bad_observer_init(central_cfg, central_obs, dist_cfg,
                                          dist_net, bad):
    obs, _ = central_obs
    net, _ = dist_net
    cases = ((_central_kernel, central_cfg, obs, [obs.z_dim]),
             (_network_kernel, dist_cfg, net, [nd.z_dim for nd in net.nodes]))
    for build, pcfg, artifact, z_dims in cases:
        states = [np.zeros(d) for d in z_dims]
        init = {"empty": (), "doubled": tuple(states) * 2,
                "short": tuple(states[:-1]) + (np.zeros(z_dims[-1] - 1),),
                "infinite": tuple(states[:-1]) + (np.full(z_dims[-1], np.inf),)
                }[bad]
        cfg = rebuilt(pcfg.sim, observer_init=init)
        # an infinite state is a bad input, not a divergence at t = dt
        with pytest.raises(DimensionMismatch, match=(
                f"observer_init entry {len(z_dims) - 1} has non-finite"
                if bad == "infinite" else None)):
            build(pcfg.system, artifact, cfg)


def test_distributed_determinism_and_shape(dist_cfg, dist_net):
    net, _ = dist_net
    cfg = SimConfig(t_end=0.5, x0=dist_cfg.sim.x0, dt=1e-3, record_stride=10)
    t1 = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    t2 = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    assert np.array_equal(t1.x, t2.x)
    assert len(t1.xhat) == 4 and len(t1.err_norm) == 4
    for a, b in zip(t1.xhat, t2.xhat):
        assert np.array_equal(a, b)


def test_distributed_truth_initialized_zero_unknowns_stay_exact(dist_cfg, dist_net):
    net, _ = dist_net
    x0 = dist_cfg.sim.x0
    init = []
    for nd in net.nodes:
        init.append(nd.P_Wstar @ x0 if nd.node_class == N1 else x0.copy())
    zero_sigs = tuple(SignalSpec("const", 0.0) for _ in range(3))
    cfg = SimConfig(t_end=3.0, x0=x0, dt=1e-3, observer_init=tuple(init),
                    record_stride=10)
    traj = simulate_distributed(dist_cfg.system, net, zero_sigs, cfg)
    assert max(e.max() for e in traj.err_norm) <= 1e-6


def test_exact_sign_mode_runs(dist_cfg, dist_net):
    net, _ = dist_net
    cfg = SimConfig(t_end=0.2, x0=dist_cfg.sim.x0, dt=1e-3, sign_mode="exact",
                    record_stride=10)
    traj = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    assert np.all(np.isfinite(traj.x))


def test_error_metrics_summary(central_cfg, central_runs):
    traj = central_runs["traj"]
    m = error_metrics(traj, tol=1e-2)
    entry = m["node1"]
    assert entry["final_err"] < 1e-2
    assert entry["time_to_tolerance"] is not None
    assert entry["sup_err_after_t_star"] < 1e-2
    assert m["max_final_err"] == entry["final_err"]


def test_error_dynamics_residual_along_run(central_cfg, central_obs, central_runs):
    # evaluate the z-form observer equations at recorded states: the quotient
    # error derivative must match its autonomous dynamics within 1e-8 (1+|x|)
    obs, _ = central_obs
    traj = central_runs["traj"]
    sys = central_cfg.system
    stride = max(1, len(traj.times) // 200)
    for k in range(0, len(traj.times), stride):
        t, x, zeta = traj.times[k], traj.x[k], traj.quotient_err[0][k]
        u = eval_signals(central_cfg.signals, t)
        z = obs.P_Wg @ x - zeta
        dz = observer_rhs(obs, central_cfg.partition, z, sys.C @ x, u[[0]])
        dzeta = obs.P_Wg @ (sys.A @ x + sys.B @ u) - dz
        resid = np.linalg.norm(dzeta - obs.Abar_L @ zeta)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(x))


def test_below_bound_gains_still_produce_finite_run(dist_cfg, dist_net):
    # gains below the convergence bounds void the guarantee, not the contract:
    # the harness must return a finite trajectory or diagnose divergence
    net, _ = dist_net
    weak = rebuilt(net, chi=0.0, gamma=0.0)
    cfg = SimConfig(t_end=2.0, x0=dist_cfg.sim.x0, dt=1e-3, record_stride=10)
    try:
        traj = simulate_distributed(dist_cfg.system, weak, dist_cfg.signals, cfg)
        assert np.all(np.isfinite(traj.x))
        for e in traj.err_norm:
            assert np.all(np.isfinite(e))
    except NonFiniteState as exc:
        assert exc.t is not None


# ---------------------------------------------------------------------------
# step operator against the classical methods applied to the kernel RHS


def _classical_step(f, s, t, h, method):
    if method == "euler":
        return s + h * f(t, s)
    k1 = f(t, s)
    k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
    k4 = f(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance_run(kern, signals, cfg):
    """Every state of a run taken by the per-step path alone, s0 first."""
    op = _step_operator(kern, cfg)
    n_steps = _n_steps(cfg)
    states = [kern.s0[None]]
    for k0 in range(0, n_steps, _CHUNK):
        t = np.arange(k0, min(k0 + _CHUNK, n_steps)) * cfg.dt
        states.append(op.advance(states[-1][-1], op.inputs(t, signals)))
    return np.vstack(states)


@pytest.fixture
def both_kernels(central_cfg, central_obs, dist_cfg, dist_net):
    """(builder, project config, artifact) for the two demos."""
    return ((_central_kernel, central_cfg, central_obs[0]),
            (_network_kernel, dist_cfg, dist_net[0]))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("sign_mode", ["exact", "boundary_layer"])
def test_step_operator_matches_classical_step(both_kernels, method, sign_mode):
    rng = np.random.default_rng(11)
    for build, pcfg, artifact in both_kernels:
        cfg = rebuilt(pcfg.sim, method=method, sign_mode=sign_mode)
        kern = build(pcfg.system, artifact, cfg)
        op = _step_operator(kern, cfg)
        f = kernel_rhs(kern, pcfg.signals, cfg.sign_fn())
        signs = np.empty(len(op.offsets) * kern.K.shape[0])
        for trial in range(6):
            # small states put the sign arguments inside the boundary layer
            s = rng.normal(size=kern.s0.size) * (1e-3 if trial % 2 else 1.0)
            t = float(rng.uniform(0.0, 10.0))
            u = op.inputs(np.array([t]), pcfg.signals)
            got = op.advance(s, u, signs)[0]
            ref = _classical_step(f, s, t, cfg.dt, method)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (
                build.__name__, trial)
            # the affine step of the step's own region pattern is the same step
            (affine,) = op.affine(np.trunc(signs)).scan(s, u)
            assert np.abs(affine - ref).max() <= 1e-12 * np.abs(ref).max(), (
                build.__name__, trial)


@pytest.mark.parametrize("step", [3 * _CHUNK + 37, 4 * _CHUNK])
def test_guard_trips_at_the_reference_step(central_cfg, central_obs, step):
    # once the demo plant's e^{2t} mode dominates, the peak state rises at
    # every step: put the guard between the peak before `step` (mid-chunk,
    # then a chunk's first step) and the state that step makes
    obs, _ = central_obs
    sys = central_cfg.system
    cfg = rebuilt(central_cfg.sim, record_stride=1)
    kern = _central_kernel(sys, obs, cfg)
    peaks = np.abs(_advance_run(kern, central_cfg.signals, cfg)[1:step + 2]
                   ).max(axis=1)
    before = peaks[:step].max()
    assert peaks[step] > before * (1 + 1e-6)
    guard = 0.5 * (before + peaks[step])
    t_ref = next((k + 1) * cfg.dt for k, p in enumerate(peaks) if p > guard)
    counts = _ScanCounts()
    with pytest.raises(NonFiniteState) as exc:
        _integrate(kern, central_cfg.signals,
                   rebuilt(cfg, divergence_guard=guard), counts)
    assert exc.value.t == t_ref
    assert counts.oracle == 1 and counts.scanned > step  # a scanned step tripped


def test_odd_record_stride_matches_reference(dist_cfg, dist_net):
    net, _ = dist_net
    stride = 7
    cfg = rebuilt(dist_cfg.sim, t_end=1.0, record_stride=stride)
    n_steps = _n_steps(cfg)
    assert _CHUNK % stride and n_steps % stride
    kern = _network_kernel(dist_cfg.system, net, cfg)
    ref = _advance_run(kern, dist_cfg.signals, cfg)[::stride]
    counts = _ScanCounts()
    recs = _integrate(kern, dist_cfg.signals, cfg, counts)
    assert counts.scanned > 0
    assert recs.shape == ref.shape == (n_steps // stride + 1, kern.s0.size)
    assert np.abs(recs - ref).max() <= 1e-12 * np.abs(ref).max()
    traj = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    assert np.allclose(traj.times, np.arange(len(ref)) * cfg.dt * stride,
                       rtol=1e-15, atol=0.0)
    assert np.array_equal(traj.x, recs[:, :dist_cfg.system.n])


# ---------------------------------------------------------------------------
# affine-chunk scan against the per-step path


def _assert_arrays_match(kern, recs, ref, rel=1e-10):
    """x, every xhat, err_norm and quotient error agree to ``rel`` per array."""
    arrays = [lambda r: r[:, :kern.n]]
    arrays += [lambda r, D=D: r[:, :kern.n] - r @ D.T for D in kern.D]
    arrays += [lambda r, D=D: np.linalg.norm(r @ D.T, axis=1) for D in kern.D]
    arrays += [lambda r, Q=Q: r @ Q.T for Q in kern.Q]
    for i, arr in enumerate(arrays):
        got, want = arr(recs), arr(ref)
        assert np.abs(got - want).max() <= rel * np.abs(want).max(), i


@pytest.mark.parametrize("mode, method, sign_mode, t_end", [
    ("distributed", "rk4", "boundary_layer", 8.0),   # 45 region changes
    ("distributed", "rk4", "exact", 2.0),            # changes almost every step
    ("distributed", "euler", "boundary_layer", 8.0),
    ("centralized", "euler", "boundary_layer", 10.0),
])
def test_scan_matches_advance(both_kernels, mode, method, sign_mode, t_end):
    build, pcfg, artifact = both_kernels[mode == "distributed"]
    cfg = rebuilt(pcfg.sim, method=method, sign_mode=sign_mode, t_end=t_end,
                  record_stride=1)
    kern = build(pcfg.system, artifact, cfg)
    counts = _ScanCounts()
    recs = _integrate(kern, pcfg.signals, cfg, counts)
    _assert_arrays_match(kern, recs, _advance_run(kern, pcfg.signals, cfg))
    assert counts.scanned + counts.oracle == _n_steps(cfg)
    if mode == "distributed":
        # scans cut short by a region change, and per-step stretches after
        # short runs: more per-step steps than one per change
        assert counts.region_changes > 0
        assert counts.oracle > counts.region_changes + 1
    else:
        assert counts.oracle == 1 and counts.region_changes == 0
    assert np.array_equal(_integrate(kern, pcfg.signals, cfg), recs)


def test_scan_starting_on_a_boundary_tie(dist_cfg, dist_net):
    # start the first scanned step with a sign argument on the layer's edge,
    # v = eps up to rounding, where the two adjacent regions give one step
    net, _ = dist_net
    cfg = rebuilt(dist_cfg.sim, t_end=0.5, record_stride=1)
    kern = _network_kernel(dist_cfg.system, net, cfg)
    op = _step_operator(kern, cfg)
    u = op.inputs(np.zeros(1), dist_cfg.signals)
    signs = np.empty(len(op.offsets) * kern.K.shape[0])
    k = kern.K[0]
    s0 = kern.s0
    for _ in range(5):  # Newton steps on the piecewise-affine map s0 -> K s1
        s1 = op.advance(s0, u, signs)[0]
        T = op.affine(np.trunc(signs)).powers[0].T
        w = T.T @ k
        s0 = s0 + (cfg.eps_bl - k @ s1) / (k @ T @ w) * w
    s1 = op.advance(s0, u, signs)[0]
    assert abs(k @ s1 - cfg.eps_bl) <= 1e-12 * cfg.eps_bl
    # either region at the tie reproduces the per-step path's step from s1
    u1 = op.inputs(np.full(1, cfg.dt), dist_cfg.signals)
    ref = op.advance(s1, u1, signs)[0]
    accepted = 0
    for edge in (0.0, 1.0):
        pattern = np.trunc(signs)
        pattern[0] = edge
        got = op.affine(pattern).scan(s1, u1)
        accepted += len(got)
        if len(got):
            assert np.abs(got[0] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert accepted >= 1
    tied = rebuilt(kern, s0=s0)
    counts = _ScanCounts()
    recs = _integrate(tied, dist_cfg.signals, cfg, counts)
    assert counts.scanned > 0
    _assert_arrays_match(tied, recs, _advance_run(tied, dist_cfg.signals, cfg))


def test_scan_leaving_its_pattern_at_the_first_step_returns_no_states(
        dist_cfg, dist_net):
    net, _ = dist_net
    cfg = rebuilt(dist_cfg.sim, record_stride=1)
    kern = _network_kernel(dist_cfg.system, net, cfg)
    op = _step_operator(kern, cfg)
    u = op.inputs(np.arange(_CHUNK) * cfg.dt, dist_cfg.signals)
    signs = np.empty(len(op.offsets) * kern.K.shape[0])
    op.advance(kern.s0, u[:1], signs)
    pattern = np.trunc(signs)
    true_step = op.affine(pattern)
    assert len(true_step.scan(kern.s0, u)) > 0
    # flip the entry whose first-step argument lies deepest in its region
    v = np.concatenate([u[0], kern.s0, [1.0]]) @ true_step.args
    i = np.argmax(np.abs(v))
    assert abs(v[i]) > 10 * cfg.eps_bl and pattern[i] == np.sign(v[i])
    pattern[i] = -pattern[i]
    states = op.affine(pattern).scan(kern.s0, u)
    assert states.shape == (0, kern.s0.size)


def test_distributed_demo_rarely_takes_the_per_step_path(dist_cfg, dist_net):
    net, _ = dist_net
    kern = _network_kernel(dist_cfg.system, net, dist_cfg.sim)
    counts = _ScanCounts()
    _integrate(kern, dist_cfg.signals, dist_cfg.sim, counts)
    n_steps = _n_steps(dist_cfg.sim)
    assert counts.scanned + counts.oracle == n_steps
    assert counts.oracle < 0.02 * n_steps
