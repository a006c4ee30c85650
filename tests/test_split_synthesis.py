"""A network's nodes synthesized over several processes: the same nodes,
checks, margins and trajectories whatever the number of processes, each
failure raised as itself, and the caller's CPUs kept.  The fork mechanics on
their own are tested in test_workers.py."""

import os

import numpy as np
import pytest

from geouio import distributed as dist
from geouio.cases import builtin_config
from geouio.config import parse_config
from geouio.distributed import synthesize_distributed
from geouio.simulate import SignalSpec, SimConfig, simulate_distributed
from geouio.subspaces import margin_monitor
from geouio.verify import invariant_checks

from forks import affinity, count_forks, placeable
from test_distributed import covered_network

NETWORKS = [(seed, N) for N in (16, 32) for seed in (0, 1)]


def _force_workers(monkeypatch, workers):
    """Make every synthesis use ``workers`` processes, whatever its size."""
    monkeypatch.setattr(dist, "_worker_count", lambda nodes: workers)


def _layout(a) -> tuple:
    """An array as the products that read it see it: its bytes, dtype,
    shape, strides, memory order and write flag."""
    return (a.tobytes(), a.dtype, a.shape, a.strides, a.flags.c_contiguous,
            a.flags.f_contiguous, a.flags.writeable)


def _node_arrays(nd) -> dict:
    """Every array of a node and of its decomposition, by name."""
    d = nd.decomp
    arrays = {name: getattr(nd, name) for name in (
        "C", "B_known", "B_unknown", "L", "A_cl", "Abarbar", "E", "F", "Abar_L")}
    arrays |= {name: getattr(d, name) for name in ("V", "P_Wstar", "P_Wg")}
    arrays |= {name: getattr(d, name).basis for name in (
        "W_star", "S_star", "Xbar_g", "Xbar_b", "W_g_star", "ker_C")}
    return {name: None if a is None else _layout(a) for name, a in arrays.items()}


def _design(seed, N):
    """Every node array, every check value, the gains and the margins an
    enclosing monitor sees, of one synthesis of a covered network."""
    sys_, specs, graph = covered_network(seed, n=12, N=N)
    with margin_monitor() as rec:
        net = synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
    assert all(_layout(nd.C) == _layout(spec.C)
               for nd, spec in zip(net.nodes, specs))
    return {"nodes": [_node_arrays(nd) for nd in net.nodes],
            "checks": {k: c.value for k, c in invariant_checks(net, 0.0).items()},
            "gains": (net.chi, net.gamma, net.sigma_min_Q),
            "margins": rec.margins}


@pytest.mark.parametrize("seed, N", NETWORKS)
def test_process_count_moves_no_node_check_or_margin(monkeypatch, seed, N):
    designs = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        designs.append(_design(seed, N))
    first = designs[0]
    assert len(first["margins"]) > 20 * N and len(first["checks"]) > 9 * N
    for other in designs[1:]:
        for key in first:
            assert other[key] == first[key], key


def test_process_count_moves_no_simulated_state(monkeypatch):
    rng = np.random.default_rng(3)
    for seed in (0, 1):
        sys_, specs, graph = covered_network(seed, n=12, N=16)
        cfg = SimConfig(t_end=2.0, x0=rng.standard_normal(12), record_stride=500)
        finals = []
        for workers in (1, 3):
            _force_workers(monkeypatch, workers)
            net = synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
            traj = simulate_distributed(sys_, net, [SignalSpec("sin")] * 3, cfg)
            finals.append(traj.states[-1].tobytes())
        assert finals[0] == finals[1], f"seed {seed}"


class NodeFailed(Exception):
    pass


def _failing_node(monkeypatch, node_id):
    """Make the synthesis of node ``node_id`` raise NodeFailed, in whichever
    process builds it."""
    build = dist.per_node_decomposition

    def raising(sys_, spec, spectral, tol):
        if spec.node_id == node_id:
            raise NodeFailed(f"node {node_id} failed")
        return build(sys_, spec, spectral, tol)

    monkeypatch.setattr(dist, "per_node_decomposition", raising)


@pytest.mark.parametrize("node_id", [3, 13])
def test_a_raising_node_raises_from_the_call(monkeypatch, node_id):
    """With three processes over 16 nodes, nodes 1-5 are built in the
    caller and 11-16 in the second worker; either way the node's own
    exception comes out, no worker is left and the caller keeps its CPUs."""
    sys_, specs, graph = covered_network(0, n=12, N=16)
    cpus = affinity()
    _failing_node(monkeypatch, node_id)
    for workers in (1, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(NodeFailed, match=f"node {node_id} failed"):
            synthesize_distributed(sys_, specs, graph, u_bar_max=0.2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert affinity() == cpus


@placeable
def test_the_caller_keeps_its_cpus(monkeypatch):
    cpus = os.sched_getaffinity(0)
    assert len(cpus) > 1  # no earlier split run kept this one pinned
    _force_workers(monkeypatch, 3)
    synthesize_distributed(*covered_network(1, n=12, N=16), u_bar_max=0.2)
    assert os.sched_getaffinity(0) == cpus


def test_the_distributed_demo_forks_nothing(monkeypatch):
    forks = count_forks(monkeypatch)
    cfg = parse_config(builtin_config("distributed"))
    assert cfg.graph.n_nodes < dist._NODES_PER_WORKER * 2
    synthesize_distributed(cfg.system, cfg.node_specs, cfg.graph, cfg.spectral,
                           u_bar_max=cfg.u_bar_max)
    assert forks == []


def test_a_large_network_forks_for_each_further_cpu(monkeypatch):
    """Unforced, a network of 2 * _NODES_PER_WORKER nodes takes two
    processes where it may use two CPUs or more, and forks nothing on one."""
    forks = count_forks(monkeypatch)
    cpus = affinity()
    network = covered_network(2, n=12, N=2 * dist._NODES_PER_WORKER)
    synthesize_distributed(*network, u_bar_max=0.2)
    assert len(forks) == (0 if cpus is None else min(len(cpus), 2) - 1)


def test_worker_count_follows_cpus_and_nodes(monkeypatch):
    per = dist._NODES_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    assert [dist._worker_count(n) for n in
            (1, 4, 2 * per - 1, 2 * per, 3 * per, 100 * per)] == [1, 1, 1, 2, 3, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert [dist._worker_count(n) for n in (8, 16, 32)] == [1, 2, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert dist._worker_count(100 * per) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert dist._worker_count(100 * per) == 1
