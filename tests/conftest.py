"""Shared fixtures: demo systems, synthesized artifacts, stride-1 trajectories.

Expensive artifacts are session-scoped and carry the wall time of their
construction so the acceptance suite can assert runtime budgets without
re-running the pipelines.
"""

import time
from dataclasses import replace

import pytest

from geouio.cases import builtin_config
from geouio.central import synthesize_centralized_uio
from geouio.config import parse_config
from geouio.distributed import synthesize_distributed
from geouio.simulate import SignalSpec, simulate_centralized, simulate_distributed


@pytest.fixture(scope="session")
def central_cfg():
    return parse_config(builtin_config("centralized"))


@pytest.fixture(scope="session")
def dist_cfg():
    return parse_config(builtin_config("distributed"))


@pytest.fixture(scope="session")
def central_obs(central_cfg):
    t0 = time.perf_counter()
    obs = synthesize_centralized_uio(central_cfg.system, central_cfg.partition,
                                     central_cfg.spectral)
    return obs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dist_net(dist_cfg):
    t0 = time.perf_counter()
    net = synthesize_distributed(dist_cfg.system, dist_cfg.node_specs,
                                 dist_cfg.graph, dist_cfg.spectral,
                                 u_bar_max=dist_cfg.u_bar_max)
    return net, time.perf_counter() - t0


@pytest.fixture(scope="session")
def central_runs(central_cfg, central_obs):
    """Full-resolution reproduction run plus a run with a different unknown input."""
    obs, _ = central_obs
    cfg = replace(central_cfg.sim, record_stride=1)
    t0 = time.perf_counter()
    traj = simulate_centralized(central_cfg.system, central_cfg.partition, obs,
                                central_cfg.signals, cfg)
    wall = time.perf_counter() - t0
    alt_signals = (central_cfg.signals[0],
                   SignalSpec("cos", amplitude=5.0, frequency=3.0))
    t0 = time.perf_counter()
    traj_alt = simulate_centralized(central_cfg.system, central_cfg.partition,
                                    obs, alt_signals, cfg)
    wall_alt = time.perf_counter() - t0
    return {"traj": traj, "traj_alt": traj_alt,
            "wall": wall, "wall_alt": wall_alt}


@pytest.fixture(scope="session")
def dist_run(dist_cfg, dist_net):
    net, _ = dist_net
    cfg = replace(dist_cfg.sim, record_stride=1)
    t0 = time.perf_counter()
    traj = simulate_distributed(dist_cfg.system, net, dist_cfg.signals, cfg)
    return {"traj": traj, "wall": time.perf_counter() - t0}
