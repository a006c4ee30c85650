"""JSON project configuration: schema, parsing, validation, round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .central import InputPartition, LinSystem
from .distributed import NodeSpec, SensorGraph
from .errors import ConfigError, DimensionMismatch
from .simulate import SIGNAL_KINDS, SignalSpec, SimConfig
from .subspaces import TolerancePolicy
from .synthesis import SpectralPartition

_SPECTRAL_DEFAULTS = {"alpha": 0.0, "margin": 0.5, "safety": 1.1,
                      "pole_targets": None}
_SIM_KEYS = {"t_end", "dt", "method", "sign_mode", "eps_bl", "x0",
             "observer_init", "record_stride", "divergence_guard"}


@dataclass(frozen=True)
class ProjectConfig:
    """Parsed and validated configuration for one synthesis/simulation run."""

    system: LinSystem
    partition: InputPartition | None
    node_specs: tuple | None
    graph: SensorGraph | None
    spectral: SpectralPartition
    margin: float
    safety: float
    pole_targets: tuple | None
    signals: tuple
    sim: SimConfig | None
    u_bar_max: float
    raw: dict

    @property
    def mode(self) -> str:
        return "centralized" if self.partition is not None else "distributed"

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _object(obj, name) -> dict:
    _require(isinstance(obj, dict), f"{name} must be a JSON object")
    return obj


def _matrix(obj, name):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix: {exc}") from exc
    _require(M.ndim == 2, f"{name} must be a nested (2-D) array")
    _require(np.all(np.isfinite(M)), f"{name} has non-finite entries")
    return M


def _finite(obj, name) -> float:
    try:
        v = float(obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a number: {obj!r}") from exc
    _require(np.isfinite(v), f"{name} must be finite, got {obj!r}")
    return v


def _vector(obj, name) -> np.ndarray:
    try:
        v = np.asarray(obj, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric vector: {exc}") from exc
    _require(np.all(np.isfinite(v)), f"{name} has non-finite entries")
    return v


def _int_list(obj, name, upper):
    _require(isinstance(obj, (list, tuple)), f"{name} must be a list of indices")
    out = []
    for v in obj:
        _require(isinstance(v, int) and not isinstance(v, bool),
                 f"{name} entries must be integers")
        _require(0 <= v < upper, f"{name} index {v} out of range [0, {upper})")
        out.append(v)
    return tuple(out)


def parse_config(source) -> ProjectConfig:
    """Parse a config dict or JSON file path into validated objects."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        data = json.loads(json.dumps(source))
    else:
        raise ConfigError("config source must be a path or a dict")
    try:
        return _parse(_object(data, "config"))
    except DimensionMismatch as exc:
        raise ConfigError(str(exc)) from exc


def _parse(data: dict) -> ProjectConfig:
    """Validated objects of a loaded config; may raise DimensionMismatch."""
    _require("system" in data, "missing 'system' block")
    sysblk = _object(data["system"], "'system' block")
    for key in ("A", "B", "C"):
        _require(key in sysblk, f"system block missing matrix {key!r}")
    system = LinSystem(_matrix(sysblk["A"], "A"), _matrix(sysblk["B"], "B"),
                       _matrix(sysblk["C"], "C"))
    n, m, p = system.n, system.m, system.p

    has_part = "partition" in data
    has_nodes = "nodes" in data
    _require(has_part != has_nodes,
             "config must contain exactly one of 'partition' (centralized) "
             "or 'nodes' (distributed)")

    partition = node_specs = graph = None
    if has_part:
        blk = _object(data["partition"], "'partition' block")
        partition = InputPartition.from_columns(
            system, _int_list(blk.get("known_cols", []), "known_cols", m),
            _int_list(blk.get("unknown_cols", []), "unknown_cols", m))
    else:
        _require("graph" in data, "distributed config requires a 'graph' block")
        specs = []
        _require(isinstance(data["nodes"], list) and data["nodes"],
                 "'nodes' must be a nonempty list")
        for k, nd in enumerate(data["nodes"]):
            node_id = _object(nd, f"'nodes' entry {k}").get("id", k + 1)
            if "C" in nd:
                C_i = _matrix(nd["C"], f"node {node_id} C")
                _require(C_i.shape[1] == n, f"node {node_id} C must have {n} columns")
            elif "C_rows" in nd:
                rows = _int_list(nd["C_rows"], f"node {node_id} C_rows", p)
                C_i = system.C[list(rows), :]
            else:
                raise ConfigError(f"node {node_id} needs 'C' or 'C_rows'")
            known = _int_list(nd.get("known_cols", []), f"node {node_id} known_cols", m)
            unknown = _int_list(nd.get("unknown_cols", []),
                                f"node {node_id} unknown_cols", m)
            _require(sorted(known + unknown) == list(range(m)),
                     f"node {node_id} known/unknown columns must partition the inputs")
            specs.append(NodeSpec(node_id, C_i, known, unknown))
        _require(len({s.node_id for s in specs}) == len(specs),
                 "node ids must be unique")
        node_specs = tuple(specs)
        graph = SensorGraph(_matrix(
            _object(data["graph"], "'graph' block").get("adjacency"), "adjacency"))
        _require(graph.n_nodes == len(node_specs),
                 "adjacency size must equal the number of nodes")

    sp = dict(_SPECTRAL_DEFAULTS)
    sp.update(_object(data.get("spectral", {}), "'spectral' block"))
    unknown_keys = set(sp) - set(_SPECTRAL_DEFAULTS)
    _require(not unknown_keys, f"unknown spectral keys: {sorted(unknown_keys)}")
    spectral = SpectralPartition(_finite(sp["alpha"], "spectral.alpha"))
    pole_targets = sp["pole_targets"]
    if pole_targets is not None:
        _require(isinstance(pole_targets, list),
                 "spectral.pole_targets must be a list of numbers")
        pole_targets = tuple(_finite(v, "spectral.pole_targets entry")
                             for v in pole_targets)
    margin = _finite(sp["margin"], "spectral.margin")
    safety = _finite(sp["safety"], "spectral.safety")
    _require(safety >= 1.0, "spectral.safety must be >= 1")

    signals = []
    _require("signals" in data, "missing 'signals' block")
    _require(isinstance(data["signals"], list), "'signals' must be a list")
    _require(len(data["signals"]) == m, f"need {m} signal specs (one per input)")
    for k, sg in enumerate(data["signals"]):
        kind = _object(sg, f"'signals' entry {k}").get("kind")
        _require(kind in SIGNAL_KINDS, f"signal {k}: unknown kind {kind!r}")
        signals.append(SignalSpec(kind, *(
            _finite(sg.get(key, default), f"signal {k} {key}")
            for key, default in (("amplitude", 1.0), ("frequency", 1.0),
                                 ("phase", 0.0)))))

    sim = None
    if "sim" in data:
        blk = _object(data["sim"], "'sim' block")
        unknown_keys = set(blk) - _SIM_KEYS
        _require(not unknown_keys, f"unknown sim keys: {sorted(unknown_keys)}")
        _require("t_end" in blk and "x0" in blk, "sim block needs t_end and x0")
        x0 = _vector(blk["x0"], "x0")
        _require(x0.size == n, f"x0 must have length {n}")
        obs_init = blk.get("observer_init")
        if obs_init is not None:
            _require(isinstance(obs_init, list),
                     "observer_init must be a list of initial states")
            obs_init = tuple(_vector(v, f"observer_init entry {i}")
                             for i, v in enumerate(obs_init))
        stride = _finite(blk.get("record_stride", 1), "sim.record_stride")
        _require(stride == int(stride), "sim.record_stride must be an integer")
        sim = SimConfig(
            t_end=_finite(blk["t_end"], "sim.t_end"), x0=x0,
            dt=_finite(blk.get("dt", 1e-3), "sim.dt"),
            method=blk.get("method", "rk4"),
            sign_mode=blk.get("sign_mode", "boundary_layer"),
            eps_bl=_finite(blk.get("eps_bl", 1e-3), "sim.eps_bl"),
            observer_init=obs_init, record_stride=int(stride),
            divergence_guard=_finite(blk.get("divergence_guard", 1e12),
                                     "sim.divergence_guard"))

    u_bar_max = _finite(data.get("u_bar_max", 0.0), "u_bar_max")
    _require(u_bar_max >= 0, "u_bar_max must be nonnegative")

    return ProjectConfig(system=system, partition=partition,
                         node_specs=node_specs, graph=graph, spectral=spectral,
                         margin=margin, safety=safety, pole_targets=pole_targets,
                         signals=tuple(signals), sim=sim, u_bar_max=u_bar_max,
                         raw=data)


def tolerance_from_env(environ) -> TolerancePolicy:
    """Build the tolerance policy, honoring the GEO_UIO_TOL override."""
    raw = environ.get("GEO_UIO_TOL")
    if raw is None:
        return TolerancePolicy()
    try:
        return TolerancePolicy(rel_rank_tol=float(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"GEO_UIO_TOL is not a valid tolerance ({raw!r}): {exc}") from exc
