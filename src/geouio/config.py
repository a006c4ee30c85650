"""JSON project configuration: schema, parsing, validation, round-trip."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .central import InputPartition, LinSystem
from .distributed import NodeSpec, SensorGraph
from .errors import ConfigError, DimensionMismatch
from .simulate import SIGNAL_KINDS, SignalSpec, SimConfig
from .subspaces import TolerancePolicy
from .synthesis import SpectralPartition

# The keys of a block are its record's constructor parameters, which are
# also its __slots__, in order.
_SPECTRAL_KEYS = set(SpectralPartition.__slots__)
_SIM_KEYS = set(SimConfig.__slots__)


class ProjectConfig:
    """Parsed and validated configuration for one synthesis/simulation run."""

    __slots__ = ("system", "partition", "node_specs", "graph", "spectral",
                 "signals", "sim", "u_bar_max", "raw")

    def __init__(self, system: LinSystem, partition: InputPartition | None,
                 node_specs: tuple | None, graph: SensorGraph | None,
                 spectral: SpectralPartition, signals: tuple,
                 sim: SimConfig | None, u_bar_max: float, raw: str):
        self.system = system
        self.partition = partition
        self.node_specs = node_specs
        self.graph = graph
        self.spectral = spectral
        self.signals = signals
        self.sim = sim
        self.u_bar_max = u_bar_max
        self.raw = raw  # the source as compact JSON text

    @property
    def mode(self) -> str:
        return "centralized" if self.partition is not None else "distributed"

    def to_dict(self) -> dict:
        """A fresh decoded copy of the source."""
        return json.loads(self.raw)


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _object(obj, name) -> dict:
    _require(isinstance(obj, dict), f"{name} must be a JSON object")
    return obj


def _numbers(obj):
    """``obj``; TypeError unless it is a number or a nested list of numbers."""
    if isinstance(obj, list):
        for v in obj:
            _numbers(v)
    elif type(obj) not in (int, float):  # bool is not a number here
        raise TypeError(f"{obj!r} is not a number")
    return obj


def _matrix(obj, name):
    try:
        M = np.asarray(_numbers(obj), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix: {exc}") from exc
    _require(M.ndim == 2, f"{name} must be a nested (2-D) array")
    _require(np.all(np.isfinite(M)), f"{name} has non-finite entries")
    return M


def _finite(obj, name) -> float:
    try:
        v = float(_numbers(obj))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} is not a number: {obj!r}") from exc
    _require(np.isfinite(v), f"{name} must be finite, got {obj!r}")
    return v


def _vector(obj, name) -> np.ndarray:
    try:
        v = np.asarray(_numbers(obj), dtype=float).ravel()
    except (TypeError, ValueError, OverflowError) as exc:
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
        raw = json.dumps(data, separators=(",", ":"))
    elif isinstance(source, dict):
        raw = json.dumps(source, separators=(",", ":"))
        data = json.loads(raw)
    else:
        raise ConfigError("config source must be a path or a dict")
    try:
        return _parse(_object(data, "config"), raw)
    except DimensionMismatch as exc:
        raise ConfigError(str(exc)) from exc


def _parse(data: dict, raw: str) -> ProjectConfig:
    """Validated objects of a loaded config, ``raw`` its JSON text; may
    raise DimensionMismatch."""
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
            _require(isinstance(node_id, int) and not isinstance(node_id, bool),
                     f"'nodes' entry {k}: id must be an integer, got {node_id!r}")
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

    spectral = _spectral(_object(data.get("spectral", {}), "'spectral' block"))

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

    sim = _sim(_object(data["sim"], "'sim' block"), n) if "sim" in data else None

    u_bar_max = _finite(data.get("u_bar_max", 0.0), "u_bar_max")
    _require(u_bar_max >= 0, "u_bar_max must be nonnegative")

    return ProjectConfig(system=system, partition=partition,
                         node_specs=node_specs, graph=graph, spectral=spectral,
                         signals=tuple(signals), sim=sim, u_bar_max=u_bar_max,
                         raw=raw)


def _spectral(blk: dict) -> SpectralPartition:
    """The partition of a 'spectral' block; omitted keys take its defaults."""
    unknown_keys = set(blk) - _SPECTRAL_KEYS
    _require(not unknown_keys, f"unknown spectral keys: {sorted(unknown_keys)}")
    given = {key: _finite(blk[key], f"spectral.{key}")
             for key in ("alpha", "margin", "safety") if key in blk}
    if blk.get("pole_targets") is not None:
        _require(isinstance(blk["pole_targets"], list),
                 "spectral.pole_targets must be a list of numbers")
        given["pole_targets"] = tuple(_finite(v, "spectral.pole_targets entry")
                                      for v in blk["pole_targets"])
    try:
        return SpectralPartition(**given)
    except ValueError as exc:  # safety below 1
        raise ConfigError(f"spectral.{exc}") from exc


def _sim(blk: dict, n: int) -> SimConfig:
    """The settings of a 'sim' block; omitted keys take SimConfig's defaults."""
    unknown_keys = set(blk) - _SIM_KEYS
    _require(not unknown_keys, f"unknown sim keys: {sorted(unknown_keys)}")
    _require("t_end" in blk and "x0" in blk, "sim block needs t_end and x0")
    x0 = _vector(blk["x0"], "x0")
    _require(x0.size == n, f"x0 must have length {n}")
    given = {"x0": x0}
    if blk.get("observer_init") is not None:
        _require(isinstance(blk["observer_init"], list),
                 "observer_init must be a list of initial states")
        given["observer_init"] = tuple(_vector(v, f"observer_init entry {i}")
                                       for i, v in enumerate(blk["observer_init"]))
    if "record_stride" in blk:
        stride = _finite(blk["record_stride"], "sim.record_stride")
        _require(stride == int(stride), "sim.record_stride must be an integer")
        given["record_stride"] = int(stride)
    given.update({key: _finite(blk[key], f"sim.{key}") for key in
                  ("t_end", "dt", "eps_bl", "divergence_guard") if key in blk})
    given.update({key: blk[key] for key in ("method", "sign_mode") if key in blk})
    return SimConfig(**given)


def tolerance_from_env(environ) -> TolerancePolicy:
    """Build the tolerance policy, honoring the GEO_UIO_TOL override."""
    raw = environ.get("GEO_UIO_TOL")
    if raw is None:
        return TolerancePolicy()
    try:
        return TolerancePolicy(rel_rank_tol=float(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"GEO_UIO_TOL is not a valid tolerance ({raw!r}): {exc}") from exc
