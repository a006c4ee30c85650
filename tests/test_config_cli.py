"""Config parsing/round-trip, file emission contracts, CLI exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import geouio
from geouio.cases import builtin_config
from geouio.cli import main
from geouio.config import parse_config, tolerance_from_env
from geouio.errors import ConfigError
from geouio.simulate import SimConfig
from geouio.subspaces import TolerancePolicy
from geouio.synthesis import SpectralPartition


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# parsing and validation


def test_round_trip_preserves_matrices():
    raw = builtin_config("distributed")
    cfg = parse_config(raw)
    again = parse_config(cfg.to_dict())
    assert np.array_equal(cfg.system.A, again.system.A)
    assert np.array_equal(cfg.system.B, again.system.B)
    assert np.array_equal(cfg.system.C, again.system.C)
    assert cfg.u_bar_max == again.u_bar_max
    assert [s.node_id for s in cfg.node_specs] == [s.node_id for s in again.node_specs]
    for a, b in zip(cfg.node_specs, again.node_specs):
        assert np.array_equal(a.C, b.C)
        assert a.known_cols == b.known_cols


def test_centralized_demo_parses():
    cfg = parse_config(builtin_config("centralized"))
    assert cfg.mode == "centralized"
    assert cfg.partition.known_cols == (0,)
    assert cfg.sim.divergence_guard == 1e19
    assert len(cfg.signals) == 2


def test_parse_rejects_bad_configs():
    base = builtin_config("centralized")
    bad = json.loads(json.dumps(base)); bad["sim"]["t_end"] = 0.0
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad = json.loads(json.dumps(base)); bad["partition"]["unknown_cols"] = [5]
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad = json.loads(json.dumps(base)); del bad["signals"][1]
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad = json.loads(json.dumps(builtin_config("distributed")))
    bad["graph"]["adjacency"][0][1] = 0  # asymmetric now
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.json")


@pytest.mark.parametrize("spectral", [None, {}])
def test_omitted_optional_keys_take_the_dataclass_defaults(spectral):
    cfg = builtin_config("centralized")
    cfg.pop("spectral")
    if spectral is not None:
        cfg["spectral"] = spectral
    cfg["sim"] = {"t_end": 1.0, "x0": [1.0, 2.0, 3.0]}
    parsed = parse_config(cfg)
    for f in fields(SpectralPartition):
        assert getattr(parsed.spectral, f.name) == f.default, f.name
    for f in fields(SimConfig):
        if f.name not in cfg["sim"]:
            assert getattr(parsed.sim, f.name) == f.default, f.name


def test_unknown_demo_name_raises():
    with pytest.raises(ConfigError):
        builtin_config("bogus")


def test_tolerance_env_override(tmp_path, monkeypatch, capsys):
    tol = tolerance_from_env({"GEO_UIO_TOL": "1e-8"})
    assert tol.rel_rank_tol == 1e-8
    assert tolerance_from_env({}).rel_rank_tol == 1e-10
    for raw in ("abc", "inf", "-inf", "nan", "1e300", "1", "0", "-1e-8"):
        with pytest.raises(ConfigError, match="GEO_UIO_TOL"):
            tolerance_from_env({"GEO_UIO_TOL": raw})
    for bad in ({"rel_rank_tol": math.inf}, {"rel_rank_tol": 1.0},
                {"abs_residual_tol": math.inf}, {"abs_residual_tol": math.nan}):
        with pytest.raises(ValueError):
            TolerancePolicy(**bad)
    monkeypatch.setenv("GEO_UIO_TOL", "inf")
    assert main(["reproduce", "centralized", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: GEO_UIO_TOL")


# ---------------------------------------------------------------------------
# CLI: synth / simulate artifacts


def short_centralized(t_end=2.0, stride=10):
    cfg = builtin_config("centralized")
    cfg["sim"]["t_end"] = t_end
    cfg["sim"]["record_stride"] = stride
    return cfg


def short_distributed(t_end=1.0, stride=10):
    cfg = builtin_config("distributed")
    cfg["sim"]["t_end"] = t_end
    cfg["sim"]["record_stride"] = stride
    return cfg


def test_cli_synth_writes_report(tmp_path):
    cfgp = write_cfg(tmp_path, short_centralized())
    out = tmp_path / "out"
    assert main(["synth", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dimensions"]["z_dim"] == 2
    assert report["mode"] == "centralized"
    assert report["checks"]["existence_condition"] is True


def test_short_pole_target_list_is_completed(tmp_path):
    # the demo has two assignable quotient modes; one target is given
    cfg = short_centralized()
    cfg["spectral"]["pole_targets"] = [-1.5]
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    placed = sorted(re for re, _ in report["checks"]["quotient_spectrum"])
    assert np.allclose(placed, [-2.0, -1.5], atol=1e-9)
    assert main(["verify", "--config", cfgp]) == 0


def test_cli_report_residuals_roundtrip(tmp_path):
    cfgp = write_cfg(tmp_path, short_centralized())
    out = tmp_path / "out"
    main(["synth", "--config", cfgp, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    M = report["matrices"]
    E, P, F = np.array(M["E"]), np.array(M["P_Wg"]), np.array(M["F"])
    C = np.array(report["config"]["system"]["C"])
    recomputed = float(np.linalg.norm(E @ P + F @ C - np.eye(3)))
    stored = report["residuals"]["reconstruction_residual"]
    assert recomputed <= 2 * max(stored, 1e-16)


def test_cli_simulate_csv_contract(tmp_path):
    t_end, dt, stride = 2.0, 1e-3, 10
    cfgp = write_cfg(tmp_path, short_centralized(t_end, stride))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    n, k = 3, 1
    assert len(header) == 1 + n + k * (n + 1)
    assert header[0] == "t" and header[1] == "x_1"
    assert header[1 + n] == "node1_xhat_1" and header[-1] == "node1_err"
    assert len(lines) - 1 == math.floor(t_end / (dt * stride)) + 1
    assert (out / "plot_node1_err.dat").exists()
    report = json.loads((out / "report.json").read_text())
    assert "metrics" in report
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_cli_simulate_distributed_columns(tmp_path):
    cfgp = write_cfg(tmp_path, short_distributed())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    n, k = 6, 4
    assert len(header) == 1 + n + k * (n + 1)
    for i in range(1, 5):
        assert (out / f"plot_node{i}_err.dat").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["classes"]["N1"] == [1, 3]
    assert report["classes"]["N2"] == [2, 4]


# ---------------------------------------------------------------------------
# CLI: exit codes


def test_exit_code_config_error(tmp_path):
    bad = short_centralized()
    bad["sim"]["t_end"] = 0.0
    cfgp = write_cfg(tmp_path, bad)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 1
    assert main(["synth", "--config", "/nope.json"]) == 1
    assert main(["reproduce", "bogus", "--out", str(tmp_path)]) == 1
    assert main(["verify", "--random", "--trials", "0"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("make, init", [
    (short_centralized, []),                        # no entry
    (short_centralized, [[0.0, 0.0], [0.0, 0.0]]),  # one entry too many
    (short_distributed, [[0.0] * 6] * 3),           # four nodes, three entries
])
def test_exit_code_bad_observer_init(tmp_path, capsys, make, init):
    cfg = make()
    cfg["sim"]["observer_init"] = init
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "observer_init" in err


def test_exit_code_synthesis_failure(tmp_path):
    cfg = short_centralized()
    cfg["system"]["C"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["synth", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("spectral", [
    {"pole_targets": [math.nan, -2.0]},
    {"pole_targets": [math.inf, -1.0]},
    {"pole_targets": ["fast", -1.0]},
    {"pole_targets": -1.0},
    {"alpha": math.nan},
    {"margin": math.inf},
    {"safety": 0.5},
])
def test_exit_code_bad_spectral_setting(tmp_path, capsys, spectral):
    cfg = short_centralized()
    cfg["spectral"].update(spectral)
    cfgp = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: spectral.")


@pytest.mark.parametrize("which, spectral, key", [
    ("centralized", {"margin": -2.0}, "spectral.margin"),
    ("centralized", {"margin": -1e-9}, "spectral.margin"),
    ("centralized", {"pole_targets": [0.0, -1.0]}, "spectral.pole_targets"),
    ("distributed", {"pole_targets": [5.0]}, "spectral.pole_targets"),
    ("distributed", {"alpha": -1.0, "pole_targets": [-2.0, -0.5]},
     "spectral.pole_targets"),
])
def test_exit_code_impossible_spectral_setting(tmp_path, capsys, which, spectral, key):
    # such settings used to parse and then fail synthesis with exit 2
    cfg = short_centralized() if which == "centralized" else short_distributed()
    cfg.setdefault("spectral", {}).update(spectral)
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("node_id", [[1], "a", 1.5, True, None])
def test_exit_code_node_id_not_an_integer(tmp_path, capsys, node_id):
    # such ids used to pass synth and crash verify --config
    cfgp = write_cfg(tmp_path, {**short_distributed(), "nodes": [
        {**nd, "id": node_id} if k == 1 else nd
        for k, nd in enumerate(short_distributed()["nodes"])]})
    for argv in (["synth", "--config", cfgp, "--out", str(tmp_path / "o")],
                 ["verify", "--config", cfgp]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: 'nodes' entry 1: id must be an integer, got {node_id!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [True, False, "1"])
@pytest.mark.parametrize("where", [
    ("system", "A", 0, 0), ("graph", "adjacency", 0, 1), ("sim", "x0", 2),
    ("spectral", "alpha"), ("spectral", "pole_targets", 0), ("u_bar_max",),
    ("signals", 1, "amplitude"), ("sim", "dt"), ("sim", "record_stride")])
def test_exit_code_boolean_for_a_number(tmp_path, capsys, where, value):
    # JSON true and false used to read as 1.0 and 0.0, a numeric string as its
    # number
    cfg = short_distributed()
    cfg["spectral"] = {"pole_targets": [-1.0]}
    *path, last = where
    blk = cfg
    for key in path:
        blk = blk[key]
    blk[last] = value
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["synth", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and " is not a " in err[0]
    assert [k for k in where if isinstance(k, str)][-1] in err[0]


def test_verify_judges_every_node_whatever_its_id(tmp_path, capsys):
    # node rows are named node<id>_<row> for any integer id, negative too
    ids = {1: 0, 2: -1, 3: 7, 4: 3}
    cfg = builtin_config("distributed")
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
    expected = []
    for line in capsys.readouterr().out.splitlines():
        old = [k for k in ids if line.startswith(f"node{k}_")]
        expected.append(line.replace(f"node{old[0]}_", f"node{ids[old[0]]}_", 1)
                        if old else line)
    for nd in cfg["nodes"]:
        nd["id"] = ids[nd["id"]]
    assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in out] == [ln.split() for ln in expected]
    for node_id in ids.values():
        assert len([ln for ln in out if ln.startswith(f"node{node_id}_")]) >= 8


@pytest.mark.parametrize("where, value", [
    (("signals", 0, "amplitude"), "x"),
    (("signals", 0, "amplitude"), math.nan),
    (("signals", 1, "frequency"), "fast"),
    (("signals", 1, "phase"), math.inf),
    (("sim", "t_end"), "abc"),
    (("sim", "t_end"), math.nan),
    (("sim", "dt"), "small"),
    (("sim", "eps_bl"), math.nan),
    (("sim", "record_stride"), "ten"),
    (("sim", "record_stride"), 2.5),
    (("sim", "record_stride"), math.nan),
    (("sim", "divergence_guard"), "big"),
    (("sim", "divergence_guard"), math.nan),
    (("u_bar_max",), "x"),
    (("u_bar_max",), math.nan),
    (("sim", "x0"), ["a", 0.0, 0.0]),
    (("sim", "x0"), [math.nan, 0.0, 0.0]),
    (("sim", "observer_init"), [["a", 0.0]]),
    (("sim", "observer_init"), [[math.inf, 0.0]]),
    (("sim", "observer_init"), 0.0),
    (("sim", "divergence_guard"), -1.0),   # used to exit 3 at the first step
    (("sim", "divergence_guard"), 0.0),
    # integers past float's range used to raise OverflowError
    pytest.param(("u_bar_max",), 10**400, id="u_bar_max-10**400"),
    pytest.param(("sim", "x0"), [10**400, 0.0, 0.0], id="x0-10**400"),
])
def test_exit_code_bad_numeric_setting(tmp_path, capsys, where, value):
    cfg = short_centralized()
    *parents, key = where
    blk = cfg
    for name in parents:
        blk = blk[name]
    blk[key] = value
    cfgp = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(where[-1]) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("which, where, value, named", [
    ("centralized", (), "system", "config"),
    ("centralized", ("system",), "ABC", "'system' block"),
    ("centralized", ("partition",), "all", "'partition' block"),
    ("distributed", ("graph",), [[0, 1], [1, 0]], "'graph' block"),
    ("centralized", ("spectral",), 0.0, "'spectral' block"),
    ("centralized", ("sim",), 5, "'sim' block"),
    ("centralized", ("signals",), "ab", "'signals'"),
    ("centralized", ("signals", 1), "cos", "'signals' entry 1"),
    ("distributed", ("nodes", 2), [0, 1], "'nodes' entry 2"),
])
def test_exit_code_block_of_wrong_type(tmp_path, capsys, which, where, value,
                                       named):
    cfg = builtin_config(which)
    if where:
        *parents, key = where
        blk = cfg
        for name in parents:
            blk = blk[name]
        blk[key] = value
    else:
        cfg = value
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["synth", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_exit_code_negative_seed(capsys):
    assert main(["verify", "--random", "--trials", "2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"


@pytest.mark.parametrize("argv", [
    ["synth", "--config", "CFG"],
    ["simulate", "--config", "CFG"],
    ["reproduce", "centralized"],
    ["verify", "--random", "--trials", "2"],
])
def test_exit_code_unwritable_out(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    cfgp = write_cfg(tmp_path, short_centralized())
    argv = [cfgp if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")
    assert err[0].endswith(": Not a directory")
    if argv[0] == "reproduce":  # no line claims a report was written
        assert captured.out == ""


def test_exit_code_divergence(tmp_path):
    cfg = short_centralized(t_end=20.0)
    cfg["sim"]["divergence_guard"] = 1e6
    cfgp = write_cfg(tmp_path, cfg)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3


def test_cli_verify_random_and_config(tmp_path, capsys):
    assert main(["verify", "--random", "--trials", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "equivalence-battery" in out and "PASS" in out
    cfgp = write_cfg(tmp_path, short_centralized())
    assert main(["verify", "--config", cfgp]) == 0
    out = capsys.readouterr().out
    assert "reconstruction_residual" in out
    assert "worst residual" in out


def test_cli_reproduce_distributed_short(tmp_path, capsys):
    # full reproduction is exercised by the acceptance suite; here a short run
    cfg = short_distributed(t_end=0.5)
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "rp"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_exit_code_verification_failure(tmp_path, monkeypatch):
    import geouio.cli as cli
    from geouio.verify import Check

    def fake_checks(cfg, tol):
        return [Check("reconstruction_residual", 1.0, "<=", 1e-9)]

    monkeypatch.setattr(cli, "synthesis_residual_checks", fake_checks)
    cfgp = write_cfg(tmp_path, short_centralized())
    assert main(["verify", "--config", cfgp]) == 4


def test_reproduce_synthesizes_once(tmp_path, monkeypatch, central_cfg):
    # every synthesis runs one decomposition: count those of one synthesis,
    # then those of a whole reproduce run
    import geouio.central as central
    from geouio.verify import synthesis_residual_checks

    calls = []
    real = central.decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(central, "decompose", counted)
    synthesis_residual_checks(central_cfg)
    per_synthesis = len(calls)
    calls.clear()
    assert main(["reproduce", "centralized", "--out", str(tmp_path)]) == 0
    assert per_synthesis >= 1 and len(calls) == per_synthesis


def _count_report_writes(monkeypatch):
    import geouio.cli as cli

    writes = []
    real = cli.rpt.write_json

    def counted(path, payload):
        if Path(path).name == "report.json":
            writes.append(path)
        return real(path, payload)

    monkeypatch.setattr(cli.rpt, "write_json", counted)
    return writes


def test_reproduce_writes_the_report_once(tmp_path, monkeypatch, capsys):
    writes = _count_report_writes(monkeypatch)
    assert main(["reproduce", "centralized", "--out", str(tmp_path)]) == 0
    path = tmp_path / "centralized" / "report.json"
    assert writes == [path]
    assert "metrics" in json.loads(path.read_text())
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["synthesized centralized observer: z_dim = 2, "
                       "existence condition passed",
                       f"report written to {path}"]
    assert out[2].startswith("simulated centralized run to t = 20")


def test_reproduce_keeps_the_synthesis_report_when_simulation_fails(
        tmp_path, monkeypatch):
    import geouio.cli as cli
    from geouio.errors import NonFiniteState

    def diverge(*args):
        raise NonFiniteState("state left the bounded region", t=1.0)

    monkeypatch.setattr(cli, "simulate_centralized", diverge)
    assert main(["reproduce", "centralized", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "centralized" / "report.json").read_text())
    assert "residuals" in report and "metrics" not in report


# Each numeric invariant with its comparison and limit, written out here so
# the table in geouio.verify is checked against an independent copy.
_ALPHA = -0.5
_ROWS = [("reconstruction_residual", "<=", 1e-9),
         ("quotient_kills_unknown_input", "<=", 1e-10),
         ("friend_invariance_residual", "<=", 1e-9),
         ("node3_wstar_friend_invariance", "<=", 1e-9),
         ("commutation_residual", "<=", 1e-9),
         ("node12_V_orthogonal_to_Wstar", "<=", 1e-9),
         ("node1_max_re_quotient_spectrum", "<", _ALPHA),
         ("max_re_quotient_spectrum", "<", _ALPHA),
         ("sigma_min_Q", ">", 1e-9)]


@pytest.mark.parametrize("name, op, limit", _ROWS)
def test_invariant_table_rows(name, op, limit):
    from geouio.verify import (ALPHA, INVARIANTS, N1_NODE, NETWORK, NODE,
                               OBSERVER, Check)

    # the row behind each name a design gives a check, nodes 1, 3 and 12 here
    rows = {}
    for row in INVARIANTS:
        if {OBSERVER, NETWORK} & set(row.scopes):
            rows.setdefault(row.name, row)
        if {NODE, N1_NODE} & set(row.scopes):
            for node_id in (1, 3, 12):
                rows.setdefault(f"node{node_id}_{row.name}", row)
    row = rows[name]
    assert row.comparison == op
    assert (_ALPHA if row.limit == ALPHA else row.limit) == limit
    below, above = np.nextafter(limit, -np.inf), np.nextafter(limit, np.inf)
    expect = {"<=": (True, True, False), "<": (True, False, False),
              ">": (False, False, True)}[op]
    checks = [Check(name, v, op, limit) for v in (below, limit, above)]
    assert [c.passed for c in checks] == list(expect)


@pytest.mark.parametrize("name", ["chart_orthonormal_Wstar", "chart_kernel",
                                  "node1_sigma_min_Q_positive",
                                  "xnode1_reconstruction_residual"])
def test_numeric_invariant_without_row_raises(name):
    # a number is judged only by a row's comparison, a boolean by its truth
    from geouio.verify import Check

    with pytest.raises(TypeError):
        Check(name, 0.0)
    with pytest.raises(TypeError):
        Check(name, True, "<=", 1e-9)
    assert Check(name, True).passed is True
    assert Check(name, False).passed is False


def test_worst_residual_reads_only_residual_rows(tmp_path, monkeypatch, capsys):
    import geouio.cli as cli
    from geouio.verify import Check

    def fake_checks(cfg, tol):
        return [Check("sigma_min_Q", 0.5, ">", 1e-9),
                Check("max_re_quotient_spectrum", -1.0, "<", -0.5),
                Check("node2_commutation_residual", 2e-12, "<=", 1e-9)]

    monkeypatch.setattr(cli, "synthesis_residual_checks", fake_checks)
    assert main(["verify", "--config", write_cfg(tmp_path, short_centralized())]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["sigma_min_Q", "PASS", "5.000e-01", "(>", "1e-09)"]
    assert out[1].split()[-2:] == ["(<", "-0.5)"]
    assert out[-1] == "worst residual: 2.000e-12"


@pytest.mark.parametrize("which", ["centralized", "distributed"])
def test_reproduce_validates_once(tmp_path, monkeypatch, which):
    # one evaluation of the table per run: each row's formula runs once for
    # each residual report.json holds, in its order
    from geouio import verify

    calls = []

    def counted(row):
        def formula(subject):
            calls.append(row.name)
            return row.formula(subject)
        return row._replace(formula=formula)

    monkeypatch.setattr(verify, "INVARIANTS",
                        tuple(map(counted, verify.INVARIANTS)))
    assert main(["reproduce", which, "--out", str(tmp_path)]) == 0
    residuals = json.loads(
        (tmp_path / which / "report.json").read_text())["residuals"]
    assert len(calls) == len(residuals)
    assert all(name.endswith(row) for name, row in zip(residuals, calls))


def test_reproduce_report_residuals_are_the_printed_checks(tmp_path, monkeypatch,
                                                           capsys):
    import geouio.cli as cli

    designs = []
    real = cli.invariant_checks

    def recorded(*args):
        designs.append(real(*args))
        return designs[-1]

    monkeypatch.setattr(cli, "invariant_checks", recorded)
    monkeypatch.setenv("GEO_UIO_TOL", "1e-8")
    assert main(["reproduce", "distributed", "--out", str(tmp_path)]) == 0
    residuals = json.loads(
        (tmp_path / "distributed" / "report.json").read_text())["residuals"]
    [checks] = designs
    assert [(c.name, c.value) for c in checks.values()] == list(residuals.items())
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("  ")]
    assert [ln.split(":")[0].strip() for ln in lines] == list(residuals)


def test_cli_reproduce_full_demos(tmp_path):
    out = tmp_path / "rp"
    assert main(["reproduce", "centralized", "--out", str(out)]) == 0
    lines = (out / "centralized" / "trajectory.csv").read_text().strip().splitlines()
    final_err = float(lines[-1].split(",")[-1])
    assert final_err < 1e-2
    assert main(["reproduce", "distributed", "--out", str(out)]) == 0
    lines = (out / "distributed" / "trajectory.csv").read_text().strip().splitlines()
    final = [float(v) for v in lines[-1].split(",")[-4:]]
    assert all(e < 5e-2 for e in final)
    report = json.loads((out / "distributed" / "report.json").read_text())
    assert report["classes"] == {"N1": [1, 3], "N2": [2, 4]}


def test_report_serializes_complex_quotient_spectrum(tmp_path):
    # stable complex pair unobservable (fixed modes), unstable mode placed
    cfg = {
        "system": {
            "A": [[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
            "B": [[1.0], [0.0], [0.0]],
            "C": [[0.0, 0.0, 1.0]],
        },
        "partition": {"known_cols": [0], "unknown_cols": []},
        "signals": [{"kind": "const", "amplitude": 0.0}],
    }
    cfgp = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    spectrum = report["checks"]["quotient_spectrum"]
    assert len(spectrum) == 3
    assert any(abs(im) > 1.0 for _, im in spectrum)
    assert all(re < 0 for re, _ in spectrum)


def test_import_and_reproduce_leave_scipy_unimported(tmp_path):
    # The spectral split calls the dgees of the scipy-openblas numpy links;
    # only numpy builds without it load scipy.linalg (for a nonempty split,
    # which the centralized demo lacks).  scipy.linalg would add ~0.12 s of
    # start-up.
    code = ("import sys\n"
            "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "import geouio\n"
            "print(scipy())\n"
            "from geouio import cli\n"
            "for which in sys.argv[1:]:\n"
            f"    code = cli.main(['reproduce', which, '--out', {str(tmp_path)!r}])\n"
            "    print(code, scipy())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(geouio.__file__).resolve().parents[1]))

    def run(*modes):
        proc = subprocess.run([sys.executable, "-c", code, *modes], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    lines = run("centralized")
    assert lines[0] == "[]" and lines[-1] == "0 []", lines
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.25
    lapack = config.get("Build Dependencies", {}).get("lapack", {}).get("name")
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy links {lapack}, not scipy-openblas")
    assert run("distributed")[-1] == "0 []"
