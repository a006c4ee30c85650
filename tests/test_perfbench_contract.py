"""The benchmark's hooks into geouio: the names it traces and the checks it reads.

perfbench wraps geouio functions by name from outside the package, reads
their arguments and results in boundary hooks, and reads the results of
`verify.synthesis_residual_checks`; a rename, a deletion or a changed
parameter or result here would otherwise surface only as a broken benchmark
run or a traced metric that silently reads 0.
"""

import importlib
import importlib.util
import math
import os
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from geouio.cases import builtin_config
from geouio.config import parse_config
from geouio.verify import synthesis_residual_checks

from records import rebuilt

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded without installing anything."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced():
    """The (module, function, aggregate) triples perfbench/tracing.py wraps."""
    return _tracing().TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"geouio.{module}.{function}" for module, function, _ in traced
               if not callable(getattr(importlib.import_module(f"geouio.{module}"),
                                       function, None))]
    assert not missing


@pytest.mark.parametrize("which", ["centralized", "distributed"])
def test_residual_checks_carry_what_the_benchmark_reads(which):
    checks = synthesis_residual_checks(parse_config(builtin_config(which)))
    assert checks
    for c in checks:
        assert isinstance(c.name, str)
        assert isinstance(c.passed, bool)
        assert isinstance(c.value, (bool, float))
        assert c.comparison in (None, "<=", "<", ">")
        assert (c.limit is None) == (c.comparison is None)


@pytest.mark.parametrize("which", ["centralized", "distributed"])
def test_residual_checks_reach_every_traced_synthesis_step(which):
    """design-sweep times `synthesis_residual_checks`: each traced step of a
    design's synthesis must run under it, or its layer reads 0."""
    own = ("central.synthesize_centralized_uio" if which == "centralized"
           else "distributed.")
    names = [f"{m}.{f}" for m, f, _ in _traced()
             if m == "synthesis" or f"{m}.{f}".startswith(own)]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        synthesis_residual_checks(parse_config(builtin_config(which)))
    finally:
        tracer.uninstall()
    assert len(names) >= 3
    assert not [name for name in names if not tracer.calls[name]]


def test_every_hook_reads_what_a_real_call_gives(central_cfg, central_obs,
                                                 dist_cfg, dist_net, tmp_path):
    """Each boundary hook, given a short real call of its function, counts
    what that call did."""
    hooks = _tracing()._HOOKS
    tracer = SimpleNamespace(counters=defaultdict(float), op_id=0,
                             op_data={0: {}})

    def call(name, *args):
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"geouio.{module}"), function)
        result = fn(*args)
        hooks.pop(name)(tracer, fn, args, {}, result)
        return result

    decomp = call("synthesis.decompose", central_cfg.system.A,
                  central_cfg.system.C, central_cfg.partition.B_unknown)
    assert tracer.op_data[0]["sstar_dim"] == decomp.S_star.dim
    obs, _ = central_obs
    net, _ = dist_net
    cfg_c = rebuilt(central_cfg.sim, t_end=0.2, record_stride=1)
    cfg_d = rebuilt(dist_cfg.sim, t_end=0.1, record_stride=2)
    traj = call("simulate.simulate_centralized", central_cfg.system,
                central_cfg.partition, obs, central_cfg.signals, cfg_c)
    call("simulate.simulate_distributed", dist_cfg.system, net,
         dist_cfg.signals, cfg_d)
    assert tracer.counters["rk4_steps"] == (math.floor(0.2 / cfg_c.dt + 1e-9)
                                            + math.floor(0.1 / cfg_d.dt + 1e-9))
    assert tracer.counters["recorded_rows"] == 201 + 51
    csv = call("report.write_trajectory_csv", traj, tmp_path / "t.csv")
    json_path = tmp_path / "report.json"
    call("report.write_json", json_path, {"mode": "centralized"})
    plots = call("report.write_plot_series", traj, tmp_path)
    assert csv is None and len(plots) == 1
    written = sum(os.path.getsize(p) for p in
                  (tmp_path / "t.csv", json_path, *plots))
    assert written > 0 and tracer.counters["bytes_written"] == written
    assert not hooks, f"hooks without a contract check: {sorted(hooks)}"
