"""In-memory span tracer that wraps geouio's public functions from outside.

The tracer never edits the package: ``install()`` replaces each listed
function with a timing wrapper in every ``geouio`` module namespace that
holds a reference to it (so both ``subspaces.kernel`` and the name
``kernel`` imported into ``synthesis`` are traced), and ``uninstall()`` puts
the originals back.  Untraced code therefore runs the original functions
with no added cost.

A span is ``(id, name, start, end, parent, op, self_s)``.  Self time is the
span's duration minus the time covered by its traced children.  Functions
called many thousands of times per operation (the SVD wrappers and the
signal evaluator) are aggregated per parent span instead of being stored one
by one; their totals are exact either way.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# (module, function, aggregate).  Span names are "<module>.<function>".
TRACED = (
    ("subspaces", "image", True),
    ("subspaces", "kernel", True),
    ("subspaces", "intersect", True),
    ("synthesis", "decompose", False),
    ("synthesis", "stabilizing_friend", False),
    ("central", "synthesize_centralized_uio", False),
    ("central", "classical_rank_condition", False),
    ("distributed", "synthesize_distributed", False),
    ("distributed", "per_node_decomposition", False),
    ("distributed", "build_consensus_blocks", False),
    ("distributed", "joint_detectability_check", False),
    ("distributed", "gain_bounds", False),
    ("simulate", "simulate_centralized", False),
    ("simulate", "simulate_distributed", False),
    ("simulate", "eval_signals", True),
    ("simulate", "error_metrics", False),
    ("report", "write_trajectory_csv", False),
    ("report", "write_plot_series", False),
    ("report", "write_json", False),
    ("verify", "random_equivalence_battery", False),
    ("verify", "synthesis_residual_checks", False),
    ("config", "parse_config", False),
    ("cli", "main", False),
    ("cli", "cmd_synth", False),
    ("cli", "cmd_simulate", False),
    ("cli", "cmd_reproduce", False),
)

SPAN_NAMES = {f"{m}.{f}" for m, f, _ in TRACED} | {"synthesis.place_poles"}
SYNTH_SPANS = ("central.synthesize_centralized_uio",
               "distributed.synthesize_distributed")


class Tracer:
    """Span recorder plus the per-layer counters read at the traced boundaries."""

    def __init__(self):
        self.spans = []                 # stored spans, in end order
        self.aggregates = {}            # (name, parent, op) -> [calls, total, self]
        self.calls = defaultdict(int)   # name -> calls
        self.incl = defaultdict(float)  # name -> inclusive seconds
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.op_id = None
        self.op_data = {}               # per-op facts captured at boundaries
        self._stack = []                # frames: [span_id, child_seconds]
        self._next_id = 0
        self._patched = []              # (module, attr, original)

    # -- installation -----------------------------------------------------

    def install(self):
        import scipy.signal as ssig

        if self._patched:
            return
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "geouio" or name.startswith("geouio."))]
        for modname, fname, aggregate in TRACED:
            original = getattr(sys.modules[f"geouio.{modname}"], fname)
            hook = _HOOKS.get(f"{modname}.{fname}")
            wrapped = self._wrap(f"{modname}.{fname}", original, aggregate, hook)
            for mod in pkg:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        # synthesis reaches scipy through the module object `ssig`.
        proxy = _SignalProxy(ssig, self._wrap(
            "synthesis.place_poles", ssig.place_poles, False, _place_poles_hook))
        for mod in pkg:
            for attr, val in list(vars(mod).items()):
                if val is ssig:
                    self._patched.append((mod, attr, ssig))
                    setattr(mod, attr, proxy)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- spans ------------------------------------------------------------

    def begin_op(self, op_id, data=None):
        self.op_id = op_id
        self.op_data[op_id] = dict(data or {})

    def _wrap(self, name, fn, aggregate, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            if aggregate:
                span_id = parent          # children of an aggregate roll up
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.self_s[name] += own
                if aggregate:
                    agg = tracer.aggregates.setdefault(
                        (name, parent, tracer.op_id), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own
                else:
                    tracer.spans.append((span_id, name, t0, t1, parent,
                                         tracer.op_id, own, ok))
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path):
        """Write one record per op, every stored span, then the aggregates."""
        with open(path, "w") as fh:
            for op, data in self.op_data.items():
                fh.write(json.dumps({"op_record": op, **data}) + "\n")
            for sid, name, t0, t1, parent, op, own, ok in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "self_s": own, "ok": ok}) + "\n")
            for (name, parent, op), (calls, total, own) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": parent,
                                     "op": op, "calls": calls, "total_s": total,
                                     "self_s": own}) + "\n")


class _SignalProxy:
    """Stands in for `scipy.signal` with a traced `place_poles`."""

    def __init__(self, real, place_poles):
        self._real = real
        self.place_poles = place_poles

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# Boundary hooks: counts read from arguments and results of traced calls.


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _place_poles_hook(tracer, fn, args, kwargs, result):
    if result.rtol <= _bound(fn, args, kwargs)["rtol"]:
        tracer.counters["place_poles_converged"] += 1


def _decompose_hook(tracer, fn, args, kwargs, result):
    data = tracer.op_data.get(tracer.op_id)
    if data is not None and "sstar_dim" not in data:
        data["sstar_dim"] = result.S_star.dim


def _simulate_hook(tracer, fn, args, kwargs, result):
    cfg = _bound(fn, args, kwargs)["cfg"]
    if cfg.method == "rk4":
        tracer.counters["rk4_steps"] += math.floor(cfg.t_end / cfg.dt + 1e-9)
    tracer.counters["recorded_rows"] += len(result.times)


def _written_hook(tracer, fn, args, kwargs, result):
    tracer.counters["bytes_written"] += os.path.getsize(
        _bound(fn, args, kwargs)["path"])


def _plot_series_hook(tracer, fn, args, kwargs, result):
    tracer.counters["bytes_written"] += sum(os.path.getsize(p) for p in result)


_HOOKS = {
    "synthesis.decompose": _decompose_hook,
    "simulate.simulate_centralized": _simulate_hook,
    "simulate.simulate_distributed": _simulate_hook,
    "report.write_trajectory_csv": _written_hook,
    "report.write_json": _written_hook,
    "report.write_plot_series": _plot_series_hook,
}
