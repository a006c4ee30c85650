"""geo-uio benchmark: one workload in one process, as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; geouio is imported from its `src/`.  The
runner repeats the workload's round of operations, one caller, each
operation starting when the previous one (and the reference gap after it,
see speed.py) has ended, until S seconds have passed (at least one round,
two for the demo workloads so that artifact hashes can be compared).  BLAS
is pinned to one thread.

With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json, as times at reference speed.  With `--trace 1` it runs
every operation of round 0 twice, untraced and then traced, and reports the
per-layer metrics, normalised per round, plus the tracing overhead; a
workload's failure probe runs once and is counted there.  The last line of stdout is the JSON
result; the lines before it name every metric with its unit.  A result file
with machine information (and, when tracing, a JSONL span file) is written
under `perfbench/out/`.  `--smoke` shrinks the rounds for a quick check.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
TRACE_SETUP_PROBES = 3
# A failed operation counts as this many seconds, slower than any success.
FAILED_OP_S = 60.0
clock = time.perf_counter


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_geouio():
    if not (SRC / "geouio" / "__init__.py").is_file():
        die(f"no geouio sources at {SRC / 'geouio'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import geouio
    if SRC not in Path(geouio.__file__).resolve().parents:
        die(f"imported geouio from {geouio.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Machine information recorded with every result set.


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "geouio").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "src_sha256": _src_digest(), "seed": seed}


# ---------------------------------------------------------------------------
# Measurement helpers.


def measure_setup(args, work, count):
    """Median scaled wall time and import time of `count` fresh-interpreter
    set-ups, each between two reference gaps (see speed.py)."""
    scaled, imports = [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(count):
        before = speed.timed_gap(speed.SPAWN, 1.0)
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        wall = clock() - t0
        if proc.returncode != 0:
            die(f"set-up probe failed:\n{proc.stderr}")
        scaled.append(speed.scale(speed.SPAWN, wall, before,
                                  speed.timed_gap(speed.SPAWN, wall)))
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return statistics.median(scaled), statistics.median(imports)


def call(op, fn=None):
    """Run one operation; its failure is a result, never dropped."""
    op.reset()
    t0 = clock()
    try:
        result, exc = (fn or op.call)(), None
    except Exception as err:  # noqa: BLE001 - counted as a failed op
        result, exc = None, err
    return clock() - t0, result, exc


def class_stats(samples):
    """Summary of one op class from its (wall, scaled, failed) samples.

    A failed attempt counts as FAILED_OP_S, slower than every success, so
    failing fast never reads as a speed-up.  `median_s` is the median of
    the scaled times (wall time at reference speed, see speed.py); the
    tail is the highest of p90/p95/p99/p99.9 with at least ten samples
    beyond it, or absent.  `wall_median_s` is the plain wall-time median.
    """
    eff = sorted(FAILED_OP_S if f else s for _, s, f in samples)
    k = len(eff)
    tail_label = tail = None
    for q in (99.9, 99.0, 95.0, 90.0):
        if k * (1 - q / 100) >= 10:
            tail_label, tail = f"p{q:g}", eff[math.ceil(q / 100 * k) - 1]
            break
    return {"attempts": k, "failed": sum(f for _, _, f in samples),
            "median_s": statistics.median(eff),
            "wall_median_s": statistics.median(t for t, _, _ in samples),
            "tail": tail_label, "tail_s": tail,
            "wall_s": [t for t, _, _ in samples],
            "scaled_s": [s for _, s, _ in samples]}


def fmt(v):
    return "failed" if v == FAILED_OP_S else f"{v:.6g}"


# ---------------------------------------------------------------------------
# The two run modes.


def run_untraced(wl, seconds):
    """Operations in a closed loop, each between two reference gaps.

    The clock is checked after every operation; a run ends once `seconds`
    have passed and at least `wl.min_rounds` rounds are complete.
    """
    records = []
    start, rounds = clock(), 0
    gap = speed.timed_gap(wl.ref)
    while True:
        ops = wl.make_round(rounds)
        for i, op in enumerate(ops):
            dt, result, exc = call(op)
            after = speed.timed_gap(wl.ref, dt)
            records.append((op, dt, speed.scale(wl.ref, dt, gap, after),
                            op.check(result, exc)))
            gap = after
            complete = rounds + (i + 1 == len(ops))
            if complete >= wl.min_rounds and clock() - start >= seconds:
                return records, rounds + 1
        rounds += 1


def run_traced(wl, seconds, tracer):
    """Each op of round 0 untraced, then traced; repeated until time is up."""
    records, pairs = [], []
    start, rounds = clock(), 0
    while True:
        for i, op in enumerate(wl.make_round(0)):
            dt_u, result, exc = call(op, op.traced_call)
            records.append((op, dt_u, dt_u, op.check(result, exc)))
            op_id = f"{rounds}.{i}"
            tracer.begin_op(op_id, {"cls": op.cls, "kind": op.kind,
                                    "label": op.label})
            tracer.install()
            try:
                dt_t, result, exc = call(op, op.traced_call)
            finally:
                tracer.uninstall()
                tracer.op_id = None
            outcome = op.check(result, exc)
            tracer.op_data[op_id].update(seconds=dt_t, failed=outcome.failed,
                                         reason=outcome.reason)
            records.append((op, dt_t, dt_t, outcome))
            pairs.append((dt_u, dt_t))
        rounds += 1
        if clock() - start >= seconds:
            return records, rounds, pairs


def run_probe(ops):
    """Run the workload's failure probe once; per-op facts by op id.

    The probe holds designs the program is known to fail on.  Their outcomes
    are counted as per-layer metrics, not as operations of the run.  A
    tracer of its own reads S* dimensions at the `decompose` boundary.
    """
    from tracing import Tracer

    tracer = Tracer()
    for i, op in enumerate(ops):
        op_id = f"probe.{i}"
        tracer.begin_op(op_id, {"cls": op.cls, "kind": "probe",
                                "label": op.label})
        tracer.install()
        try:
            dt, result, exc = call(op)
        finally:
            tracer.uninstall()
        outcome = op.check(result, exc)
        tracer.op_data[op_id].update(seconds=dt, failed=outcome.failed,
                                     reason=outcome.reason, **outcome.facts)
    return tracer.op_data


def probe_summary(probe):
    by_cls = defaultdict(list)
    for d in probe.values():
        by_cls[d["cls"]].append(d)
    return {cls: f"{sum(d['failed'] for d in ds)} of {len(ds)} failed "
                 f"{dict(Counter(d['reason'] for d in ds if d['failed']))}, "
                 f"wall-time median "
                 f"{statistics.median(d['seconds'] for d in ds):.6g} s"
            for cls, ds in by_cls.items()}


def per_layer_metrics(tracer, rounds, pairs, import_s, declared, probe):
    """Per-round values of the declared per-layer metrics.

    `<span>.calls` and `<span>.self_s` come straight from the traced span of
    that name; the rest are derived below.  The failure counts and
    `synthesis.sstar_excess_dims` are totals over the failure probe.
    """
    from tracing import SPAN_NAMES, SYNTH_SPANS

    c, s, n, ops = tracer.calls, tracer.self_s, tracer.counters, tracer.op_data
    values = {}
    for m in declared:
        span, _, kind = m["name"].rpartition(".")
        if span in SPAN_NAMES and kind in ("calls", "self_s"):
            values[m["name"]] = (c if kind == "calls" else s)[span] / rounds
    cli_ops = {k for k, d in ops.items() if d["kind"] == "cli"}
    synth_in_cli = sum(1 for span in tracer.spans
                       if span[1] in SYNTH_SPANS and span[5] in cli_ops)
    steps = n["rk4_steps"]
    sim_s = tracer.incl["simulate.simulate_centralized"] + \
        tracer.incl["simulate.simulate_distributed"]
    placed = c["synthesis.place_poles"]
    reasons = Counter(d["reason"] for d in probe.values() if d["failed"])
    values.update({
        "subspaces.svd_ops.calls":
            (c["subspaces.image"] + c["subspaces.kernel"]) / rounds,
        "subspaces.svd_ops.self_s":
            (s["subspaces.image"] + s["subspaces.kernel"]) / rounds,
        "synthesis.place_poles.converged_frac":
            n["place_poles_converged"] / placed if placed else 1.0,
        "synthesis.sstar_excess_dims": sum(
            d["sstar_dim"] - 1 for d in probe.values()
            if d["cls"].startswith("central.") and "sstar_dim" in d),
        "simulate.rk4_steps": steps / rounds,
        "simulate.step_us": sim_s / steps * 1e6 if steps else 0.0,
        "simulate.recorded_rows": n["recorded_rows"] / rounds,
        "report.bytes_written": n["bytes_written"] / rounds,
        "cli.synth_calls_per_run": synth_in_cli / len(cli_ops) if cli_ops else 0.0,
        "setup.import_s": import_s,
        "trace_overhead_frac":
            sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0,
    })
    for m in declared:
        prefix, _, reason = m["name"].rpartition(".")
        if prefix == "design.failures":
            values[m["name"]] = reasons[reason]
    return values


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every round (for the smoke test)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    import_geouio()
    sys.path.insert(0, str(HERE))
    from workloads import BATTERY_TRIALS, make_workload

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        info = machine_info(args.seed)
        setup_s, import_s = measure_setup(
            args, work / "probe",
            TRACE_SETUP_PROBES if args.trace else SETUP_PROBES)
        wl = make_workload(args.workload, args.seed, work, args.smoke)
        tracer, probe = None, {}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            records, rounds, pairs = run_traced(wl, args.seconds, tracer)
            probe = run_probe(wl.probe())
        else:
            records, rounds = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for *_, o in records]
    gate = wl.run_gate(outcomes)
    attempted = len(records)
    failed = attempted if gate else sum(o.failed for o in outcomes)
    correct = not any(o.wrong for o in outcomes)
    by_cls = defaultdict(list)
    for op, dt, scaled, o in records:
        by_cls[op.cls].append((dt, scaled, o.failed or bool(gate)))
    classes = {cls: class_stats(samples) for cls, samples in by_cls.items()}
    failures = {}   # (class, reason) -> count and the first failure's details
    for op, *_, o in records:
        if o.failed:
            entry = failures.setdefault((op.cls, o.reason),
                                        {"count": 0, "example": o.facts})
            entry["count"] += 1

    print(f"machine {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {attempted} ops, {failed} failed")
    if gate:
        print(f"gate broken: {gate}")
    for (cls, reason), entry in failures.items():
        print(f"failure x{entry['count']}: {cls}: {reason}")
    speed_note = "" if args.trace else " at reference speed"
    lines = [("setup_s", setup_s, "s",
              "median of fresh-interpreter set-ups at reference speed")]
    for name, cls in wl.headline.items():
        st = classes[cls]
        extra = f"{st['tail']} {fmt(st['tail_s'])} s" if st["tail"] else \
            "no percentile has 10 samples beyond it"
        lines.append((name, st["median_s"], "s",
                      f"median of {st['attempts']}{speed_note}, "
                      f"{st['failed']} failed, a failure counts as "
                      f"{FAILED_OP_S:g} s; wall-time median "
                      f"{st['wall_median_s']:.6g} s; {extra}"))
        if cls == "battery.batch":
            lines.append(("battery_trials_per_s", BATTERY_TRIALS / st["median_s"],
                          "1/s", f"{BATTERY_TRIALS} trials per batch"))
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    lines += [("failed_frac", failed / attempted, "frac", f"{failed}/{attempted}"),
              ("peak_rss_mb", peak_rss_mb, "MB",
               "this process or its largest child")]

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer_metrics(tracer, rounds, pairs, import_s, declared,
                                   probe)
        for cls, summary in probe_summary(probe).items():
            print(f"probe {cls}: {summary}")
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
    else:
        declared = spec["end_to_end"]
        medians = [classes[c]["median_s"] for c in wl.headline.values()]
        values = {"setup_s": setup_s,
                  "op_s": math.exp(sum(map(math.log, medians)) / len(medians)),
                  "peak_rss_mb": peak_rss_mb}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        die(f"metrics declared but not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, value, unit, note in lines:
        print(f"metric {name} = {fmt(value)} {unit} ({note})")
    for name, m in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'} {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": info, "workload": args.workload,
                    "seconds": args.seconds, "rounds": rounds,
                    "classes": classes, "gate": gate, "probe": probe,
                    "failures": [{"class": c, "reason": r, **e}
                                 for (c, r), e in failures.items()],
                    "headline": {n: {"value": v, "unit": u} for n, v, u, _ in lines},
                    **result}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
