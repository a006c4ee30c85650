"""Smoke test of the benchmark itself (about two minutes).

    python3 perfbench/smoke.py

Runs every workload with `--smoke` in both modes and checks that the last
stdout line is the result object, that it carries exactly the metrics
BENCHMARK.json declares for the mode, with their units, and that the
human-readable lines name every headline metric of the workload.  Finally it
checks that the benchmark refuses to run (non-zero exit, no result line) in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Metrics printed by name and unit on each workload's untraced run.
HEADLINE = {
    "demos": {"run_central_s.reproduce": "s", "run_distributed_s.reproduce": "s",
              "run_central_s.record-dense": "s",
              "run_distributed_s.record-dense": "s"},
    "design-sweep": {"central_synth_s.n12": "s", "network_synth_s.N16": "s",
                     "network_synth_s.N32": "s"},
    "battery": {"battery_trials_per_s": "1/s"},
}
EVERY_WORKLOAD = {"setup_s": "s", "failed_frac": "frac", "peak_rss_mb": "MB"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(spec, workload, trace):
    problems = []
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        problems.append(f"{where}: {result.get('failed')} operations failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {m['name']} value {value!r}")
    if not trace:
        for name, unit in {**EVERY_WORKLOAD, **HEADLINE[workload]}.items():
            if not any(ln.startswith(f"metric {name} = ") and f" {unit} (" in ln
                       for ln in lines):
                problems.append(f"{where}: no line for {name} in {unit}")
    else:
        if not (HERE / "out" / f"{workload}-seed0.spans.jsonl").is_file():
            problems.append(f"{where}: no span file written")
        if workload == "design-sweep" and not any(
                ln.startswith("probe central.n24: ") for ln in lines):
            problems.append(f"{where}: no failure-probe line for central.n24")
    return problems


def check_refuses_without_sources(spec):
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the package sources"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAIL'}",
                  flush=True)
            problems += found
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
