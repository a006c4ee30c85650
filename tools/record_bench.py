"""Record a before/after benchmark of this checkout against a parent commit.

    python3 tools/record_bench.py PARENT_REF [--workload NAME[:PAIRS] ...]
        [--seconds S] [--first-seed N]

Run it in a git checkout.  The parent's files are exported with
`git archive` into a temporary directory, removed again at the end, so the
checkout's git metadata is left as it was; the change is this checkout as
it stands.  For each workload (default: every workload in BENCHMARK.json) the
script runs

    python3 perfbench/run.py --workload W --seed S --seconds S

in PAIRS pairs (default 5), one run of each side with the same seed, seed
FIRST_SEED + i in pair i (default 1 + i), with BLAS on one thread.  Within
a pair the sides take turns to go first, so that a slow drift of the
machine's speed favours neither.  Each side runs its own `perfbench/`.

The result is `BENCH_<short sha of HEAD>.json` at the checkout's root.  For
each workload and end-to-end metric it holds each side's values in pair
order, their median and quartiles, and the pairs the change won.  Every run
is listed with its rounds, `attempted`, `failed` and `correct`: a run with
failures counts like any other, and a run that produced no result is kept
with its exit status and error text.  The file holds no timestamp, so two
recordings of one tree differ only in what they measured.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {"OPENBLAS_NUM_THREADS": "1"}
PAIRS = 5


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    import numpy as np

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"cpus": cpus, "cpu_model": cpu_model(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its JSON result, or its exit status
    and error text if it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}"]
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **ENV},
                          capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"seed": seed, "returncode": proc.returncode,
                "error": proc.stderr[-2000:]}
    blas = next((json.loads(line[8:]).get("blas") for line in lines
                 if line.startswith("machine ")), None)
    # rounds run in the fixed time: peak RSS grows with them on design-sweep
    rounds = next((int(m[1]) for line in lines if line.startswith("workload ")
                   for m in [re.search(r": (\d+) rounds", line)] if m), None)
    return {"seed": seed, "returncode": proc.returncode, "blas": blas,
            "rounds": rounds,
            **{k: result.get(k) for k in ("attempted", "failed", "correct")},
            "metrics": {name: m["value"]
                        for name, m in result.get("metrics", {}).items()}}


def summary(values: list) -> dict:
    if not values:
        return {"values": [], "median": None, "q1": None, "q3": None}
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(runs: dict, metrics: list) -> dict:
    """Per metric, each side's summary and the pairs the change won."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            **{side: summary([r["metrics"][name] for r in runs[side]
                              if name in r.get("metrics", {})])
               for side in ("parent", "change")},
            "pairs_won": won, "pairs": len(pairs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME[:PAIRS]")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = [(w.partition(":")[0], int(w.partition(":")[2] or PAIRS))
            for w in args.workload] or [(w["name"], PAIRS)
                                        for w in spec["workloads"]]
    known = {w["name"] for w in spec["workloads"]}
    unknown = [name for name, _ in plan if name not in known]
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {sorted(known)}")
    head = git("rev-parse", "HEAD")
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    record = {
        "parent": {"ref": args.parent, "sha": parent},
        "change": {"sha": head, "uncommitted_changes": dirty},
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g}",
        "env": ENV,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        exported = Path(tmp) / "parent"
        exported.mkdir()
        archive = subprocess.Popen(["git", "archive", parent], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(exported)],
                       stdin=archive.stdout, check=True)
        if archive.wait():
            raise SystemExit(f"git archive {parent} failed")
        trees = {"parent": exported, "change": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            "src", "perfbench"], cwd=tree, check=True)
        for name, pairs in plan:
            runs = {"parent": [], "change": []}
            for i in range(pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], name, seed, args.seconds)
                    runs[side].append(r)
                    print(f"{name} pair {i} seed {seed} {side}: "
                          f"{json.dumps(r.get('metrics', r))}", flush=True)
            record["workloads"][name] = {
                "pairs": pairs,
                "metrics": compare(runs, spec["end_to_end"]),
                "runs": runs}
    record["machine"]["blas"] = next(
        (r["blas"] for w in record["workloads"].values()
         for r in w["runs"]["change"] if r.get("blas")), None)
    path = ROOT / f"BENCH_{git('rev-parse', '--short', 'HEAD')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
