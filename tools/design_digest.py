"""Digest every outcome of the benchmark's seeded designs and batteries.

    python3 tools/design_digest.py --seeds A-B --rounds A-B
        [--part design|probe|battery ...]

Run it in a checkout; geouio is imported from its `src/`, and the seeded
inputs come from `perfbench/workloads.py`, which is imported as it stands
(no bytecode is written) and not changed.  For every seed and round of the
inclusive ranges it runs the operations of each part:

- design: the round of `design-sweep` (`workloads.DESIGN_ROUND`);
- probe: the failure-probe plants (`workloads.PROBE_ROUND`) drawn from
  `(seed, round)` as a design round is; large (n = 24, 48), so opt-in;
- battery: the round of `battery`, its equivalence batteries.

A design part prints its plant count, its failure count (a raised error or
a check that does not pass) with the failures by class (the error's class
name, or `residual_limit` for a failed check) and two SHA-256 digests: a
checks-only one of every plant's check values (`repr`) or failure class
and message, and a full one of the same with every decision margin noted
while it ran.  The battery prints its trial, marginal and disagreement
counts, a checks-only SHA-256 of every trial's verdicts and a full one of
every trial's result and every noted margin.
Two trees that print equal full digests made the same decisions to the bit
on these inputs; equal checks-only digests say that they reached the same
outcomes, to the bit, by decisions whose margins may differ, as when a
subspace is computed by another recursion.  The default parts are design
and battery.
"""

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # as perfbench/run.py runs the workloads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from geouio import verify  # noqa: E402
from geouio.subspaces import margin_monitor  # noqa: E402

_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # perfbench/ is read, never written to
import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

PARTS = ("design", "probe", "battery")


def _design_ops(part: str, seed: int, r: int, work: Path) -> list:
    if part == "design":
        return workloads.design_sweep(seed, work).make_round(r)
    return workloads._design_ops(workloads.PROBE_ROUND,
                                 np.random.default_rng([seed, r]))


def design_digest(part: str, seeds, rounds) -> dict:
    """Plant count, failure count, failures by class and the checks-only
    and full digests of a design part."""
    h, checks_h = hashlib.sha256(), hashlib.sha256()
    plants = 0
    classes = Counter()
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for r in rounds:
                for op in _design_ops(part, seed, r, Path(work)):
                    with margin_monitor() as rec:
                        try:
                            checks, exc = op.call(), None
                        except Exception as err:  # a failure is an outcome
                            checks, exc = None, err
                    if exc is None:
                        outcome = [(c.name, c.value, c.passed) for c in checks]
                    else:
                        outcome = (type(exc).__name__, str(exc))
                    plants += 1
                    verdict = op.check(checks, exc)
                    if verdict.failed:
                        classes[verdict.reason if exc is None
                                else type(exc).__name__] += 1
                    key = (seed, r, op.label, outcome)
                    checks_h.update(repr(key).encode())
                    h.update(repr((*key, rec.margins)).encode())
    return {"plants": plants, "failures": classes.total(),
            "classes": dict(sorted(classes.items())),
            "checks_sha256": checks_h.hexdigest(), "sha256": h.hexdigest()}


class _RecordedWorkers:
    """``verify``'s ``_workers`` module, keeping what ``map_ranges`` returns:
    one result per trial."""

    def __init__(self, workers):
        self._workers = workers
        self.results = []

    def __getattr__(self, name):
        return getattr(self._workers, name)

    def map_ranges(self, fn, units, workers):
        out = self._workers.map_ranges(fn, units, workers)
        self.results.extend(out)
        return out


def battery_digest(seeds, rounds) -> dict:
    """Trial, marginal and disagreement counts and the checks-only and full
    digests of the batteries."""
    h, checks_h = hashlib.sha256(), hashlib.sha256()
    counts = {"trials": 0, "marginal": 0, "disagreements": 0}
    workers = verify._workers
    try:
        with tempfile.TemporaryDirectory() as work:
            for seed in seeds:
                for r in rounds:
                    for op in workloads.battery(seed, Path(work)).make_round(r):
                        verify._workers = _RecordedWorkers(workers)
                        with margin_monitor() as rec:
                            result = op.call()
                        counts["trials"] += result.trials
                        counts["marginal"] += len(result.marginal)
                        counts["disagreements"] += len(result.disagreements)
                        results = verify._workers.results
                        verdicts = [{k: v for k, v in info.items()
                                     if k != "min_margin"} for info in results]
                        checks_h.update(repr((seed, r, op.label,
                                              verdicts)).encode())
                        h.update(repr((seed, r, op.label, results,
                                       rec.margins)).encode())
    finally:
        verify._workers = workers
    return {**counts, "checks_sha256": checks_h.hexdigest(),
            "sha256": h.hexdigest()}


def _span(text: str) -> range:
    a, _, b = text.partition("-")
    return range(int(a), int(b or a) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_span, required=True, metavar="A-B")
    parser.add_argument("--rounds", type=_span, required=True, metavar="A-B")
    parser.add_argument("--part", action="append", choices=PARTS)
    args = parser.parse_args(argv)
    for part in args.part or ("design", "battery"):
        if part == "battery":
            d = battery_digest(args.seeds, args.rounds)
            print(f"battery: {d['trials']} trials, {d['marginal']} marginal, "
                  f"{d['disagreements']} disagreements, "
                  f"checks sha256 {d['checks_sha256']}, sha256 {d['sha256']}")
        else:
            d = design_digest(part, args.seeds, args.rounds)
            by_class = ", ".join(f"{k} {v}" for k, v in d["classes"].items())
            print(f"{part}: {d['plants']} plants, {d['failures']} failures"
                  + (f" ({by_class})" if by_class else "")
                  + f", checks sha256 {d['checks_sha256']}"
                  f", sha256 {d['sha256']}")


if __name__ == "__main__":
    main()
