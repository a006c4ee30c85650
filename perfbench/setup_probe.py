"""One fresh-interpreter set-up: import geouio, then build a workload's inputs.

    python3 perfbench/setup_probe.py --workload NAME --seed N --work DIR [--smoke]

Prints one JSON line with the import time and the input-building time.  The
caller times the whole process from outside, which is the benchmark's
`setup_s`.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import geouio  # noqa: F401
    t1 = time.perf_counter()
    from workloads import make_workload
    make_workload(args.workload, args.seed, Path(args.work), args.smoke).make_round(0)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
