"""nldirac benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads and metrics are declared in
BENCHMARK.json.  With ``--trace 0`` the workload runs for S seconds and the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` a fixed prefix of the same operations runs once plain and
once under the span tracer, and the object carries the per-layer metrics.
Earlier lines describe the environment, the metrics under their workload
names and every failed operation.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nldirac" / "cli.py").is_file():
        print(f"error: no nldirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP pools before numpy loads, here and in every child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import harness

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), whys[args.workload])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
