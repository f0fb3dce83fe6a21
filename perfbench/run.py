"""ampvbic benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ref_cell --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With --trace 0 the run measures the end-to-end metrics
with tracing off, each timing scaled to a nominal host speed by a frozen
copy of the program run beside it (see baseline.py), and prints the raw
timings too; with --trace 1 it reports per-layer metrics from a
serial traced run (spans go to perfbench/out/).  Every figure and the run
environment are printed by name; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A failed
output check prints correct=false and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Read and recorded, never set: the benchmark runs with the threading the
# environment gives it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def use_checkout_src():
    """Make the package import from this checkout's src/; exit with code 1
    when there is none."""
    src = ROOT / "src"
    if not (src / "ampvbic").is_dir():
        sys.exit(f"no ampvbic package under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(HERE)]


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    print("env", json.dumps(environment(w.name, args.seed)))
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        result = workloads.run_traced(
            w, args.seed, args.seconds,
            spans_path=out / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        result = workloads.run_untraced(w, args.seed, args.seconds)

    for key, value in result.notes.items():
        print(f"{key:40s} {value}")
    for name, (value, unit) in {**result.metrics, **result.extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    for problem in result.problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
