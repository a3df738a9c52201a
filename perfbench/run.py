"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 35 --trace 0

Run from the repository root. The library is imported from ``./src`` of the
working directory, never from an installed copy; a directory without it
exits with code 2 before anything is measured. Stdout carries the
environment header, a report line, the op counts and, last, the result
object. Exit code 1 means an output check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS pools read their thread caps once, when numpy loads, so they are set
# here before anything imports numpy. One thread keeps runs on a shared
# two-core machine steady and makes every float reduction order fixed.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread caps must be set before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def library_path(root: Path) -> Path:
    """The checkout's own `src` directory; raise if it is missing."""
    src = root / "src"
    if not (src / "codebrain" / "__init__.py").is_file():
        raise FileNotFoundError(f"no codebrain sources under {src}")
    return src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    try:
        sys.path.insert(0, str(library_path(root)))
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the repository root", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    return bench.main(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
