"""Benchmark runner: runs one workload in a child process and relays its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-serve --seed 1 --seconds 25 --trace 0

The child (``bench.py``) runs on one thread: the BLAS/OpenMP thread
variables are set to 1 before NumPy loads.  The runner waits for the
child, kills it after ``TIMEOUT_S`` and exits with the child's code.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
TIMEOUT_S = 175


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: %s has no src/repro; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(BENCH_DIR / "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(command, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded %d s and was stopped" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
