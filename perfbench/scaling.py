"""Thread scaling of one minimax plan: wall time at 1 thread and at nproc.

    python3 perfbench/scaling.py

The plan is criterion 1's (n = 1e4, s = 1, P0 = 1, rho_n = n^-0.8,
j_max = 1380, 20 000 replications).  Prints the median wall time of
``run_monte_carlo`` over five runs for each thread count; the plan is built
once, and the rejection count must not depend on the thread count.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqtest.montecarlo import ExperimentConfig, build_plan, run_monte_carlo  # noqa: E402


REPS, REPEATS = 20_000, 5


def main() -> int:
    n = 10_000
    cfg = ExperimentConfig("minimax", n, REPS, 20_260_818,
                           params={"s": 1.0, "p0": 1.0, "rho_n": float(n) ** -0.8})
    plan = build_plan(cfg)
    counts = {}
    for threads in sorted({1, os.cpu_count() or 1}):
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            summary = run_monte_carlo(cfg, threads=threads, plan=plan)
            walls.append(time.perf_counter() - start)
        counts[threads] = summary.rejections
        print(f"threads={threads} median_wall_s={statistics.median(walls):.3f} "
              f"min={min(walls):.3f} max={max(walls):.3f} reps={REPS}")
    if len(set(counts.values())) != 1:
        print(f"rejection counts differ across thread counts: {counts}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
