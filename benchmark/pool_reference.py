"""Reference figures for the exhaustive scan's process pool.

    python3 benchmark/pool_reference.py

Times solve_exhaustive with workers=1 and workers=2 on the exhaustive boxes
of the scan workload on seed 1, the default of run.py, and prints the
median wall time of REPEATS runs of each, and their ratio. It runs apart
from the workloads, which never start a pool, so that removing
``--workers`` from the program cannot break the benchmark.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1
REPEATS = 3


def main() -> None:
    m = workloads.load_mdlp()
    print("box, hit, workers=1 ms, workers=2 ms, speed-up")
    for case in workloads.scan_inputs(SEED):
        if case["kind"] != "exhaustive":
            continue
        inst = workloads.build_case(m, case)
        medians = []
        for workers in (1, 2):
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                sol = m.solvers.solve_exhaustive(inst, workers=workers)
                times.append(time.perf_counter() - start)
                problem = checks.check_recovered(sol, case, case["work"])
                if problem:
                    raise SystemExit(f"{case['name']} with workers={workers}: {problem}")
            medians.append(statistics.median(times) * 1e3)
        box = "x".join(map(str, case["orders"]))
        hit = "miss" if case["witness"] is None else case["index"] + 1
        print(f"{box}, {hit}, {medians[0]:.1f}, {medians[1]:.1f}, {medians[0] / medians[1]:.2f}")


if __name__ == "__main__":
    main()
