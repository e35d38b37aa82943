"""Run one mdlp benchmark workload and print its metrics.

    python3 benchmark/run.py --workload design|scan|attack --seed N \
        --seconds S --trace 0|1

Runs in one process with workers=1 and starts no pool or thread. Imports
``mdlp`` from the ``src`` directory next to this one and exits with code 2
when it is missing. Set-up is repeated SETUP_REPEATS times and its median
reported. Then whole rounds of the workload's operations run until their
measured time reaches ``--seconds``, and every result is checked against
a computation made apart from the program, outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, as medians over its rounds, and the spans of its first
round go to benchmark/out/trace-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, inputs=None) -> dict:
    """Set up, run whole rounds for ``seconds`` of measured time, check.

    Returns the result object that main prints. ``inputs`` replaces the
    workload's seed-derived inputs (the benchmark's tests pass tiny ones).
    """
    make_inputs, setup = workloads.WORKLOADS[workload]
    if inputs is None:
        inputs = make_inputs(seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = workloads.load_mdlp()
        ops = setup(package, inputs)
        ops[0].run()  # warm-up
        setup_times.append(time.perf_counter() - start)

    spans = tracer.Tracer() if trace else None
    if spans:
        spans.install(package)
    # Wall times of the correct runs of each operation, by name.
    latencies: dict[str, list[float]] = {op.name: [] for op in ops}
    problems = {}
    # Per-layer metrics of each traced round, and the spans of the first.
    round_layers, first_spans = [], []
    measured = 0.0
    attempted = failed = rounds = 0
    try:
        while rounds == 0 or measured < seconds:
            for op in ops:
                start = time.perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # an operation's failure is reported, not fatal
                    result, error = None, exc
                elapsed = time.perf_counter() - start
                measured += elapsed
                attempted += 1
                problem = f"raised {error!r}" if error else op.check(result)
                if problem is None:
                    latencies[op.name].append(elapsed)
                    continue
                failed += 1
                known = op.known_fault is not None and op.known_fault.matches(problem)
                problems.setdefault((op.name, known), (op, problem, error))
            rounds += 1
            if spans:
                round_spans = spans.take()
                round_layers.append(tracer.layer_metrics(round_spans))
                first_spans = first_spans or round_spans
    finally:
        if spans:
            spans.uninstall()

    for (name, known), (op, problem, error) in problems.items():
        if known:
            print(f"known fault: {name}: {problem} ({op.known_fault.text})", file=sys.stderr)
            continue
        print(f"WRONG: {name}: {problem}", file=sys.stderr)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
    correct = all(known for _, known in problems)
    completed = attempted - failed
    print(
        f"{workload} seed={seed}: {rounds} rounds of {len(ops)} ops in {measured:.2f} s, "
        f"{completed / measured:.4g} correct ops/s",
        file=sys.stderr,
    )

    if spans:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(first_spans, OUT_DIR / f"trace-{workload}.csv")
        units = {name: unit for name, unit, _ in tracer.METRICS}
        values = {name: statistics.median(r[name] for r in round_layers) for name in units}
    else:
        units = END_TO_END_UNITS
        # Each operation's median first: operations differ in size by design,
        # and a median pooled over all runs of all operations would sit on
        # the boundary between two of them whenever their count is even.
        typical = [statistics.median(times) for times in latencies.values() if times]
        values = {
            "ops_per_s": completed / measured,
            "latency_p50_ms": statistics.median(typical) * 1e3 if typical else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("design", "scan", "attack"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mdlp" / "__init__.py").is_file():
        print(f"error: no mdlp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
