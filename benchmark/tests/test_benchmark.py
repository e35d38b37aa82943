"""Tests of the benchmark itself: every check rejects a wrong result, and a
tiny-size run of every workload finishes green.

    python3 -m pytest benchmark/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_GRID = [
    {"seed": 0, "bits": 16, "t": 2, "max_order_product": 1 << 10},
    {"seed": 1, "bits": 16, "t": 2, "max_order_product": 1 << 12,
     "require_collapse_resistant": True},
]
TINY_EXHAUSTIVE = (((7, 11), 0.5), ((5, 7, 11), None))
TINY_MITM = (((13, 17), 0.25), ((13, 17), None))


def tiny_inputs(workload, seed=3):
    if workload == "design":
        return workloads.design_inputs(seed, grid=TINY_GRID)
    if workload == "scan":
        return workloads.scan_inputs(seed, exhaustive=TINY_EXHAUSTIVE, mitm=TINY_MITM)
    return workloads.attack_inputs(seed)


def solution(exponents, work=None):
    return SimpleNamespace(exponents=tuple(exponents), work=work)


@pytest.fixture(scope="module")
def mdlp():
    return workloads.load_mdlp()


@pytest.fixture(scope="module")
def scan_cases():
    return tiny_inputs("scan")


def test_crt_case_plants_what_it_says(scan_cases):
    for case in scan_cases:
        n = case["n"]
        assert math.prod(p for p, _ in case["factors"]) == n
        for g, r in zip(case["generators"], case["orders"]):
            assert checks.n_order(g, n) == r
        if case["witness"] is None:
            assert pow(case["beta"], math.lcm(*case["orders"]), n) != 1
        else:
            assert checks.product_of_powers(case["generators"], case["witness"], n) == case["beta"]
            assert list(case["witness"]) == workloads.decode(case["index"], case["orders"])


@pytest.mark.parametrize("workload", ["design", "scan", "attack"])
def test_operation_names_are_unique(workload, mdlp):
    # Latencies and failures are kept by operation name.
    make_inputs, setup = workloads.WORKLOADS[workload]
    ops = setup(mdlp, make_inputs(1))
    assert len({op.name for op in ops}) == len(ops)


def test_inputs_depend_only_on_seed():
    assert workloads.scan_inputs(5) == workloads.scan_inputs(5)
    assert workloads.attack_inputs(5) == workloads.attack_inputs(5)
    assert workloads.scan_inputs(5)[0]["n"] != workloads.scan_inputs(6)[0]["n"]


def test_recovered_accepts_the_planted_witness(scan_cases):
    hit = next(c for c in scan_cases if c["witness"] is not None)
    assert checks.check_recovered(solution(hit["witness"], hit["work"]), hit, hit["work"]) is None


def test_recovered_rejects_a_wrong_tuple(scan_cases):
    hit = next(c for c in scan_cases if c["witness"] is not None)
    wrong = list(hit["witness"])
    wrong[0] = (wrong[0] + 1) % hit["orders"][0]
    assert checks.check_recovered(solution(wrong), hit) is not None


def test_recovered_rejects_none_for_a_planted_hit(scan_cases):
    hit = next(c for c in scan_cases if c["witness"] is not None)
    assert checks.check_recovered(None, hit) is not None


def test_recovered_rejects_wrong_work(scan_cases):
    hit = next(c for c in scan_cases if c["witness"] is not None)
    sol = solution(hit["witness"], hit["work"] + 1)
    assert checks.check_recovered(sol, hit, hit["work"]) is not None


def test_recovered_rejects_an_answer_for_a_miss(scan_cases):
    miss = next(c for c in scan_cases if c["witness"] is None)
    assert checks.check_recovered(None, miss) is None
    assert checks.check_recovered(solution([0] * len(miss["orders"])), miss) is not None


def test_log_check_rejects_a_wrong_log():
    case = {"p": 1048583, "alpha": 5, "beta": pow(5, 1000, 1048583), "bound": 50}
    assert checks.check_log(1000, case) is None
    assert checks.check_log(1001, case) is not None
    assert checks.check_log(None, case) is not None


def test_design_check_rejects_a_wrong_verdict(mdlp):
    cell = TINY_GRID[0]
    inst = mdlp.instance.generate(**cell)
    report = mdlp.instance.hardness_report(inst)
    assert checks.check_design((inst, inst, report), cell) is None
    names = (checks.VERDICT_RESISTS, checks.VERDICT_COLLAPSE, checks.VERDICT_PEEL)
    wrong = next(v for v in names if v != report.verdict)
    assert checks.check_design((inst, inst, SimpleNamespace(verdict=wrong)), cell) is not None


def test_design_check_rejects_a_broken_round_trip(mdlp):
    cell = TINY_GRID[0]
    inst = mdlp.instance.generate(**cell)
    other = mdlp.instance.generate(**TINY_GRID[1])
    report = mdlp.instance.hardness_report(inst)
    assert checks.check_design((inst, other, report), cell) is not None


def test_design_check_rejects_an_unmet_constraint(mdlp):
    cell = dict(TINY_GRID[0], require_collapse_resistant=False)
    inst = mdlp.instance.generate(**cell)
    report = mdlp.instance.hardness_report(inst)
    assert checks.check_design((inst, inst, report), dict(cell, require_collapse_resistant=True))


def test_rejected_check_fails_an_accepted_tampered_document(mdlp):
    ops = workloads.design_setup(mdlp, tiny_inputs("design"))
    tampered = [op for op in ops if op.name.startswith("tamper-")]
    assert {op.name for op in tampered} == {"tamper-beta", "tamper-order", "tamper-dependent"}
    for op in tampered:
        verdict = op.check(op.run())
        assert (verdict is not None) == bool(op.known_fault), op.name
    assert checks.check_rejected((True, "loaded")) is not None


def test_known_faults_match_only_the_failure_they_name():
    loader, index_calculus = workloads.LOADER_FAULT, workloads.INDEX_CALCULUS_FAULT
    assert loader.matches("tampered document accepted (independence_verified=False)")
    assert not loader.matches("tampered document accepted (independence_verified=True)")
    assert not loader.matches("raised TypeError('bad document')")
    assert index_calculus.matches(
        "raised BudgetExceeded('base logs stayed rank-deficient after retries')"
    )
    assert not index_calculus.matches("raised BudgetExceeded('relation budget exhausted')")
    assert not index_calculus.matches("raised TypeError('rank-deficient')")
    assert not index_calculus.matches("log 5 does not satisfy alpha**x == beta mod 1000003")


def test_a_known_fault_failing_another_way_is_wrong(monkeypatch):
    def setup(m, inputs):
        def run():
            raise TypeError("not the named fault")

        # The first operation is the warm-up, which must not fail.
        return [
            workloads.Op("refused", lambda: (False, "refused"), checks.check_rejected),
            workloads.Op("loader", run, checks.check_rejected, workloads.LOADER_FAULT),
        ]

    monkeypatch.setitem(workloads.WORKLOADS, "design", (None, setup))
    result = run.run_workload("design", 3, 0.0, False, inputs={})
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is False


@pytest.mark.parametrize("workload", ["design", "scan", "attack"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_green(workload, trace):
    inputs = tiny_inputs(workload)
    result = run.run_workload(workload, 3, 0.0, trace, inputs)
    ops = workloads.WORKLOADS[workload][1](workloads.load_mdlp(), inputs)
    assert result["correct"] is True
    # --seconds 0 runs exactly one round; only the named faults fail.
    assert result["attempted"] == len(ops)
    assert result["failed"] == sum(bool(op.known_fault) for op in ops)
    names = [m[0] for m in tracer.METRICS] if trace else list(run.END_TO_END_UNITS)
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly_and_match_the_plan():
    inputs = tiny_inputs("scan")
    first = run.run_workload("scan", 3, 0.0, True, inputs)["metrics"]
    second = run.run_workload("scan", 3, 0.0, True, inputs)["metrics"]
    for name in ("solvers.solve_exhaustive.tuples", "solvers.solve_mitm.candidates"):
        assert first[name]["value"] == second[name]["value"]
    exhaustive = sum(
        c["work"] if c["witness"] is not None else math.prod(c["orders"])
        for c in inputs if c["kind"] == "exhaustive"
    )
    mitm = sum(sum(c["orders"]) for c in inputs if c["kind"] == "mitm")
    assert first["solvers.solve_exhaustive.tuples"]["value"] == exhaustive
    assert first["solvers.solve_mitm.candidates"]["value"] == mitm


def test_tracer_names_imported_functions_by_their_home_module(mdlp):
    spans = tracer.Tracer()
    spans.install(mdlp)
    try:
        assert mdlp.instance.multiplicative_order.__wrapped__ is not None
        mdlp.instance.make_instance(35, [13, 19], witness=[3, 1])
    finally:
        spans.uninstall()
    names = {s[0] for s in spans.take()}
    assert {"instance.make_instance", "arith.multiplicative_order", "arith.factorize",
            "subgroup.independence_check", "subgroup.close"} <= names
    assert not hasattr(mdlp.instance.make_instance, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmark"
    shutil.copytree(BENCH_DIR, copy, ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
