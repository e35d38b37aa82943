"""Outside-in span recorder over the mdlp modules, and the per-layer
metrics computed from its spans.

``Tracer.install`` replaces every public function of each layer module by a
wrapper that records (name, start, end, parent span, work). A function
imported into another module is wrapped there too, under the name of the
module that defines it, so ``instance.multiplicative_order`` records as
``arith.multiplicative_order``. Spans stay in memory until the run ends.
The program itself is not changed.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

LAYERS = ("arith", "congruence", "subgroup", "instance", "solvers", "indexcalc")


def _mitm_candidates(args, result):
    if result is not None:
        return result.work
    orders = args[0].orders
    half = (len(orders) + 1) // 2
    return math.prod(orders[:half]) + math.prod(orders[half:])


# Work read from a call's arguments and result, by span name.
WORK = {
    "subgroup.close": lambda args, result: result.order,
    # 1 per instance returned (a failed call records no work).
    "instance.generate": lambda args, result: 1,
    # A miss scans the whole box.
    "solvers.solve_exhaustive": lambda args, result: (
        result.work if result is not None else math.prod(args[0].orders)
    ),
    "solvers.solve_mitm": _mitm_candidates,
    "solvers.attack_peel": lambda args, result: result.work,
    # 1 when the trial value was smooth over the factor base.
    "indexcalc.try_smooth": lambda args, result: int(result[1] == 1),
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("subgroup.close.calls", "count", "lower"),
    ("subgroup.close.ms", "ms", "lower"),
    ("subgroup.close.elements", "count", "lower"),
    ("subgroup.independence_check.calls", "count", "lower"),
    ("subgroup.independence_check.ms", "ms", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.ms", "ms", "lower"),
    ("arith.multiplicative_order.calls", "count", "lower"),
    ("arith.multiplicative_order.ms", "ms", "lower"),
    ("arith.is_probable_prime.calls", "count", "lower"),
    ("arith.is_probable_prime.ms", "ms", "lower"),
    ("instance.generate.ms", "ms", "lower"),
    ("instance.make_instance.calls", "count", "lower"),
    ("instance.generate.accept_ratio", "ratio", "higher"),
    ("instance.from_json_dict.ms", "ms", "lower"),
    ("instance.hardness_report.ms", "ms", "lower"),
    ("solvers.solve_exhaustive.ms", "ms", "lower"),
    ("solvers.solve_exhaustive.tuples", "count", "lower"),
    ("solvers.solve_exhaustive.tuples_per_s", "1/s", "higher"),
    ("solvers.solve_mitm.ms", "ms", "lower"),
    ("solvers.solve_mitm.candidates", "count", "lower"),
    ("solvers.solve.ms", "ms", "lower"),
    ("solvers.attack_collapse.ms", "ms", "lower"),
    ("solvers.attack_peel.ms", "ms", "lower"),
    ("solvers.attack_peel.work", "count", "lower"),
    ("solvers.solve_dlp.calls", "count", "lower"),
    ("solvers.solve_dlp.ms", "ms", "lower"),
    ("congruence.solve_system.calls", "count", "lower"),
    ("congruence.solve_system.ms", "ms", "lower"),
    ("indexcalc.dlp_via_index_calculus.ms", "ms", "lower"),
    ("indexcalc.collect_relations.ms", "ms", "lower"),
    ("indexcalc.try_smooth.calls", "count", "lower"),
    ("indexcalc.relations_per_trial", "ratio", "higher"),
    ("indexcalc.solve_base_logs.ms", "ms", "lower"),
    ("indexcalc.shift.ms", "ms", "lower"),
)


class Tracer:
    def __init__(self):
        # One (name, start_ns, end_ns, parent index or -1, work) per call,
        # in order of start. Tuples of atoms drop out of the cyclic
        # collector's work, which lists of the same would add to.
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if work is not None:
                spans[index] = (name, start, end, parent, work(args, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far; the recorder starts again empty."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write(spans: list[tuple], path) -> None:
    """One line per span: name, start_ns, end_ns, parent, work."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("name,start_ns,end_ns,parent,work\n")
        for name, start, end, parent, work in spans:
            out.write(f"{name},{start},{end},{parent},{'' if work is None else work}\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Every metric of METRICS over the spans of one round.

    ``.ms`` is inclusive time, counting a span nested in another span of
    the same name once. Self time is a span minus the time of its direct
    children.
    """
    calls: dict[str, int] = defaultdict(int)
    busy_ns: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, w in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    made_in_generate = trials = smooth = shift_ns = 0
    for i, (name, start, end, parent, w) in enumerate(spans):
        calls[name] += 1
        if w is not None:
            work[name] += w
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            busy_ns[name] += end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "instance.make_instance" and parent_name == "instance.generate":
            made_in_generate += 1
        elif name == "indexcalc.try_smooth" and parent_name == "indexcalc.collect_relations":
            trials += 1
            smooth += w or 0
        elif name == "indexcalc.dlp_via_index_calculus":
            shift_ns += end - start - child_ns[i]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric, _, _ in METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "ms":
            out[metric] = busy_ns[base] / 1e6
        elif kind in ("elements", "tuples", "candidates", "work"):
            out[metric] = work[base]
    out["solvers.solve_exhaustive.tuples_per_s"] = ratio(
        work["solvers.solve_exhaustive"], busy_ns["solvers.solve_exhaustive"] / 1e9
    )
    out["instance.generate.accept_ratio"] = ratio(work["instance.generate"], made_in_generate)
    out["indexcalc.relations_per_trial"] = ratio(smooth, trials)
    out["indexcalc.shift.ms"] = shift_ns / 1e6
    return {metric: out[metric] for metric, _, _ in METRICS}
