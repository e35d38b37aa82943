"""The three workloads of the mdlp benchmark: design, scan and attack.

Each workload has three parts:

* ``inputs(seed)`` makes plain numbers from the workload seed with the
  benchmark's own code (``random``, ``pow``, sympy). It is not timed.
* ``setup(m, inputs)`` builds the program's objects from those numbers
  with a freshly imported ``mdlp`` package ``m``. It is timed as
  ``setup_s``.
* The list of ``Op`` that set-up returns is one round. Every round runs the
  same operations in the same order.

The amount of work in a round is fixed by the constants below, never by
the seed: box sizes, hit positions, the generate grid with its seeds, and
the index-calculus inputs. ``generate``'s rejection sampling and the
random relation search of index calculus cost a different amount for
every seed they are given, so the benchmark pins the seeds it hands
them. The workload seed moves only numbers whose values leave the work
counts unchanged: the primes and generators of CRT-built instances and the
edits made to tampered documents. README.md says how far their values
still move the time.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import sympy

import checks


@dataclass(frozen=True)
class KnownFault:
    """A program fault that makes an operation fail today, and the one way
    it fails: ``fails_as`` is a pattern the reported problem must match.
    A failure that does not match is a wrong result like any other."""

    text: str
    fails_as: str

    def matches(self, problem: str) -> bool:
        return re.search(self.fails_as, problem) is not None


@dataclass
class Op:
    """One timed operation and the check its result must pass.

    A failure that matches ``known_fault`` is counted in ``failed`` without
    making the run incorrect.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_fault: Optional[KnownFault] = None


def load_mdlp():
    """Import mdlp afresh, so that set-up time includes the package import."""
    for name in [k for k in sys.modules if k == "mdlp" or k.startswith("mdlp.")]:
        del sys.modules[name]
    return importlib.import_module("mdlp")


# ---------------------------------------------------------------------------
# CRT-built instances: generator i lives alone in prime component i of N.


# Largest prime allowed in a cofactor (p - 1)/r. The program's trial
# division of lambda(N) runs until f * f exceeds what is left, so its length
# is set by the largest primes of lambda(N). With cofactor primes below this
# bound, those are the fixed orders r_i, whatever primes the seed picks.
SMOOTH_BOUND = 1 << 8


def _smooth(m: int) -> bool:
    return m == 1 or max(sympy.factorint(m)) < SMOOTH_BOUND


def prime_with_order(rng: random.Random, r: int, bits: int, used: set) -> int:
    """A new prime p of ``bits`` bits with r | p - 1 and every prime of
    (p - 1)/r below SMOOTH_BOUND."""
    lo, hi = 1 << (bits - 1), 1 << bits
    while True:
        m = rng.randrange((lo - 1) // r + 1, (hi - 1) // r + 1)
        p = r * m + 1
        if p % 2 and p not in used and sympy.isprime(p) and _smooth(m):
            used.add(p)
            return p


def element_of_order(rng: random.Random, r: int, p: int) -> int:
    primes = sympy.factorint(r)
    while True:
        c = pow(rng.randrange(2, p - 1), (p - 1) // r, p)
        if all(pow(c, r // q, p) != 1 for q in primes):
            return c


def embed(c: int, p: int, n: int) -> int:
    """The element of Z_n that is c mod p and 1 mod n / p."""
    rest = n // p
    idem = rest * pow(rest, -1, p) % n
    return (1 + (c - 1) * idem) % n


def decode(index: int, radices) -> list[int]:
    """Digits of ``index`` in the program's canonical (lexicographic) scan order."""
    digits = []
    for r in reversed(radices):
        index, d = divmod(index, r)
        digits.append(d)
    return digits[::-1]


def crt_case(rng: random.Random, orders, prime_bits, fraction: Optional[float]) -> dict:
    """Generator i of order r_i alone in prime p_i, plus a spare prime p_0
    at which every generator is 1.

    Box size and independence follow from the construction, whatever the
    seed. ``fraction`` plants the witness at that share of the canonical
    scan order. With None, beta is that product times an element that is
    1 at every p_i and has order not dividing lcm(r_i) at p_0, so beta lies
    outside the span.
    """
    used: set = set()
    primes = [prime_with_order(rng, r, b, used) for r, b in zip(orders, prime_bits)]
    spare = prime_with_order(rng, 2, prime_bits[-1], used)
    n = spare * math.prod(primes)
    gens = [embed(element_of_order(rng, r, p), p, n) for r, p in zip(orders, primes)]
    total = math.prod(orders)
    index = min(total - 1, int(total * (0.5 if fraction is None else fraction)))
    witness = decode(index, orders)
    beta = checks.product_of_powers(gens, witness, n)
    if fraction is None:
        span_exponent = math.lcm(*orders)
        while True:
            w = rng.randrange(2, spare - 1)
            if pow(w, span_exponent, spare) != 1:
                break
        beta = beta * embed(w, spare, n) % n
        witness = None
    factors = sorted(primes + [spare])
    return {
        "n": n,
        "factors": [(p, 1) for p in factors],
        "generators": gens,
        "orders": tuple(orders),
        "beta": beta,
        "witness": None if witness is None else tuple(witness),
        "index": index,
    }


def build_case(m, case: dict):
    """The program's Instance for a CRT-built case.

    Independence holds by construction, so the closure check is skipped:
    its cost belongs to the design workload, and its closures cannot hold
    the larger boxes here.
    """
    return m.instance.make_instance(
        m.arith.Factorization(tuple(case["factors"])),
        case["generators"],
        witness=case["witness"],
        beta=case["beta"],
        check_independence=False,
    )


def _solver_op(name, call, inst, case, work=None) -> Op:
    def check(sol):
        return checks.check_instance(inst) or checks.check_recovered(sol, case, work)

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# design: generate -> dumps -> loads -> hardness_report over a fixed grid.

DESIGN_BITS = (24, 32, 40)
DESIGN_TS = (2, 3, 4)
DESIGN_CONSTRAINTS = (
    {},
    {"require_collapse_resistant": True},
    {"require_collapse_resistant": True, "require_peel_resistant": True},
)
DESIGN_ORDER_BOUND = {2: 1 << 20, 3: 1 << 18, 4: 1 << 16}
# The grid yields no collapse-vulnerable verdict (peel-resistant only), so
# one cell asks for it.
DESIGN_EXTRA = (
    {"bits": 32, "t": 2, "require_collapse_resistant": False, "require_peel_resistant": True},
)
# The instance whose document is tampered with.
TAMPER_BASE = {"seed": 0, "bits": 24, "t": 2}
# Generators 13 and 13 over N = 35: each is a power of the other.
DEPENDENT_DOC = {
    "version": 1,
    "n": "35",
    "factors": [["5", 1], ["7", 1]],
    "generators": ["13", "13"],
    "orders": ["4", "4"],
    "beta": "29",
    "witness": ["1", "1"],
}
LOADER_FAULT = KnownFault(
    "from_json_dict defaults to check_independence=False, so dependent "
    "generators (13, 13) over N = 35 load",
    r"^tampered document accepted \(independence_verified=False\)$",
)


def design_grid() -> list[dict]:
    """bits x t x constraint plus DESIGN_EXTRA, generate seed = cell index."""
    shapes = [
        {"bits": bits, "t": t, **constraint}
        for bits in DESIGN_BITS
        for t in DESIGN_TS
        for constraint in DESIGN_CONSTRAINTS
    ]
    return [
        {"seed": i, "max_order_product": DESIGN_ORDER_BOUND[shape["t"]], **shape}
        for i, shape in enumerate(shapes + list(DESIGN_EXTRA))
    ]


def design_inputs(seed: int, grid: Optional[list[dict]] = None) -> dict:
    rng = random.Random(f"design:{seed}")
    return {
        "grid": design_grid() if grid is None else grid,
        "beta_shift": rng.randrange(1, 1 << 16),
        "order_index": rng.randrange(TAMPER_BASE["t"]),
        "order_shift": rng.randrange(1, 1 << 8),
    }


def _design_op(m, cell: dict) -> Op:
    def run():
        inst = m.instance.generate(**cell)
        reloaded = m.instance.loads(m.instance.dumps(inst))
        return inst, reloaded, m.instance.hardness_report(reloaded)

    wanted = [
        ("" if cell[k] else "not-") + k.split("_")[1]
        for k in ("require_collapse_resistant", "require_peel_resistant")
        if k in cell
    ]
    name = "design-{bits}b-t{t}-{c}".format(c="-".join(wanted) or "free", **cell)
    return Op(name, run, lambda result: checks.check_design(result, cell))


def _tamper_op(m, name: str, doc: dict, known_fault: Optional[KnownFault] = None) -> Op:
    text = json.dumps(doc)

    def run():
        try:
            inst = m.instance.loads(text)
        except ValueError as exc:
            return False, str(exc)
        return True, f"independence_verified={inst.independence_verified}"

    return Op(name, run, checks.check_rejected, known_fault)


def design_setup(m, inputs: dict) -> list[Op]:
    base = m.instance.to_json_dict(m.instance.generate(**TAMPER_BASE))
    bad_beta = dict(base, beta=str((int(base["beta"]) + inputs["beta_shift"]) % int(base["n"])))
    orders = list(base["orders"])
    i = inputs["order_index"]
    orders[i] = str(int(orders[i]) + inputs["order_shift"])
    bad_order = dict(base, orders=orders)
    ops = [_design_op(m, cell) for cell in inputs["grid"]]
    ops.append(_tamper_op(m, "tamper-beta", bad_beta))
    ops.append(_tamper_op(m, "tamper-order", bad_order))
    ops.append(_tamper_op(m, "tamper-dependent", DEPENDENT_DOC, LOADER_FAULT))
    return ops


# ---------------------------------------------------------------------------
# scan: brute force over fixed boxes.

SCAN_PRIME_BITS = 28
# (orders, hit position as a share of the box; None plants a miss)
EXHAUSTIVE_CASES = (
    ((317, 331), 0.5),
    ((97, 101, 103), 0.25),
    ((31, 37, 41, 43), 0.75),
    ((61, 67, 73), None),
)
MITM_CASES = (
    ((1009, 1013), 0.5),
    ((1009, 1013), None),
    ((40009, 40031), 0.25),
    ((400009, 400031), 0.75),
)


def scan_inputs(seed: int, exhaustive=EXHAUSTIVE_CASES, mitm=MITM_CASES) -> list[dict]:
    rng = random.Random(f"scan:{seed}")
    cases = []
    for kind, table in (("mitm", mitm), ("exhaustive", exhaustive)):
        for orders, fraction in table:
            case = crt_case(rng, orders, (SCAN_PRIME_BITS,) * (len(orders) + 1), fraction)
            if kind == "exhaustive":
                work = case["index"] + 1
            else:
                half = (len(orders) + 1) // 2
                work = math.prod(orders[:half]) + math.prod(orders[half:])
            hit = "miss" if fraction is None else f"hit{fraction}"
            box = "x".join(map(str, orders))
            cases.append(dict(case, kind=kind, work=work, name=f"{kind}-{box}-{hit}"))
    return cases


def scan_setup(m, cases: list[dict]) -> list[Op]:
    ops = []
    for case in cases:
        inst = build_case(m, case)
        # Looked up at call time, so that a traced run sees the call.
        solver = "solve_" + case["kind"]
        ops.append(
            _solver_op(
                case["name"], lambda f=solver, i=inst: getattr(m.solvers, f)(i), inst, case, case["work"]
            )
        )
    return ops


# ---------------------------------------------------------------------------
# attack: the reductions that beat brute force.

# solve(strategy="auto") on instances that generate makes in set-up.
AUTO_GENERATED = (
    ("auto-collapse", {"seed": 1, "bits": 40, "t": 3, "require_collapse_resistant": False,
                       "max_order_product": 1 << 18}),
    ("auto-resistant", {"seed": 2, "bits": 32, "t": 2, "require_collapse_resistant": True,
                        "require_peel_resistant": True, "max_order_product": 1 << 16}),
)
# Even orders and a witness with k_1 odd, k_2 even: collapse cannot apply,
# peel recovers every exponent through its own prime.
AUTO_PEEL_ORDERS = (2 * 1009, 2 * 1013, 2 * 1019)
# attack_collapse: one prime order of about 2**bits, one small prime order.
# The 28-bit case is the median operation of a round; its cost sits about
# 2x away from both neighbours, so noise cannot swap which operation the
# median reports.
COLLAPSE_BITS = (20, 28, 30)
COLLAPSE_SMALL_ORDER = 4093
# (p, alpha, smoothness bound); beta = alpha**(p // 3), index-calculus seed 0.
INDEX_CALCULUS_CASES = (
    (1048583, 5, 50),
    (16777259, 2, 100),
    (67108879, 3, 50),
    (268435459, 2, 100),
    (1073741827, 2, 100),
)
INDEX_CALCULUS_FAULT_CASE = {"p": 1000003, "alpha": 2, "beta": 12345, "bound": 200}
INDEX_CALCULUS_FAULT = KnownFault(
    "relation collection stops at |S| + 10 rows, so factor-base primes "
    "that appear in no relation leave the base logs rank-deficient",
    r"^raised BudgetExceeded\(.*rank-deficient",
)


def attack_inputs(seed: int) -> dict:
    rng = random.Random(f"attack:{seed}")
    peel = crt_case(rng, AUTO_PEEL_ORDERS, (24, 24, 24, 24), 0.5)
    k = list(peel["witness"])
    k[0] |= 1
    k[1] &= ~1
    peel["witness"] = tuple(k)
    peel["beta"] = checks.product_of_powers(peel["generators"], k, peel["n"])
    collapse = []
    for bits in COLLAPSE_BITS:
        q = sympy.nextprime((1 << bits) + rng.randrange(1 << (bits - 10)))
        case = crt_case(rng, (q, COLLAPSE_SMALL_ORDER), (bits + 12, 24, 24), 0.5)
        # Plant k at fixed shares of each order, so baby-step giant-step
        # walks the same share of its giant steps for every seed.
        case["witness"] = (q * 3 // 5, COLLAPSE_SMALL_ORDER * 3 // 10)
        case["beta"] = checks.product_of_powers(case["generators"], case["witness"], case["n"])
        collapse.append(dict(case, name=f"collapse-q{bits}b"))
    index_calculus = [
        {"p": p, "alpha": a, "beta": pow(a, p // 3, p), "bound": b}
        for p, a, b in INDEX_CALCULUS_CASES
    ]
    return {"peel": peel, "collapse": collapse, "index_calculus": index_calculus}


def _generated_case(inst) -> dict:
    return {
        "n": inst.n,
        "generators": inst.generators,
        "orders": inst.orders,
        "beta": inst.beta,
        "witness": inst.witness,
    }


def _index_calculus_op(m, case: dict, known_fault: Optional[KnownFault] = None) -> Op:
    def run():
        return m.indexcalc.dlp_via_index_calculus(
            case["p"], case["alpha"], case["beta"], bound=case["bound"]
        )

    name = "indexcalc-p{}-B{}".format(case["p"].bit_length(), case["bound"])
    return Op(name, run, lambda x: checks.check_log(x, case), known_fault)


def attack_setup(m, inputs: dict) -> list[Op]:
    ops = []
    for name, params in AUTO_GENERATED:
        inst = m.instance.generate(**params)
        ops.append(
            _solver_op(name, lambda i=inst: m.solvers.solve(i, "auto"), inst, _generated_case(inst))
        )
    peel = build_case(m, inputs["peel"])
    ops.append(
        _solver_op("auto-peel", lambda: m.solvers.solve(peel, "auto"), peel, inputs["peel"])
    )
    for case in inputs["collapse"]:
        inst = build_case(m, case)
        ops.append(
            _solver_op(case["name"], lambda i=inst: m.solvers.attack_collapse(i), inst, case)
        )
    ops += [_index_calculus_op(m, case) for case in inputs["index_calculus"]]
    ops.append(_index_calculus_op(m, INDEX_CALCULUS_FAULT_CASE, INDEX_CALCULUS_FAULT))
    return ops


WORKLOADS = {
    "design": (design_inputs, design_setup),
    "scan": (scan_inputs, scan_setup),
    "attack": (attack_inputs, attack_setup),
}
