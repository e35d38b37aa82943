"""Correctness checks made apart from the program under test.

Every check recomputes what it needs with ``pow``, ``math`` and sympy and
returns None when the result is right, or a one-line reason when it is
not. Nothing here imports mdlp: results are read through their public
attributes only, so a fault in the program cannot hide itself by also
breaking its own checker.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import sympy

VERDICT_RESISTS = "resists-hsp-necessary-condition"
VERDICT_COLLAPSE = "collapse-vulnerable"
VERDICT_PEEL = "peel-vulnerable"
VERDICT_BOTH = "both-vulnerable"


@lru_cache(maxsize=None)
def n_order(g: int, n: int) -> int:
    return int(sympy.n_order(g, n))


@lru_cache(maxsize=None)
def discrete_log(p: int, beta: int, alpha: int) -> int:
    return int(sympy.discrete_log(p, beta, alpha))


@lru_cache(maxsize=None)
def isprime(p: int) -> bool:
    return bool(sympy.isprime(p))


def product_of_powers(gens: Sequence[int], exps: Sequence[int], n: int) -> int:
    out = 1
    for g, k in zip(gens, exps):
        out = out * pow(g, k, n) % n
    return out


def verdict(gens, orders, witness, primes) -> tuple[bool, bool, str]:
    """(collapse resistant, peel resistant, verdict) from the definitions.

    Collapse resistance: some pair has gcd(r_j1, r_j2) not dividing
    k_j1 - k_j2. Peel resistance: for every omitted index and every prime
    of N, the product of the other generator powers is not 1 mod p.
    """
    t = len(gens)
    collapse = any(
        (witness[a] - witness[b]) % math.gcd(orders[a], orders[b]) != 0
        for a in range(t)
        for b in range(a + 1, t)
    )
    peel = all(
        product_of_powers(
            [g for l, g in enumerate(gens) if l != i],
            [k for l, k in enumerate(witness) if l != i],
            p,
        )
        != 1
        for i in range(t)
        for p in primes
    )
    if collapse and peel:
        name = VERDICT_RESISTS
    elif peel:
        name = VERDICT_COLLAPSE
    elif collapse:
        name = VERDICT_PEEL
    else:
        name = VERDICT_BOTH
    return collapse, peel, name


def check_instance(inst, bits: Optional[int] = None) -> Optional[str]:
    """Factors prime and multiplying back to N, orders equal to sympy's,
    beta equal to the witness product."""
    n = inst.n
    factors = list(inst.modulus.factorization.factors)
    if math.prod(p**a for p, a in factors) != n:
        return f"factors {factors} do not multiply back to {n}"
    for p, _ in factors:
        if not isprime(p):
            return f"listed factor {p} of {n} is not prime"
    if bits is not None and n.bit_length() != bits:
        return f"N = {n} has {n.bit_length()} bits, asked for {bits}"
    for g, r in zip(inst.generators, inst.orders):
        if n_order(g, n) != r:
            return f"order of {g} mod {n} is {n_order(g, n)}, program says {r}"
    if inst.witness is not None:
        if any(not 0 <= k < r for k, r in zip(inst.witness, inst.orders)):
            return f"witness {inst.witness} out of range for orders {inst.orders}"
        if product_of_powers(inst.generators, inst.witness, n) != inst.beta:
            return "beta is not the product of the witness powers"
    return None


def check_design(result, cell: dict) -> Optional[str]:
    """generate -> dumps -> loads -> hardness_report on one grid cell."""
    inst, reloaded, report = result
    problem = check_instance(inst, cell["bits"])
    if problem:
        return problem
    if inst.t != cell["t"]:
        return f"{inst.t} generators, asked for {cell['t']}"
    if math.prod(inst.orders) > cell["max_order_product"]:
        return f"order product {math.prod(inst.orders)} over {cell['max_order_product']}"
    # independence_verified is not part of the document; the loader sets it
    # from its own check_independence flag.
    for field in ("modulus", "generators", "orders", "beta", "witness", "provenance"):
        if getattr(reloaded, field) != getattr(inst, field):
            return f"loads(dumps(x)) != x in {field}"
    collapse, peel, name = verdict(
        inst.generators, inst.orders, inst.witness, inst.modulus.factorization.primes
    )
    if report.verdict != name:
        return f"verdict {report.verdict!r}, the definitions give {name!r}"
    for key, resistant in (("require_collapse_resistant", collapse), ("require_peel_resistant", peel)):
        if cell.get(key, resistant) != resistant:
            return f"{key}={cell[key]}, the instance has {resistant}"
    return None


def check_rejected(result) -> Optional[str]:
    """A tampered document must be refused by the loader."""
    accepted, detail = result
    return f"tampered document accepted ({detail})" if accepted else None


def check_recovered(sol, case: dict, work: Optional[int] = None) -> Optional[str]:
    """A solver result against the planted witness, or against a planted miss.

    ``case`` holds n, generators, orders, beta and witness (None for a
    miss). For a miss the right answer is None, and
    pow(beta, lcm(r_i), N) != 1 proves beta is outside the span.
    """
    n, beta = case["n"], case["beta"]
    if case["witness"] is None:
        if pow(beta, math.lcm(*case["orders"]), n) == 1:
            return "planted miss is inside the span"
        if sol is not None:
            return f"returned {sol.exponents} for a beta outside the span"
    else:
        if sol is None:
            return "returned None for a planted hit"
        exps = tuple(sol.exponents)
        if product_of_powers(case["generators"], exps, n) != beta:
            return f"{exps} does not reproduce beta"
        if exps != tuple(case["witness"]):
            return f"{exps} differs from the planted witness {tuple(case['witness'])}"
    if work is not None and sol is not None and sol.work != work:
        return f"work {sol.work}, expected {work}"
    return None


def check_log(x, case: dict) -> Optional[str]:
    """An index-calculus log: pow(alpha, x, p) == beta, equal to sympy's."""
    p, alpha, beta = case["p"], case["alpha"], case["beta"]
    if not isinstance(x, int) or pow(alpha, x, p) != beta:
        return f"log {x!r} does not satisfy alpha**x == beta mod {p}"
    ref = discrete_log(p, beta, alpha)
    if (x - ref) % n_order(alpha, p) != 0:
        return f"log {x} differs from sympy's {ref}"
    return None
