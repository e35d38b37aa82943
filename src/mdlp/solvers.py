"""Exponent-recovery methods.

Five routes to the witness tuple of an instance:

* exhaustive scan of the exponent box in lexicographic order;
* meet-in-the-middle over the same box;
* arith's Pohlig-Hellman routine inside H = <g_1, ..., g_t>, on the orders
  that order_factors returns factored: the "auto" strategy, which tries
  the two attacks below when it is over budget, and with one generator
  the single DLP, a class mod the base's order (the classical stand-in
  for a quantum period-finder throughout this package);
* the collapse attack: solve beta = (g_1 ... g_t)**k as one DLP and split
  k mod each order, which works exactly when the witness residues are
  pairwise compatible;
* the peel attack: where every other generator is 1 mod a prime p of N,
  beta = g_i**k_i (mod p) leaks k_i modulo the local order, and the
  leaked congruences shrink the remaining search box.

Every returned Solution is verified against the instance before it leaves
this module, by a check that also runs under ``python -O``. Work counters
tally group operations (modular multiplications and powerings). The
exhaustive and peel scans count the tuples a tuple-by-tuple lexicographic
scan would examine, derived exactly from the hit position; meet-in-the-middle
counts the sizes of both halves, not the tuples scanned.

The exhaustive, meet-in-the-middle and peel scans build the box kernel of
``arith`` (``_box_walker``) once per call and walk it once: its table holds
the products over the trailing axes (the last one for exhaustive and peel,
the second half for meet-in-the-middle), and its walk from beta over the
leading axes stops at the first hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import Factorization, Modulus, _box_walker, _pohlig_hellman, as_modulus, order_factors
from .congruence import Congruence, solve_system, split_exponent
from .errors import BudgetExceeded, IndependenceViolation, UnsolvableSystem
from .instance import Instance, verify
from .subgroup import _independence

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_MITM = "mitm"
METHOD_COLLAPSE = "collapse"
METHOD_PEEL = "peel+recurse"
METHOD_SINGLE_DLP = "single-dlp"

DEFAULT_SEARCH_BUDGET = 5_000_000
DEFAULT_MEMORY_CAP = 1 << 22


@dataclass(frozen=True)
class Solution:
    exponents: tuple[int, ...]
    method: str
    work: int


# ---------------------------------------------------------------------------
# Single DLP: baby-step giant-step under Pohlig-Hellman


def solve_dlp(
    base: int, target: int, modulus, ops: Optional[list[int]] = None
) -> Optional[Congruence]:
    """log of target to base mod ``modulus`` (a Modulus, or an int to
    factor) as its class mod r = ord(base), or None when target is outside
    <base>.

    r comes factored from order_factors, and arith's Pohlig-Hellman
    routine takes the log on it. The log is re-checked by powering.
    ``ops`` (a one-cell list) accumulates the group-operation count when
    supplied.
    """
    mod = as_modulus(modulus)
    n = mod.n
    target %= n
    factors = order_factors(base, mod)
    [log] = _pohlig_hellman([base], [factors], [target], n, [0] if ops is None else ops)
    if log is None or pow(base, log[0], n) != target:
        return None
    return Congruence(log[0], math.prod(q**e for q, e in factors))


# ---------------------------------------------------------------------------
# Exponent-box scans
#
# A box is one exponent range per generator. Its tuples are numbered in
# lexicographic order (last exponent fastest); that position is what every
# scan's work count and lexicographic tie-break are defined from.


def _checked(inst: Instance, exponents: Sequence[int], method: str, work: int) -> Solution:
    """The Solution, once it has been re-evaluated against the instance.

    An explicit check rather than an assert, so it also runs under
    ``python -O``.
    """
    sol = Solution(tuple(exponents), method, work)
    if not verify(inst, sol.exponents):
        raise AssertionError(f"{method} returned {sol.exponents}, which does not give beta")
    return sol


def _decode(pos: int, box: Sequence[range]) -> tuple[int, ...]:
    """The exponent tuple at lexicographic position ``pos`` of the box."""
    out = [0] * len(box)
    for i in range(len(box) - 1, -1, -1):
        pos, d = divmod(pos, len(box[i]))
        out[i] = box[i][d]
    return tuple(out)


def solve_exhaustive(inst: Instance, *, budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[Solution]:
    """Lexicographically smallest exponent tuple mapping to beta, or None.

    Walks the first t-1 exponents and looks the last one up in a table of
    its generator's powers. ``work`` is the number of box tuples up to and
    including the hit in lexicographic order, i.e. what a tuple-by-tuple
    scan would examine.
    """
    total = math.prod(inst.orders)
    if total > budget:
        raise BudgetExceeded(f"exhaustive box of {total} tuples exceeds budget {budget}")
    box = [range(r) for r in inst.orders]
    hit = _box_walker(inst.generators, box, inst.n, inst.t - 1)(inst.beta)
    if hit is None:
        return None
    return _checked(inst, _decode(hit, box), METHOD_EXHAUSTIVE, hit + 1)


def solve_mitm(inst: Instance, *, budget: int = DEFAULT_SEARCH_BUDGET) -> Optional[Solution]:
    """Meet-in-the-middle over the exponent box; same answer as exhaustive.

    Tabulates the products over the last t - ceil(t/2) generators, then
    walks the first ceil(t/2), looking beta * (first half)**-1 up in the
    table. DEFAULT_MEMORY_CAP bounds the table and ``work`` is the size
    of both halves.
    """
    h = (inst.t + 1) // 2
    left_total = math.prod(inst.orders[:h])
    right_total = math.prod(inst.orders[h:])
    if right_total > DEFAULT_MEMORY_CAP:
        raise BudgetExceeded(
            f"mitm table of {right_total} entries exceeds cap {DEFAULT_MEMORY_CAP}"
        )
    if left_total + right_total > budget:
        raise BudgetExceeded(
            f"mitm scan of {left_total + right_total} candidates exceeds budget {budget}"
        )
    box = [range(r) for r in inst.orders]
    hit = _box_walker(inst.generators, box, inst.n, h)(inst.beta)
    if hit is None:
        return None
    return _checked(inst, _decode(hit, box), METHOD_MITM, left_total + right_total)


# ---------------------------------------------------------------------------
# Reduction attacks


def attack_collapse(inst: Instance) -> Optional[Solution]:
    """Try beta = (g_1 g_2 ... g_t)**k as a single DLP and split k.

    Applicable exactly when beta lies in the cyclic group generated by the
    product of all generators; then k mod r_i recovers each exponent.
    Returns None (not applicable) otherwise. With a single generator there
    is nothing to split and the method reports itself as a plain DLP.
    """
    n = inst.n
    g_all = 1
    for g in inst.generators:
        g_all = g_all * g % n
    ops = [0]
    k = solve_dlp(g_all, inst.beta, inst.modulus, ops)
    if k is None:
        return None
    method = METHOD_SINGLE_DLP if inst.t == 1 else METHOD_COLLAPSE
    return _checked(inst, split_exponent(k.residue, inst.orders), method, ops[0])


@dataclass(frozen=True)
class PeelResult:
    """Outcome of the peel attack.

    status is one of:
      * "solved": full tuple recovered (and verified);
      * "not-applicable": no prime of N has every other generator = 1;
      * "not-found": the reduced box was searched and beta never appeared.
    congruences maps generator index -> recovered residue class of k_i.
    """

    status: str
    congruences: dict[int, Congruence]
    solution: Optional[Solution]
    work: int


def attack_peel(inst: Instance, *, budget: int = DEFAULT_SEARCH_BUDGET) -> PeelResult:
    """Leak exponent residues through primes where the other generators
    vanish, then enumerate what remains of the exponent box.

    At a prime p with g_l = 1 (mod p) for every l != i, the target
    satisfies beta = g_i**k_i (mod p), so a local DLP pins k_i modulo the
    order of g_i mod p. One pass over N's primes finds them: p serves when
    exactly one generator is not 1 mod p. Residues from several primes
    merge by CRT. The reduction is attacker-checkable: it never peeks at
    the witness. Raises BudgetExceeded when the reduced box, each pinned
    k_i restricted to its residue class, holds more than ``budget`` tuples.
    """
    ops = [0]
    entries: list[list[Congruence]] = [[] for _ in inst.generators]
    for p in inst.modulus.factorization.primes:
        live = [i for i, g in enumerate(inst.generators) if g % p != 1]
        if len(live) == 1:
            g = inst.generators[live[0]]
            x = solve_dlp(g, inst.beta, Modulus(Factorization(((p, 1),))), ops)
            if x is not None:
                entries[live[0]].append(x)
    congruences: dict[int, Congruence] = {}
    for i, pinned in enumerate(entries):
        if pinned:
            try:
                congruences[i] = solve_system(pinned)
            except UnsolvableSystem:
                pass  # conflicting residues pin nothing

    if not congruences:
        return PeelResult("not-applicable", {}, None, ops[0])

    box = [
        range(congruences[i].residue, r, congruences[i].modulus) if i in congruences else range(r)
        for i, r in enumerate(inst.orders)
    ]
    remaining = math.prod(len(ks) for ks in box)
    if remaining > budget:
        raise BudgetExceeded(f"peel box of {remaining} tuples exceeds budget {budget}")

    # Work counts the candidate tuples a lexicographic walk would examine.
    hit = _box_walker(inst.generators, box, inst.n, inst.t - 1)(inst.beta)
    if hit is None:
        return PeelResult("not-found", congruences, None, ops[0] + remaining)
    work = ops[0] + hit + 1
    sol = _checked(inst, _decode(hit, box), METHOD_PEEL, work)
    return PeelResult("solved", congruences, sol, work)


# ---------------------------------------------------------------------------
# Orchestrator

STRATEGIES = ("auto", "exhaustive", "mitm", "collapse", "peel")


def solve(
    inst: Instance,
    strategy: str = "auto",
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[Solution]:
    """Recover the exponent tuple; None means definitively not found.

    "auto" is arith's Pohlig-Hellman routine inside H = <g_1, ..., g_t>
    (method "sylow", work 1 plus its group operations). beta**lcm(r_i) != 1
    gives None at once; then a hit gives beta, and a miss is a proof only
    for independent generators: after a miss, an unchecked dependent set
    raises IndependenceViolation. The routine charges its worst case
    before any table. When that is over ``budget``, or a table over
    DEFAULT_MEMORY_CAP, as where generators share a large prime, collapse
    and then peel are tried, whose logs take one generator at a time;
    BudgetExceeded raises when neither decides.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exhaustive":
        return solve_exhaustive(inst, budget=budget)
    if strategy == "mitm":
        return solve_mitm(inst, budget=budget)
    if strategy == "collapse":
        return attack_collapse(inst)
    if strategy == "peel":
        return attack_peel(inst, budget=budget).solution

    factored = [order_factors(g, inst.modulus) for g in inst.generators]
    if pow(inst.beta, math.lcm(*inst.orders), inst.n) != 1:
        return None
    ops = [1]
    try:
        [exponents] = _pohlig_hellman(
            inst.generators, factored, [inst.beta], inst.n, ops, budget, DEFAULT_MEMORY_CAP
        )
    except BudgetExceeded:
        # collapse and peel log to one generator at a time, on tables that
        # must fit the cap too; a peel scan that finds nothing is a proof
        for g, f in zip(inst.generators, factored):
            _pohlig_hellman([g], [f], [], inst.n, [0], cap=DEFAULT_MEMORY_CAP)
        sol = attack_collapse(inst)
        if sol is None and (peel := attack_peel(inst, budget=budget)).status == "not-applicable":
            raise
        return sol or peel.solution
    if exponents is not None:
        return _checked(inst, exponents, "sylow", ops[0])
    if not inst.independence_verified:
        res = _independence(inst.generators, inst.modulus, factored)
        if not res.independent:
            raise IndependenceViolation(res.witness)
    return None
