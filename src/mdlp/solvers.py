"""Exponent-recovery methods.

Five routes to the witness tuple of an instance:

* exhaustive scan of the exponent box, lexicographic order, optionally
  skipping the diagonal tuples (k mod r_1, ..., k mod r_t);
* meet-in-the-middle over the same box (table on the first half of the
  generators, scan over the second half);
* single-DLP solving by Pohlig-Hellman decomposition with baby-step
  giant-step per prime power (the classical stand-in for a quantum
  period-finder throughout this package);
* the collapse attack: solve beta = (g_1 ... g_t)**k as one DLP and split
  k mod each order, which works exactly when the witness residues are
  pairwise compatible;
* the peel attack: where every other generator is 1 mod a prime p of N,
  beta = g_i**k_i (mod p) leaks k_i modulo the local order, and the
  leaked congruences shrink the remaining search box.

Every returned Solution is verified against the instance before it leaves
this module, by a check that also runs under ``python -O``. Work counters
tally group operations (modular multiplications and powerings); for box
scans they count the tuples a tuple-by-tuple lexicographic scan would
examine, which the table lookups derive exactly from the hit position.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .arith import Modulus, factorize, multiplicative_order
from .congruence import Congruence, CrtSolution, solve_system, split_exponent
from .errors import AllMethodsExhausted, BudgetExceeded, UnsolvableSystem
from .instance import Instance, verify

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_MITM = "mitm"
METHOD_COLLAPSE = "collapse"
METHOD_PEEL = "peel+recurse"
METHOD_SINGLE_DLP = "single-dlp"

DEFAULT_SEARCH_BUDGET = 5_000_000
DEFAULT_MEMORY_CAP = 1 << 22
DEFAULT_PEEL_BUDGET = 1_000_000


@dataclass(frozen=True)
class Solution:
    exponents: tuple[int, ...]
    method: str
    work: int


@dataclass(frozen=True)
class DlpTask:
    """Solve base**x = target (mod modulus) for x in [0, order)."""

    base: int
    target: int
    modulus: int
    order: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        object.__setattr__(self, "base", self.base % self.modulus)
        object.__setattr__(self, "target", self.target % self.modulus)
        if pow(self.base, self.order, self.modulus) != 1:
            raise ValueError(
                f"{self.base}**{self.order} != 1 mod {self.modulus}: bad order"
            )


# ---------------------------------------------------------------------------
# Single DLP: baby-step giant-step under Pohlig-Hellman


def _bsgs(base: int, target: int, modulus: int, order: int, ops: list[int]) -> Optional[int]:
    """Smallest x in [0, order) with base**x = target, or None."""
    base %= modulus
    target %= modulus
    if order == 1 or base == 1:
        return 0 if target == 1 % modulus else None
    m = math.isqrt(order - 1) + 1
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * base % modulus
    ops[0] += m
    stride = pow(cur, -1, modulus)  # cur == base**m at this point
    cur_t = target
    for i in range(m):
        ops[0] += 1
        j = table.get(cur_t)
        if j is not None:
            return (i * m + j) % order
        cur_t = cur_t * stride % modulus
    return None


def _prime_power_log(
    base: int, target: int, modulus: int, q: int, e: int, ops: list[int]
) -> Optional[int]:
    """Digit-by-digit log in the subgroup of order q**e."""
    gamma = pow(base, q ** (e - 1), modulus)  # order q (or 1)
    x = 0
    for j in range(e):
        h = pow(target * pow(base, -x, modulus) % modulus, q ** (e - 1 - j), modulus)
        ops[0] += 2
        d = _bsgs(gamma, h, modulus, q, ops)
        if d is None:
            return None
        x += d * q**j
    return x


def solve_dlp(task: DlpTask, ops: Optional[list[int]] = None) -> Optional[int]:
    """x in [0, order) with base**x = target, or None when target is
    outside <base>. Pohlig-Hellman over the factored order, BSGS per
    prime power, recombined by CRT. ``ops`` (a one-cell list) accumulates
    the group-operation count when supplied.
    """
    if ops is None:
        ops = [0]
    if task.order == 1:
        return 0 if task.target == 1 % task.modulus else None
    parts = []
    for q, e in factorize(task.order):
        qe = q**e
        co = task.order // qe
        b = pow(task.base, co, task.modulus)
        t = pow(task.target, co, task.modulus)
        x = _prime_power_log(b, t, task.modulus, q, e, ops)
        if x is None:
            return None
        parts.append(Congruence(x, qe))
    x = solve_system(parts).residue
    if pow(task.base, x, task.modulus) != task.target:
        return None
    return x


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


def _power_row(g: int, ks: range, n: int) -> list[int]:
    """[g**k mod n for k in ks], one multiplication per entry."""
    step = pow(g, ks.step, n)
    cur = pow(g, ks.start, n)
    row = []
    for _ in ks:
        row.append(cur)
        cur = cur * step % n
    return row


def _prefix_products(rows: Sequence[Sequence[int]], n: int, acc: int = 1) -> Iterator[int]:
    """acc * rows[0][d_0] * ... * rows[-1][d_-1] mod n for every digit
    tuple, in lexicographic order; no rows yields acc once.

    The one box odometer: each value is its parent prefix times one row
    entry. Callers pass every axis but the last and loop over that one
    themselves, so no tuple costs a generator resume.
    """
    if not rows:
        yield acc
        return
    *head, last = rows
    for p in _prefix_products(head, n, acc):
        for x in last:
            yield p * x % n


def _decode(pos: int, box: Sequence[range]) -> tuple[int, ...]:
    """The exponent tuple at lexicographic position ``pos`` of the box."""
    out = [0] * len(box)
    for i in range(len(box) - 1, -1, -1):
        pos, d = divmod(pos, len(box[i]))
        out[i] = box[i][d]
    return tuple(out)


def _box_hits(inst: Instance, box: Sequence[range]) -> Iterator[int]:
    """Ascending positions of the tuples in the box whose product is beta.

    Shanks' split: the last generator's powers over its range go in a
    dict, the other axes are walked as prefix products of inverse powers
    starting from beta, and each prefix is looked up. The last range lies
    in [0, r_t) and r_t is the exact order, so its powers are distinct and
    each prefix has at most one hit.
    """
    n = inst.n
    *head, last = box
    where = {v: j for j, v in enumerate(_power_row(inst.generators[-1], last, n))}
    inv_rows = [_power_row(pow(g, -1, n), ks, n) for g, ks in zip(inst.generators, head)]
    width = len(last)
    for i, q in enumerate(_prefix_products(inv_rows, n, inst.beta)):
        j = where.get(q)
        if j is not None:
            yield i * width + j


def _diagonal_indices(orders: Sequence[int]) -> list[int]:
    """Sorted scan indices of the tuples (k mod r_1, ..., k mod r_t)."""
    lcm = math.lcm(*orders)
    out = set()
    for k in range(lcm):
        idx = 0
        for r, d in zip(orders, split_exponent(k, orders)):
            idx = idx * r + d
        out.add(idx)
    return sorted(out)


def solve_exhaustive(
    inst: Instance,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
    skip_diagonal: bool = False,
) -> Optional[Solution]:
    """Lexicographically smallest exponent tuple mapping to beta, or None.

    Walks the first t-1 exponents and looks the last one up in a table of
    its generator's powers. ``work`` is the number of box tuples up to and
    including the hit in lexicographic order (the whole box on a miss),
    i.e. what a tuple-by-tuple scan would examine. ``skip_diagonal``
    leaves out the lcm(r_i) diagonal tuples first and only walks the
    diagonal (as powers of the product generator) when the box scan
    misses; the reported work excludes the skipped tuples either way.
    """
    radices = inst.orders
    total = math.prod(radices)
    if total > budget:
        raise BudgetExceeded(f"exhaustive box of {total} tuples exceeds budget {budget}")
    box = [range(r) for r in radices]
    diag = _diagonal_indices(radices) if skip_diagonal else []
    skip = frozenset(diag)
    hit = next((pos for pos in _box_hits(inst, box) if pos not in skip), None)
    if hit is not None:
        work = hit + 1 - bisect_right(diag, hit)
        return _checked(inst, _decode(hit, box), METHOD_EXHAUSTIVE, work)

    work = total - len(diag)
    if skip_diagonal:
        # The answer may live on the skipped diagonal: walk it as powers
        # of the product of all generators.
        g_all = 1
        for g in inst.generators:
            g_all = g_all * g % inst.n
        cur = 1
        for k in range(math.lcm(*radices)):
            work += 1
            if cur == inst.beta:
                return _checked(inst, split_exponent(k, radices), METHOD_EXHAUSTIVE, work)
            cur = cur * g_all % inst.n
    return None


def find_all_solutions(inst: Instance, budget: int = DEFAULT_SEARCH_BUDGET) -> list[tuple[int, ...]]:
    """Every exponent tuple in the box mapping to beta (uniqueness probe)."""
    total = math.prod(inst.orders)
    if total > budget:
        raise BudgetExceeded(f"{total} tuples exceed budget {budget}")
    box = [range(r) for r in inst.orders]
    return [_decode(pos, box) for pos in _box_hits(inst, box)]


def solve_mitm(
    inst: Instance,
    *,
    memory_cap: int = DEFAULT_MEMORY_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[Solution]:
    """Meet-in-the-middle over the exponent box; same answer as exhaustive.

    Tabulates partial products over the first ceil(t/2) generators, then
    scans the remaining half, matching beta * (right half)**-1 against the
    table. Returns the lexicographically smallest matching tuple.
    """
    n = inst.n
    h = (inst.t + 1) // 2
    box = [range(r) for r in inst.orders]
    left_total = math.prod(inst.orders[:h])
    right_total = math.prod(inst.orders[h:])
    if left_total > memory_cap:
        raise BudgetExceeded(f"mitm table of {left_total} entries exceeds cap {memory_cap}")
    if left_total + right_total > budget:
        raise BudgetExceeded(
            f"mitm scan of {left_total + right_total} candidates exceeds budget {budget}"
        )

    # Left half: value -> first (lexicographically smallest) position.
    *head, last = [_power_row(g, ks, n) for g, ks in zip(inst.generators, box[:h])]
    table: dict[int, int] = {}
    for i, p in enumerate(_prefix_products(head, n)):
        for pos, x in enumerate(last, i * len(last)):
            table.setdefault(p * x % n, pos)

    # Right half, with inverse powers; for t = 1 it is one empty product.
    inv_rows = [_power_row(pow(g, -1, n), ks, n) for g, ks in zip(inst.generators[h:], box[h:])]
    *head, last = inv_rows or [[1]]
    best: Optional[tuple[int, int]] = None
    for i, q in enumerate(_prefix_products(head, n, inst.beta)):
        for pos, x in enumerate(last, i * len(last)):
            lidx = table.get(q * x % n)
            if lidx is not None and (best is None or lidx < best[0]):
                best = (lidx, pos)

    if best is None:
        return None
    exps = _decode(best[0], box[:h]) + _decode(best[1], box[h:])
    return _checked(inst, exps, METHOD_MITM, left_total + right_total)


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
    order = multiplicative_order(g_all, inst.modulus)
    ops = [0]
    k = solve_dlp(DlpTask(g_all, inst.beta, n, order), ops)
    if k is None:
        return None
    method = METHOD_SINGLE_DLP if inst.t == 1 else METHOD_COLLAPSE
    return _checked(inst, split_exponent(k, inst.orders), method, ops[0])


@dataclass(frozen=True)
class PeelResult:
    """Outcome of the peel attack.

    status is one of:
      * "solved": full tuple recovered (and verified);
      * "partial": some exponents pinned only to residue classes and the
        remaining box exceeded the enumeration budget;
      * "not-applicable": no prime of N has every other generator = 1;
      * "not-found": the reduced box was searched and beta never appeared.
    congruences maps generator index -> recovered residue class of k_i.
    """

    status: str
    congruences: dict[int, CrtSolution]
    solution: Optional[Solution]
    work: int


def attack_peel(inst: Instance, *, budget: int = DEFAULT_PEEL_BUDGET) -> PeelResult:
    """Leak exponent residues through primes where the other generators
    vanish, then enumerate what remains of the exponent box.

    At a prime p with g_l = 1 (mod p) for every l != i, the target
    satisfies beta = g_i**k_i (mod p), so a local DLP pins k_i modulo the
    order of g_i mod p. Residues from several primes merge by CRT. The
    reduction is attacker-checkable: it never peeks at the witness.
    """
    ops = [0]
    congruences: dict[int, CrtSolution] = {}
    candidate_sets: list[range] = []
    for i, (g, r) in enumerate(zip(inst.generators, inst.orders)):
        entries = []
        for p in inst.modulus.factorization.primes:
            if any(inst.generators[l] % p != 1 for l in range(inst.t) if l != i):
                continue
            h = g % p
            if h == 1 or p < 3:
                continue
            local_order = multiplicative_order(h, Modulus.from_int(p))
            x = solve_dlp(DlpTask(h, inst.beta % p, p, local_order), ops)
            if x is None:
                continue
            entries.append(Congruence(x, local_order))
        if entries:
            try:
                merged = solve_system(entries)
            except UnsolvableSystem:
                candidate_sets.append(range(r))
                continue
            congruences[i] = merged
            candidate_sets.append(range(merged.residue % merged.modulus, r, merged.modulus))
        else:
            candidate_sets.append(range(r))

    if not congruences:
        return PeelResult("not-applicable", {}, None, ops[0])

    remaining = math.prod(len(c) for c in candidate_sets)
    if remaining > budget:
        return PeelResult("partial", congruences, None, ops[0])

    # Work counts the candidate tuples a lexicographic walk would examine.
    hit = next(_box_hits(inst, candidate_sets), None)
    if hit is None:
        return PeelResult("not-found", congruences, None, ops[0] + remaining)
    work = ops[0] + hit + 1
    sol = _checked(inst, _decode(hit, candidate_sets), METHOD_PEEL, work)
    return PeelResult("solved", congruences, sol, work)


# ---------------------------------------------------------------------------
# Orchestrator

STRATEGIES = ("auto", "exhaustive", "mitm", "collapse", "peel")


def solve(
    inst: Instance,
    strategy: str = "auto",
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> Optional[Solution]:
    """Recover the exponent tuple; None means definitively not found.

    "auto" tries collapse, then peel, then meet-in-the-middle, then the
    exhaustive scan, and raises AllMethodsExhausted (with per-method
    diagnostics) when nothing could decide the instance.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exhaustive":
        return solve_exhaustive(inst, budget=budget)
    if strategy == "mitm":
        return solve_mitm(inst, memory_cap=memory_cap, budget=budget)
    if strategy == "collapse":
        return attack_collapse(inst)
    if strategy == "peel":
        return attack_peel(inst, budget=budget).solution

    diagnostics: dict[str, str] = {}
    sol = attack_collapse(inst)
    if sol is not None:
        return sol
    diagnostics["collapse"] = "not-applicable"

    peel = attack_peel(inst, budget=budget)
    if peel.solution is not None:
        return peel.solution
    diagnostics["peel"] = peel.status
    if peel.status == "not-found":
        return None

    try:
        sol = solve_mitm(inst, memory_cap=memory_cap, budget=budget)
        return sol  # a full scan ran: None here is definitive
    except BudgetExceeded as exc:
        diagnostics["mitm"] = str(exc)

    try:
        return solve_exhaustive(inst, budget=budget)
    except BudgetExceeded as exc:
        diagnostics["exhaustive"] = str(exc)

    raise AllMethodsExhausted(diagnostics)
