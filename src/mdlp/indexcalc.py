"""Index-calculus discrete logs over prime fields, and the rank-1
demonstrator for why the technique cannot separate several unknown
exponents at once.

The classic pipeline over F_p with base alpha of order n:

1. pick a factor base S = all primes <= B;
2. for random k, keep alpha**k mod p whenever it factors entirely over S,
   which yields the linear relation k = sum a_i * log_alpha p_i (mod n).
   One trial draws k as randrange does, reads alpha**k off a fixed-base
   table with one row per w-bit window of n (w = _WINDOW = 8), at most
   ceil(bits(n) / w) - 1 products mod p, and takes one remainder: a value
   below p is smooth iff it divides the product over S of each prime's
   largest power below p. Only a smooth value is trial-divided over S;
3. collect |S| + slack verified relations; solve for the base logs mod
   each prime power of n by elimination and back-substitution, then CRT;
4. hunt a shift delta with beta * alpha**delta smooth over S by the same
   trial loop, beta folded into the table's first row: no extra product;
5. read off log_alpha beta = -delta + sum b_i * log_alpha p_i (mod n).

alpha's order n, factored by order_factors, and the table are built once
per (p, alpha), in one record that every step reads. Every kept relation
and the returned log are re-checked with the builtin pow, so a wrong
table entry can raise but never yield a wrong log.

Applied to a multi-generator target the same machinery produces one
equation log beta = sum k_i log g_i per choice of base, but switching the
base only rescales the whole equation by log of the new base: every row is
proportional, the system has rank 1, and the k_i stay entangled. The
demonstrator at the bottom makes that executable.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import Factorization, Modulus, _echelon, _pohlig_hellman, is_probable_prime
from .arith import order_factors, primes_up_to
from .congruence import Congruence, solve_system
from .errors import BudgetExceeded, RankDeficient

DEFAULT_BOUND = 50
DEFAULT_SLACK = 10
DEFAULT_RELATION_TRIALS = 200_000
DEFAULT_SHIFT_TRIALS = 50_000


def build_factor_base(p: int, bound: int) -> tuple[int, ...]:
    """The factor base: all primes <= bound, ascending. p itself is left out."""
    if bound < 2:
        raise ValueError(f"smoothness bound must be >= 2, got {bound}")
    return tuple(q for q in primes_up_to(bound) if q != p)


def try_smooth(x: int, fb: tuple[int, ...]) -> tuple[list[int], int]:
    """Trial-divide x over the factor base.

    Returns (exponent vector, cofactor); x is smooth iff the cofactor is 1.
    """
    if x < 1:
        raise ValueError(f"smoothness test needs x >= 1, got {x}")
    exps = [0] * len(fb)
    rest = x
    for i, q in enumerate(fb):
        while rest % q == 0:
            rest //= q
            exps[i] += 1
    return exps, rest


# Bits of the exponent read per row of a fixed-base power table.
_WINDOW = 8
_DIGIT = (1 << _WINDOW) - 1


@functools.lru_cache(maxsize=1)
def _base_record(p: int, alpha: int) -> tuple[int, tuple[tuple[int, int], ...], tuple]:
    """(n, n factored, rows) for alpha mod the prime p: n is alpha's order,
    its (q, b) pairs from order_factors, and rows[j][d] =
    alpha**(d * 2**(_WINDOW * j)) mod p, one row per _WINDOW-bit window of
    n, so every exponent below n has a digit per row.

    F_p is built by Modulus.from_factorization, which tests p for primality
    (InvalidModulus, a ValueError, when it is composite) but never factors
    it: a log's one primality test. The one record kept is shared by every
    retry round of collect_relations and solve_base_logs and by the shift
    search of dlp_via_index_calculus, which all ask for the same (p, alpha).
    """
    factors = order_factors(alpha, Modulus.from_factorization(Factorization(((p, 1),))))
    n = math.prod(q**b for q, b in factors)
    rows = []
    base = alpha % p
    for _ in range(-(-n.bit_length() // _WINDOW)):
        row = [1]
        for _ in range(_DIGIT):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return n, factors, tuple(rows)


def _smooth_draws(p: int, n: int, rows: tuple, factor: int, fb: tuple, seed, trials: int):
    """Yield (k, x), x = factor * alpha**k mod p, for each of ``trials`` draws
    k that makes x smooth over fb. k is drawn as Random(seed).randrange(n)
    draws it: getrandbits(bits(n)), redrawn while >= n. x is read off the
    table ``rows``, its first row times the unit ``factor``. As x < p, it is
    smooth iff it divides the product over fb of each q's largest power < p.
    """
    powers = 1
    for q in fb:
        qe = q
        while qe * q < p:
            qe *= q
        powers *= qe
    first = [factor * r % p for r in rows[0]]
    rest = rows[1:]
    getrandbits = random.Random(seed).getrandbits
    bits = n.bit_length()
    for _ in range(trials):
        k = getrandbits(bits)
        while k >= n:
            k = getrandbits(bits)
        x = first[k & _DIGIT]
        high = k >> _WINDOW
        for row in rest:
            x = x * row[high & _DIGIT] % p
            high >>= _WINDOW
        if not powers % x:
            yield k, x


@dataclass(frozen=True)
class Relation:
    """alpha**k = prod p_i**exponents_i (mod p): one usable linear relation."""

    k: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class RelationMatrix:
    p: int
    alpha: int
    fb: tuple[int, ...]
    rows: tuple[Relation, ...]


def relation_holds(p: int, alpha: int, fb: tuple[int, ...], rel: Relation) -> bool:
    rhs = 1
    for q, a in zip(fb, rel.exponents):
        rhs = rhs * pow(q, a, p) % p
    return pow(alpha, rel.k, p) == rhs


def collect_relations(
    p: int,
    alpha: int,
    fb: tuple[int, ...],
    slack: int = DEFAULT_SLACK,
    seed: int = 0,
) -> RelationMatrix:
    """At least len(fb) + slack verified relations, deterministic in seed.

    Rows are deduped and sorted before assembly so the downstream solve is
    stable no matter how the collection was scheduled. alpha's order n and
    its power table come from the (p, alpha) record, so p must be prime.
    Raises BudgetExceeded at once when n is below that count, since the n
    exponents k give at most n distinct relations, and after
    DEFAULT_RELATION_TRIALS trials otherwise.
    """
    n, _, table = _base_record(p, alpha)
    want = len(fb) + slack
    if n < want:
        raise BudgetExceeded(
            f"alpha={alpha} has order {n} mod {p}, so at most {n} distinct "
            f"relations exist; {want} are needed"
        )
    found: set[Relation] = set()
    for k, x in _smooth_draws(p, n, table, 1, fb, seed, DEFAULT_RELATION_TRIALS):
        exps, _ = try_smooth(x, fb)
        rel = Relation(k, tuple(exps))
        if not relation_holds(p, alpha, fb, rel):
            raise AssertionError(f"relation {rel} does not hold mod {p}")
        found.add(rel)
        if len(found) >= want:
            rows = tuple(sorted(found, key=lambda r: (r.k, r.exponents)))
            return RelationMatrix(p, alpha, fb, rows)
    raise BudgetExceeded(
        f"only {len(found)}/{want} relations after {DEFAULT_RELATION_TRIALS} trials "
        f"({len(fb)} factor-base primes too few for p={p}?)"
    )


def _solve_mod_prime_power(
    rows: Sequence[tuple[Sequence[int], int]], ncols: int, q: int, e: int
) -> list[int]:
    """Unique solution of A x = b mod q**e; RankDeficient when there is none.

    It is unique iff the echelon kernel gives every column a pivot of
    valuation 0 and every row past the pivots has a zero right-hand side;
    x is then read off the pivot rows by back-substitution, last first.
    """
    qe = q**e
    aug = [[c % qe for c in coeffs] + [rhs % qe] for coeffs, rhs in rows]
    # Elimination never makes a unit in a column that has none, so such a
    # column fails before any row is reduced.
    for col in range(ncols):
        if all(row[col] % q == 0 for row in aug):
            raise RankDeficient(f"no unit pivot for column {col} mod {q}**{e}")
    pivots = _echelon(aug, ncols, q, e)
    if [v for _, v in pivots] != [0] * ncols or any(row[ncols] for row in aug[ncols:]):
        raise RankDeficient(f"no unique solution mod {q}**{e}")
    x = [0] * ncols
    for (col, _), row in zip(reversed(pivots), reversed(aug[:ncols])):
        x[col] = (row[ncols] - sum(a * b for a, b in zip(row, x))) % qe
    return x


def solve_base_logs(mat: RelationMatrix) -> list[int]:
    """log_alpha p_i mod alpha's order n, for every factor-base prime.

    Solved separately mod each prime power of n, read off the factored
    order in the (p, alpha) record, CRT recombined, and each log
    re-verified by powering; a RankDeficient error means the caller should
    collect more relations (or the base does not generate all of the
    factor base).
    """
    n, factors, _ = _base_record(mat.p, mat.alpha)
    m = len(mat.fb)
    rows = [(rel.exponents, rel.k) for rel in mat.rows]
    components = [(q**e, _solve_mod_prime_power(rows, m, q, e)) for q, e in factors]
    logs = []
    for i in range(m):
        sol = solve_system([Congruence(x[i], qe) for qe, x in components])
        logs.append(sol.residue % n)
    for q, log in zip(mat.fb, logs):
        if pow(mat.alpha, log, mat.p) != q % mat.p:
            raise RankDeficient(
                f"solved log of {q} fails verification; {q} may be outside <alpha>"
            )
    return logs


def dlp_via_index_calculus(
    p: int,
    alpha: int,
    beta: int,
    bound: int = DEFAULT_BOUND,
    seed: int = 0,
) -> int:
    """log_alpha beta mod p by the five-step pipeline above.

    Raises ValueError, before any trial, for a non-unit alpha or beta, a
    composite p (InvalidModulus, from the (p, alpha) record's one primality
    test) and a beta outside <alpha>. The returned exponent is verified by
    powering. Raises BudgetExceeded when smoothness retries run out.
    """
    if math.gcd(alpha, p) != 1 or math.gcd(beta, p) != 1:
        raise ValueError("alpha and beta must be units mod p")
    alpha %= p
    beta %= p
    n, _, table = _base_record(p, alpha)
    # F_p* is cyclic, so its one subgroup of order n is <alpha>.
    if pow(beta, n, p) != 1:
        raise ValueError(f"beta={beta} is outside the group generated by alpha={alpha} mod {p}")
    fb = build_factor_base(p, bound)

    logs = None
    for round_ in range(4):
        mat = collect_relations(
            p, alpha, fb, slack=DEFAULT_SLACK + 10 * round_, seed=seed + round_
        )
        try:
            logs = solve_base_logs(mat)
            break
        except RankDeficient:
            continue
    if logs is None:
        raise BudgetExceeded(
            f"base logs stayed rank-deficient after retries (p={p}, B={bound})"
        )

    for delta, y in _smooth_draws(p, n, table, beta, fb, f"shift:{seed}", DEFAULT_SHIFT_TRIALS):
        exps, _ = try_smooth(y, fb)
        x = (-delta + sum(b * l for b, l in zip(exps, logs))) % n
        if pow(alpha, x, p) == beta:
            return x
    raise BudgetExceeded(
        f"no smooth shift of beta found in {DEFAULT_SHIFT_TRIALS} trials (p={p}, B={bound})"
    )


# ---------------------------------------------------------------------------
# Rank demonstrator


@dataclass(frozen=True)
class RankDemoReport:
    """One log-relation equation per base, and how they compare.

    When the bases share an order r, ``factors[j]`` is log of base j in
    base 0 and every equation j rescaled by it reproduces equation 0, so
    ``proportional`` is True and each rank in ``ranks`` (keyed by the
    prime factors of r) comes out <= 1: the equations never pin down the
    individual exponents. Mismatched orders short-circuit with a note,
    since the equations then live modulo different numbers and cannot be
    combined at all.
    """

    p: int
    orders: tuple[int, ...]
    equal_orders: bool
    note: str
    target_logs: Optional[tuple[int, ...]] = None
    generator_logs: Optional[tuple[tuple[int, ...], ...]] = None
    factors: Optional[tuple[int, ...]] = None
    proportional: bool = False
    ranks: Optional[dict[int, int]] = None


def relation_rank_demo(
    p: int, alphas: Sequence[int], generators: Sequence[int], beta: int
) -> RankDemoReport:
    """Build the per-base linear equations for a multi-generator target
    and report their pairwise proportionality and rank.

    Raises ValueError for a composite p, and for a beta or generator
    outside the subgroup the bases generate. The rank mod q is taken at
    each prime q of the bases' order.
    """
    if not is_probable_prime(p):
        raise ValueError(f"the rank demo works over prime fields; {p} is composite")
    if not alphas:
        raise ValueError("at least one base is required")
    mod = Modulus(Factorization(((p, 1),)))
    factored = [order_factors(a, mod) for a in alphas]
    orders = tuple(math.prod(q**b for q, b in f) for f in factored)
    if len(set(orders)) != 1:
        return RankDemoReport(
            p, orders, False,
            "bases have different orders, so their equations are taken "
            "modulo different numbers and cannot be combined into one system",
        )
    r = orders[0]
    # F_p* is cyclic, so every base generates its one subgroup of order r.
    for x in (beta, *generators):
        if pow(x, r, p) != 1:
            raise ValueError(f"{x} is outside the group generated by {alphas[0]} mod {p}")
    # Row j logs beta, the generators (equation j: its first t) and the bases
    # to base j, each re-checked by an explicit raise, which runs under -O.
    targets, t = (beta, *generators, *alphas), 1 + len(generators)
    logs = [[x and x[0] for x in _pohlig_hellman([a], [f], targets, p, [0])]
            for a, f in zip(alphas, factored)]
    for a, row in zip(alphas, logs):
        for x, y in zip(row, targets):
            if x is None or pow(a, x, p) != y % p:
                raise AssertionError(f"no log of {y} to base {a} mod {p}")
    target_logs = tuple(row[0] for row in logs)
    gen_logs = tuple(tuple(row[1:t]) for row in logs)
    factors = tuple(logs[0][t:])

    proportional = not any(
        (u * cj - c0) % r for u, row in zip(factors, logs) for cj, c0 in zip(row[:t], logs[0])
    )
    ranks = {
        q: len(_echelon([[c % q for c in row] for row in gen_logs], len(generators), q, 1))
        for q, _ in factored[0]
    }
    return RankDemoReport(
        p, orders, True, "", target_logs, gen_logs, factors, proportional, ranks
    )
