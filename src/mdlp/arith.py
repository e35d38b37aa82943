"""Exact modular arithmetic over Python's native big integers.

Integer factorization (trial division plus Brent's cycle variant of
Pollard rho), primality testing, a modulus given by its factorization
alone, from which n and the Carmichael function of each prime-power
component, factored, are derived once, and multiplicative orders,
computed factored in those components. Two kernels are shared: the box
kernel, which builds Shanks' table once and returns its walk, for the
exhaustive, meet-in-the-middle and peel scans and for the baby-step
giant-step of the one Pohlig-Hellman digit loop, which takes every
discrete log of the package, to one generator or inside the group that
several span, on one table per prime and active set; and the forward-only
echelon kernel mod q**e, with least-valuation pivots, of the independence
check and of index calculus, which back-substitutes. The echelon kernel
works in place; everything else is a pure function over immutable values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import BudgetExceeded, InvalidModulus, NotAUnit

# Below this bound the fixed Miller-Rabin witness set is a proof of
# primality; above it the test is probabilistic.
_DETERMINISTIC_BOUND = 1 << 64
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# The least strong pseudoprime to the bases 2, 3, 5 and 7 (151 * 751 * 28351;
# Pomerance, Selfridge and Wagstaff 1980): below it those four bases suffice.
_SMALL_BOUND = 3_215_031_751
_WITNESSES_SMALL = (2, 3, 5, 7)
_RANDOM_ROUNDS = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_TRIAL_BOUND = 1 << 16
DEFAULT_RHO_BUDGET = 2_000_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below 2**64, with four bases below _SMALL_BOUND and
    seven from there on; above that, _RANDOM_ROUNDS random bases seeded by
    n itself, so repeated calls agree.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        # True if a proves n composite.
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _SMALL_BOUND:
        bases = _WITNESSES_SMALL
    elif n < _DETERMINISTIC_BOUND:
        bases = _WITNESSES_64
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS)]
    return not any(witness(a % n) for a in bases if a % n not in (0, 1, n - 1))


@dataclass(frozen=True)
class Factorization:
    """Prime-power factorization, primes strictly ascending."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(a < 1 for _, a in self.factors):
            raise ValueError("exponents must be positive")

    @cached_property
    def n(self) -> int:
        out = 1
        for p, a in self.factors:
            out *= p**a
        return out

    @property
    def certified(self) -> bool:
        """False when any prime is at least 2**64, where Miller-Rabin is
        only probabilistic."""
        return all(p < _DETERMINISTIC_BOUND for p, _ in self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)


def _brent_rho(n: int, rng: random.Random, budget: list[int]) -> int:
    """One Brent-rho attempt: a nontrivial factor of composite odd n, or n."""
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            budget[0] -= min(m, r - k)
            if budget[0] < 0:
                raise BudgetExceeded(
                    f"factorization budget exhausted while splitting {n}"
                )
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # Backtrack one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factorize(n: int) -> Factorization:
    """Complete prime-power factorization, ascending primes.

    Trial division up to DEFAULT_TRIAL_BOUND first, stopping early once
    what is left is a probable prime, then deterministic-seed Brent-rho on
    whatever survives. Raises BudgetExceeded when the rho
    budget DEFAULT_RHO_BUDGET runs out, so a caller holding a known
    factorization can supply it instead.
    """
    if n < 2:
        raise ValueError(f"factorize needs n >= 2, got {n}")
    counts: dict[int, int] = {}
    rest = n
    for p in (2, 3, 5):
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    # Wheel over 6k +- 1, retesting the cofactor whenever it shrinks.
    f = 7
    skip = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    rest_prime = is_probable_prime(rest)
    while not rest_prime and f * f <= rest and f <= DEFAULT_TRIAL_BOUND:
        if rest % f == 0:
            while rest % f == 0:
                counts[f] = counts.get(f, 0) + 1
                rest //= f
            rest_prime = is_probable_prime(rest)
        f += skip[idx]
        idx = (idx + 1) % len(skip)
    if rest_prime:
        # Every smaller prime is divided out, so this one is new.
        counts[rest] = 1
        rest = 1

    budget = [DEFAULT_RHO_BUDGET]
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        rng = random.Random(m)
        d = m
        while d == m:
            d = _brent_rho(m, rng, budget)
        stack.append(d)
        stack.append(m // d)

    fact = Factorization(tuple(sorted(counts.items())))
    if fact.n != n:
        raise AssertionError(f"factors {fact.factors} do not multiply back to {n}")
    return fact


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by a plain sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class Modulus:
    """A modulus n >= 2, given by its factorization alone.

    n, the factored lambda(p**a) of each component and lambda(n) are
    derived from it on first use and cached.
    """

    factorization: Factorization

    @classmethod
    def from_factorization(cls, factorization: Factorization) -> "Modulus":
        n = factorization.n
        if n < 2:
            raise InvalidModulus(f"modulus must be >= 2, got {n}")
        for p, _ in factorization:
            if not is_probable_prime(p):
                raise InvalidModulus(f"listed factor {p} is not prime")
        return cls(factorization)

    @classmethod
    def from_int(cls, n: int) -> "Modulus":
        if n < 2:
            raise InvalidModulus(f"modulus must be >= 2, got {n}")
        return cls.from_factorization(factorize(n))

    @cached_property
    def n(self) -> int:
        return self.factorization.n

    @cached_property
    def components(self) -> tuple[tuple[int, Factorization], ...]:
        """(p**a, lambda(p**a) factored) for each p**a exactly dividing n.

        lambda(p**a) is p**(a-1) * (p - 1) for odd p, and 1, 2 or 2**(a-2)
        for 2**a with a = 1, 2 or a >= 3. Only each p - 1 is factored, once
        per modulus, and it is far smaller than lambda(n).
        """
        out = []
        for p, a in self.factorization:
            if p == 2:
                parts = [(2, 0 if a == 1 else 1 if a == 2 else a - 2)]
            else:
                parts = [*factorize(p - 1), (p, a - 1)]  # every prime of p - 1 is below p
            out.append((p**a, Factorization(tuple((q, b) for q, b in parts if b))))
        return tuple(out)

    @cached_property
    def carmichael_factorization(self) -> Factorization:
        """lambda(n), the exponent of the unit group, factored: the lcm of
        the components' lambda(p**a), the largest exponent of each prime."""
        exps: dict[int, int] = {}
        for _, lam in self.components:
            for q, b in lam:
                exps[q] = max(exps.get(q, 0), b)
        return Factorization(tuple(sorted(exps.items())))


def as_modulus(m) -> Modulus:
    return m if isinstance(m, Modulus) else Modulus.from_int(m)


def order_factors(g: int, m) -> tuple[tuple[int, int], ...]:
    """The order of g mod m, factored: (q, b) with q ascending and b >= 1,
    so order 1 gives ().

    The smallest r >= 1 with g**r == 1 mod m is always recomputed, never
    taken on faith from a caller, in each component p**a of n (CRT): for
    each prime q of lambda(p**a), with q**e exactly dividing it,
    h = g**(lambda(p**a) / q**e) mod p**a has order q**b, and b is the
    number of q-th powers that take h to 1 (prime-power descent, Cohen,
    GTM 138, Alg. 1.4.3). r is the lcm over the components: each q to its
    largest b. Every exponentiation is mod a prime power of n, not mod n.
    """
    mod = as_modulus(m)
    n = mod.n
    g %= n
    gcd = math.gcd(g, n)
    if gcd != 1:
        raise NotAUnit(g, n, gcd)
    exps: dict[int, int] = {}
    for pa, lam in mod.components:
        gc = g % pa
        for q, e in lam:
            h = pow(gc, lam.n // q**e, pa)
            b = 0
            while h != 1:
                h = pow(h, q, pa)
                b += 1
            if b > exps.get(q, 0):
                exps[q] = b
    return tuple(sorted(exps.items()))


def multiplicative_order(g: int, m) -> int:
    """Smallest r >= 1 with g**r == 1 mod m: the product of order_factors."""
    return math.prod(q**b for q, b in order_factors(g, m))


# ---------------------------------------------------------------------------
# The box kernel, and Pohlig-Hellman logarithms on it


def _power_row(g: int, ks: range, n: int, acc: int = 1) -> list[int]:
    """[acc * g**k mod n for k in ks], one multiplication per entry; g is a unit."""
    step = pow(g, ks.step, n)
    cur = acc * pow(g, ks.start - ks.step, n) % n  # one step before the row
    return [cur := cur * step % n for _ in ks]


def _box_products(gens: Sequence[int], box: Sequence[range], n: int, acc: int = 1) -> list[int]:
    """acc * gens[0]**k_0 * ... mod n for every tuple of the box, in
    lexicographic order, one multiplication each; no axes gives [acc]."""
    if not box:
        return [acc]
    vals = _power_row(gens[0], box[0], n, acc)
    for g, ks in zip(gens[1:], box[1:]):
        row = _power_row(g, ks, n)
        vals = [v * x % n for v in vals for x in row]
    return vals


def _box_walker(
    gens: Sequence[int], box: Sequence[range], n: int, split: int
) -> Callable[[int], Optional[int]]:
    """Shanks' split of the box (one range per unit in ``gens``, last axis
    fastest): the table, built once, and a walk that takes any beta reduced
    mod n to the lexicographic position of the first tuple k of the box
    with prod gens[i]**k_i = beta mod n, or None.

    The table holds the products over ``box[split:]``. The walk goes from
    beta by inverse powers over ``box[:split]`` in lexicographic order: it
    builds only the prefixes of all those axes but the last, steps the last
    one multiplication per position, and stops at the first hit.
    """
    vals = _box_products(gens[split:], box[split:], n)
    table = set(vals)  # list.index finds a repeated value's first position
    if split == 0:
        return lambda beta: vals.index(beta) if beta in table else None
    invs = [pow(g, -1, n) for g in gens[:split]]
    ks = box[split - 1]
    step = pow(invs[-1], ks.step, n)
    first = pow(invs[-1], ks.start, n)

    def walk(beta: int) -> Optional[int]:
        for i, p in enumerate(_box_products(invs[:-1], box[: split - 1], n, beta)):
            q = p * first % n
            for d in range(len(ks)):
                if q in table:
                    return (i * len(ks) + d) * len(vals) + vals.index(q)
                q = q * step % n
        return None

    return walk


def _pohlig_hellman(
    gens: Sequence[int], orders: Sequence[Sequence[tuple[int, int]]], targets: Sequence[int],
    n: int, ops: list[int], budget: float = math.inf, cap: float = math.inf,
) -> list[Optional[list[int]]]:
    """Per target, [x_1, ..., x_t] with x_i in [0, r_i) and prod gens[i]**x_i
    = target mod n, or None; orders[i] is r_i = ord(gens[i]) as (q, b) pairs.

    Pohlig-Hellman inside H = <gens> (Teske, J. Symbolic Comput. 1999): per
    q**e exactly dividing L = lcm(r_i), units are projected into H_q by the
    power L/q**e and their digits lifted level by level, j = 0..e-1. The s
    generators whose q-exponent b_i is at least e - j are active at level j;
    their digits a_i*m + c_i mod q, of place q**(j - e + b_i), come from the
    first hit of the box range(m)**2s over (gamma_i**m ..., gamma_i ...),
    split at s, gamma_i of order q, m = isqrt(q - 1) + 1. A table is built
    when a level first needs it and serves every later level with the same
    active set, and every target. The prime powers merge by CRT. If
    target**L = 1, a hit gives it and a miss proves it outside H for one or
    for independent generators; other targets may get exponents that do not
    give them. ``ops`` gains m**s per table, plus per level and target 2 and
    the giant steps walked (m**s on a miss). Under a finite ``cap``, before
    any table, BudgetExceeded raises when a table would exceed ``cap``
    entries or ops[0] plus that worst case would exceed ``budget``.
    """
    rs, shares = [], {}  # shares[q]: (b_i, i) for each order that q divides
    for i, f in enumerate(orders):
        rs.append(math.prod(q**b for q, b in f))
        for q, b in f:
            shares.setdefault(q, []).append((b, i))
    lcm, plans, worst, top = math.lcm(*rs), [], ops[0], 0
    for q, live in sorted(shares.items()):
        live.sort(reverse=True)  # b descending: each level's active set is a prefix
        e, m = live[0][0], math.isqrt(q - 1) + 1
        co = lcm // q**e
        for k, (b, i) in enumerate(live):  # + projection i, CRT weight (1 mod q**b, 0 mod r_i/q**b)
            cofactor = rs[i] // q**b
            live[k] = (b, i, pow(gens[i], co, n), cofactor * pow(cofactor, -1, q**b))
        levels, s = [], 0  # per level: j, the shift, s, m**s, the active entries reversed
        for j in range(e):
            while s < len(live) and live[s][0] >= e - j:
                s += 1
            levels.append((j, q ** (e - 1 - j), s, m**s, live[s - 1 :: -1]))
        plans.append((q, e, m, co, levels))
        if cap < math.inf:
            top = max(top, m**s)  # the last level's table is the largest
            worst += sum({lv[3] for lv in levels}) + len(targets) * sum(2 + lv[3] for lv in levels)
    if top > cap:
        raise BudgetExceeded(f"sylow table of {top} entries exceeds cap {cap}")
    if worst > budget:
        raise BudgetExceeded(f"sylow work of {worst} operations exceeds budget {budget}")
    out: list[Optional[list[int]]] = [[0] * len(gens) for _ in targets]
    for q, e, m, co, levels in plans:
        walks: dict[int, Callable[[int], Optional[int]]] = {}  # by s
        for k, xs in enumerate(out):
            if xs is None:
                continue
            y = pow(targets[k], co, n)
            for j, shift, s, size, act in levels:
                if s not in walks:
                    gammas = [pow(g, q ** (b - 1), n) for b, _, g, _ in reversed(act)]
                    axes = [pow(g, m, n) for g in gammas] + gammas
                    walks[s] = _box_walker(axes, [range(m)] * (2 * s), n, s)
                    ops[0] += size
                pos = walks[s](pow(y, shift, n))
                ops[0] += 2 + (size if pos is None else pos // size + 1)
                if pos is None:
                    out[k] = None
                    break
                a, c = divmod(pos, size)  # the last active generator's digits are the lowest
                for b, i, g, crt in act:
                    a, ai = divmod(a, m)
                    c, ci = divmod(c, m)
                    x = (ai * m + ci) % q * q ** (j - e + b)
                    if shift > 1:  # strip the digit for the levels still to come
                        y = y * pow(g, -x, n) % n
                    xs[i] = (xs[i] + x * crt) % rs[i]
    return out


# ---------------------------------------------------------------------------
# Linear algebra mod q**e


def _valuation(x: int, q: int) -> int:
    """The exponent of q in x != 0."""
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def _echelon(rows: list[list[int]], ncols: int, q: int, e: int) -> list[tuple[int, int]]:
    """Echelon ``rows`` (entries in [0, q**e)) in place mod q**e.

    Step i takes an entry of least q-valuation v in rows i onward and the
    first ``ncols`` columns, searching no further than the first row that
    holds a unit. Its row moves to row i, scaled by a unit so the entry is
    q**v, and clears the column in every later row, which q**v divides;
    earlier rows keep theirs. Returns (column, v) per pivot, the k-th in
    row k. v never falls from one step to the next, so the v are the
    Smith valuations mod q**e. Columns past ``ncols`` are carried along.
    """
    qe = q**e
    pivots: list[tuple[int, int]] = []
    for i in range(len(rows)):
        v, sel, col = e, None, None
        for r in range(i, len(rows)):
            for c in range(ncols):
                if rows[r][c] and (w := _valuation(rows[r][c], q)) < v:
                    v, sel, col = w, r, c
            if v == 0:
                break
        if sel is None:
            break
        rows[i], rows[sel] = rows[sel], rows[i]
        qv = q**v
        inv = pow(rows[i][col] // qv, -1, qe)
        pivot = rows[i] = [x * inv % qe for x in rows[i]]
        for r in range(i + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] // qv
                rows[r] = [(x - f * y) % qe for x, y in zip(rows[r], pivot)]
        pivots.append((col, v))
    return pivots
