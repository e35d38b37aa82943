"""Independence of generators in Z_N*, decided prime by prime.

For each prime q of lcm(r_i), every generator is projected into the
q-Sylow subgroup of each cyclic factor of Z_N* (Z_{p^a}* for odd p, and
<-1> x <5> for 2^a), and one call of arith's Pohlig-Hellman routine logs
all of them there, on one baby-step table. The q-part H_q of
H = <g_1, ..., g_t> is then the span of the log columns, and |H_q| is read
from their Smith valuations mod q^e, which arith's one echelon kernel
returns. No subgroup element is enumerated.

Only a prime q shared by two or more orders is examined: where q divides
one r_i alone, H_q is that generator's cyclic q-part at its full order.
A shared q costs a table of about sqrt(q) entries per cyclic factor, so a
q past MAX_SHARED_PRIME raises BudgetExceeded instead of building it.
"""

from __future__ import annotations

import math
from itertools import count
from typing import NamedTuple, Optional, Sequence

from .arith import Modulus, _echelon, _pohlig_hellman, as_modulus, order_factors
from .errors import BudgetExceeded

# Largest prime shared by two orders that is logged: its baby-step table
# holds at most 2**16 entries.
MAX_SHARED_PRIME = 2**32


class IndependenceResult(NamedTuple):
    independent: bool
    witness: Optional[tuple[int, int]]  # (generator index, exponent)


def _sylow_rows(gens: Sequence[int], mod: Modulus, q: int, e: int) -> list[list[int]]:
    """One row per cyclic factor of the q-Sylow subgroup of Z_N*.

    Entry i is the log of g_i's projection into that factor. A factor of
    order q^F is cut to its subgroup of order q^f, f = min(F, e), which
    holds every projection because g_i**(q**e) has no q-part; the entry
    is scaled by q^(e - f), so every row lives in Z/q^e. F is the exponent
    of q in the component's factored lambda(p^a).
    """
    rows = []
    for m, lam in mod.components:
        big_f = dict(lam).get(q, 0)
        if big_f == 0:
            continue
        ys = [g % m for g in gens]
        if m % 2 == 0:
            # (Z/2^a)* = <-1> x <5>: y = (-1)**s * 5**x with s = 0 iff y = 1
            # mod 4. 5 has order lambda(2^a) = 2^(a-2) for a >= 3; for a = 2
            # every +-y below is 1, so that row is dropped.
            rows.append([(y % 4 != 1) << (e - 1) for y in ys])
            ys = [y if y % 4 == 1 else m - y for y in ys]
            c = 5
        else:
            ys = [pow(y, lam.n // q**big_f, m) for y in ys]
            # c**(lambda/q) != 1 means c's q-part has the full order q^F.
            c = next(c for c in count(2) if pow(c, lam.n // q, m) != 1)
        if all(y == 1 for y in ys):
            continue  # a zero row spans nothing
        f = min(big_f, e)
        base = pow(c, lam.n // q**f, m)
        logs = [x and x[0] for x in _pohlig_hellman([base], [((q, f),)], ys, m, [0])]
        for x, y in zip(logs, ys):  # an explicit check, which runs under -O
            if x is None or pow(base, x, m) != y:
                raise AssertionError(f"no log of {y} to base {base} mod {m} in order {q}**{f}")
        rows.append([x * q ** (e - f) for x in logs])
    return rows


def _span_valuation(rows: Sequence[Sequence[int]], q: int, e: int) -> int:
    """log_q of the order of the subgroup of (Z/q^e)^rows spanned by the
    columns: the sum of e - v over the Smith valuations v < e, which the
    echelon kernel returns.
    """
    rest = [[x % q**e for x in row] for row in rows]
    return sum(e - v for _, v in _echelon(rest, len(rest[0]) if rest else 0, q, e))


def independence_check(generators: Sequence[int], modulus) -> IndependenceResult:
    """Check that no proper power of any generator is spanned by the others.

    ``modulus`` is a Modulus or an int to factor. The generators are
    independent iff |H_q| = prod_i q^v_q(r_i) at every prime q, that is
    iff |H| = prod r_i. Otherwise the witness is the first i whose index
    v = |H| / |<g_j : j != i>| is below r_i: v is the smallest exponent
    >= 1 with g_i**v in the span of the others. Raises BudgetExceeded for
    a prime above MAX_SHARED_PRIME that divides two or more orders.
    """
    mod = as_modulus(modulus)
    gens = [g % mod.n for g in generators]
    return _independence(gens, mod, [order_factors(g, mod) for g in gens])


def _independence(
    gens: Sequence[int], mod: Modulus, orders: Sequence[Sequence[tuple[int, int]]]
) -> IndependenceResult:
    """independence_check on generators reduced mod N whose orders, as
    order_factors gives them, the caller has already computed."""
    factored = [dict(f) for f in orders]
    # Primes where H_q is smaller than the direct sum of the generators'
    # q-parts. At every other prime g_i's index has its full q-part.
    deficient = []
    for q in sorted({q for f in factored for q in f}):
        vals = [f.get(q, 0) for f in factored]
        if sum(v > 0 for v in vals) < 2:
            continue
        if q > MAX_SHARED_PRIME:
            i, j = [k for k, v in enumerate(vals) if v][:2]
            raise BudgetExceeded(
                f"prime {q} divides the orders of generators {i} and {j} and is "
                f"above {MAX_SHARED_PRIME}, too large to log by baby-step giant-step"
            )
        e = max(vals)
        rows = _sylow_rows(gens, mod, q, e)
        span = _span_valuation(rows, q, e)
        if span < sum(vals):
            deficient.append((q, e, rows, span))
    if not deficient:
        return IndependenceResult(True, None)
    for i, f in enumerate(factored):
        r = v = math.prod(q**b for q, b in f.items())
        for q, e, rows, span in deficient:
            if q in f:
                without = _span_valuation([row[:i] + row[i + 1 :] for row in rows], q, e)
                v = v // q ** f[q] * q ** (span - without)
        if v < r:
            return IndependenceResult(False, (i, v))
    raise AssertionError(f"a deficient prime of {gens} mod {mod.n}, yet every generator has full index")
