"""Multiple-discrete-log instances: construction, validation, hardness checks.

An instance is a modulus N with known factorization, independent generators
g_1..g_t with computed orders r_1..r_t, a target beta in <g_1,...,g_t>, and
optionally the witness exponents (k_1,...,k_t) with
beta = g_1**k_1 * ... * g_t**k_t mod N.

Random instances are built, not rejection-sampled: generate samples N
and constructs t independent generators on it in exponent space, one
exponent per cyclic component of Z_N*, with orders chosen within the
order bound and a shape chosen for the hardness constraints.

The hardness validators are parameter-vetting tools for instance designers
and therefore require the witness; the attacks that work without one live
in the solvers module.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import subgroup
from .arith import Factorization, Modulus, as_modulus, is_probable_prime, order_factors
from .congruence import Congruence, solve_system
from .errors import BudgetExceeded, GenerationFailed, IndependenceViolation

SCHEMA_VERSION = 1
DEFAULT_CELL_BUDGET = 1 << 14
DEFAULT_MAX_ATTEMPTS = 4000
WITNESS_DRAWS = 16
# Draws of a draft's exponents at one prime until they are independent,
# and of all of them until the peel shape holds; most drafts need one or
# two. Running out sends generate to a new modulus.
COLUMN_DRAWS = 64


@dataclass(frozen=True)
class Instance:
    modulus: Modulus
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    beta: int
    witness: Optional[tuple[int, ...]] = None
    independence_verified: bool = False
    provenance: Optional[dict] = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.modulus.n

    @property
    def t(self) -> int:
        return len(self.generators)


def _eval_product(generators, exponents, n: int) -> int:
    out = 1
    for g, k in zip(generators, exponents):
        out = out * pow(g, k, n) % n
    return out


def make_instance(
    modulus_or_n,
    generators: Sequence[int],
    witness: Optional[Sequence[int]] = None,
    beta: Optional[int] = None,
    *,
    check_independence: bool = True,
    provenance: Optional[dict] = None,
) -> Instance:
    """Build an instance, computing orders and beta rather than trusting them.

    Exactly one of ``witness`` / ``beta`` may be omitted: with a witness,
    beta is evaluated (and cross-checked if also supplied); without one,
    beta must be given. Raises NotAUnit for bad generators and
    IndependenceViolation (with the offending power) for dependent ones;
    the check raises BudgetExceeded when a prime shared by two orders is
    too large to log (see subgroup.MAX_SHARED_PRIME). Each order is
    computed once, factored by order_factors, and the independence check
    reads it from there. ``check_independence=False`` is for callers that
    build independent generators by construction and need no check, such
    as CRT-built instances; generate keeps the check on what it builds.
    """
    if isinstance(modulus_or_n, Factorization):
        modulus = Modulus.from_factorization(modulus_or_n)
    else:
        modulus = as_modulus(modulus_or_n)
    n = modulus.n
    gens = tuple(g % n for g in generators)
    if not gens:
        raise ValueError("at least one generator is required")
    factored = [order_factors(g, modulus) for g in gens]
    orders = tuple(math.prod(q**b for q, b in f) for f in factored)

    if witness is not None:
        if len(witness) != len(gens):
            raise ValueError("witness length must match generator count")
        wit = tuple(k % r for k, r in zip(witness, orders))
        evaluated = _eval_product(gens, wit, n)
        if beta is not None and beta % n != evaluated:
            raise ValueError(
                f"supplied beta {beta} disagrees with witness product {evaluated}"
            )
        beta = evaluated
    else:
        wit = None
        if beta is None:
            raise ValueError("either a witness or beta must be supplied")
        beta %= n

    verified = False
    if check_independence:
        res = subgroup._independence(gens, modulus, factored)
        if not res.independent:
            raise IndependenceViolation(res.witness)
        verified = True
    return Instance(modulus, gens, orders, beta, wit, verified, provenance)


def verify(inst: Instance, candidate: Sequence[int]) -> bool:
    """True iff the candidate exponent tuple reproduces beta.

    Candidate entries are reduced mod the true orders first.
    """
    if len(candidate) != inst.t:
        raise ValueError(
            f"candidate has {len(candidate)} exponents, instance has {inst.t}"
        )
    reduced = [k % r for k, r in zip(candidate, inst.orders)]
    return _eval_product(inst.generators, reduced, inst.n) == inst.beta


# ---------------------------------------------------------------------------
# Hardness checks


@dataclass(frozen=True)
class CollapseCheck:
    """Does any order/witness pair block the reduction to a single DLP?

    ``resistant`` is True when some pair (j1, j2) has
    gcd(r_j1, r_j2) not dividing k_j1 - k_j2, so no single exponent k can
    satisfy k = k_i (mod r_i) for all i. When False, ``collapse_exponent``
    is that common k (unique mod lcm of the orders).
    """

    resistant: bool
    witness_pair: Optional[tuple[int, int]] = None
    collapse_exponent: Optional[Congruence] = None


@dataclass(frozen=True)
class PeelCheck:
    """Is every omit-one generator product != 1 mod every prime of N?

    When False, ``violation`` = (omitted index i, prime p) marks where
    beta = g_i**k_i (mod p) holds and one exponent can be peeled off.
    """

    resistant: bool
    violation: Optional[tuple[int, int]] = None


VERDICT_RESISTS = "resists-hsp-necessary-condition"
VERDICT_COLLAPSE = "collapse-vulnerable"
VERDICT_PEEL = "peel-vulnerable"
VERDICT_BOTH = "both-vulnerable"


@dataclass(frozen=True)
class HardnessReport:
    collapse: CollapseCheck
    peel: PeelCheck
    verdict: str


def _require_witness(inst: Instance) -> tuple[int, ...]:
    if inst.witness is None:
        raise ValueError("witness required for hardness validation")
    return inst.witness


def check_collapse_resistance(inst: Instance) -> CollapseCheck:
    k = _require_witness(inst)
    r = inst.orders
    for j1 in range(inst.t):
        for j2 in range(j1 + 1, inst.t):
            if (k[j1] - k[j2]) % math.gcd(r[j1], r[j2]) != 0:
                return CollapseCheck(True, witness_pair=(j1, j2))
    sol = solve_system([Congruence(k_i, r_i) for k_i, r_i in zip(k, r)])
    return CollapseCheck(False, collapse_exponent=sol)


def check_peel_resistance(inst: Instance) -> PeelCheck:
    k = _require_witness(inst)
    t, primes = inst.t, inst.modulus.factorization.primes
    # omitted[p][i] is the product of every g_l**k_l but the i-th, mod p:
    # the product of the powers before i and of those after it, so each
    # power is taken once per prime.
    omitted = {}
    for p in primes:
        powers = [pow(g, e, p) for g, e in zip(inst.generators, k)]
        before, after = [1] * (t + 1), [1] * (t + 1)
        for i in range(t):
            before[i + 1] = before[i] * powers[i] % p
            after[t - 1 - i] = after[t - i] * powers[t - 1 - i] % p
        omitted[p] = [before[i] * after[i + 1] % p for i in range(t)]
    for i in range(t):
        for p in primes:
            if omitted[p][i] == 1:
                return PeelCheck(False, violation=(i, p))
    return PeelCheck(True)


def hardness_report(inst: Instance) -> HardnessReport:
    collapse = check_collapse_resistance(inst)
    peel = check_peel_resistance(inst)
    if collapse.resistant and peel.resistant:
        verdict = VERDICT_RESISTS
    elif peel.resistant:
        verdict = VERDICT_COLLAPSE
    elif collapse.resistant:
        verdict = VERDICT_PEEL
    else:
        verdict = VERDICT_BOTH
    return HardnessReport(collapse, peel, verdict)


# ---------------------------------------------------------------------------
# Truth tables

# Reference table for the classic two-generator example over N = 35 with
# g1 = 13, g2 = 19, keyed (k1, k2). It was tabulated assuming the order of
# 19 is 4; the true order is 6, so its k2 = 4 row is wrong (19**4 = 16, not
# 1, mod 35). The emitter below always computes true values and callers can
# flag cells that diverge from this reference.
REFERENCE_TABLE_N35 = {
    (1, 1): 2, (2, 1): 26, (3, 1): 23, (4, 1): 19,
    (1, 2): 3, (2, 2): 4, (3, 2): 17, (4, 2): 11,
    (1, 3): 22, (2, 3): 6, (3, 3): 8, (4, 3): 34,
    (1, 4): 13, (2, 4): 29, (3, 4): 27, (4, 4): 1,
}


def truth_table(
    n: int,
    g1: int,
    g2: int,
    k1_values: Sequence[int],
    k2_values: Sequence[int],
) -> list[list[int]]:
    """Rows of g1**k1 * g2**k2 mod n, one row per k2, one column per k1.

    True exponents throughout; nothing is silently reduced mod an order.
    Raises BudgetExceeded past DEFAULT_CELL_BUDGET cells.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    k1s, k2s = list(k1_values), list(k2_values)
    if len(k1s) * len(k2s) > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(
            f"table of {len(k1s)}x{len(k2s)} cells exceeds budget {DEFAULT_CELL_BUDGET}"
        )
    col = {k1: pow(g1, k1, n) for k1 in k1s}
    return [[col[k1] * pow(g2, k2, n) % n for k1 in k1s] for k2 in k2s]


def reference_divergences(
    n: int, g1: int, g2: int, k1_values: Sequence[int], k2_values: Sequence[int]
) -> list[tuple[int, int, int, int]]:
    """Cells where the true table differs from the reference table.

    Returns (k1, k2, computed, reference) tuples; empty unless the
    parameters match the documented N = 35 example.
    """
    if (n, g1, g2) != (35, 13, 19):
        return []
    out = []
    for k2 in k2_values:
        for k1 in k1_values:
            ref = REFERENCE_TABLE_N35.get((k1, k2))
            if ref is None:
                continue
            got = pow(g1, k1, n) * pow(g2, k2, n) % n
            if got != ref:
                out.append((k1, k2, got, ref))
    return out


# ---------------------------------------------------------------------------
# Random generation


def _random_odd_prime(rng: random.Random, lo: int, hi: int) -> Optional[int]:
    """A uniform-ish odd prime in [lo, hi], or None when the range has none."""
    lo = max(lo, 3)
    if lo > hi:
        return None
    for _ in range(64):
        x = rng.randrange(lo, hi + 1) | 1
        while x <= hi:
            if is_probable_prime(x):
                return x
            x += 2
    # Sparse range: enumerate.
    for x in range(lo | 1, hi + 1, 2):
        if is_probable_prime(x):
            return x
    return None


def _sample_modulus(rng: random.Random, bits: int, parts: int) -> Optional[Modulus]:
    """A composite with ``bits`` bits and ``parts`` distinct odd primes."""
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    chosen: dict[int, int] = {}  # each prime's exponent in prod
    remaining = parts
    prod = 1
    # Occasionally square the first prime for a prime-power factor.
    square_first = parts == 2 and bits >= 10 and rng.random() < 0.2
    while remaining > 1:
        room = bits - prod.bit_length() - 3 * (remaining - 1)
        if room < 2:
            return None
        width = rng.randint(2, max(2, room))
        p = _random_odd_prime(rng, 1 << (width - 1), (1 << width) - 1)
        if p is None or p in chosen:
            return None
        chosen[p] = 2 if square_first and not chosen and p * p < hi // 8 else 1
        prod *= p ** chosen[p]
        remaining -= 1
    last = _random_odd_prime(rng, (lo + prod - 1) // prod, hi // prod)
    if last is None or last in chosen:
        return None
    chosen[last] = 1
    prod *= last
    if not lo <= prod <= hi:
        return None
    # Every prime in chosen came from _random_odd_prime, which has already
    # tested it, so Modulus.from_factorization's own test is skipped.
    return Modulus(Factorization(tuple(sorted(chosen.items()))))


def _unit_basis(modulus: Modulus) -> list[tuple[int, int, Factorization, int, int]]:
    """(p, p**a, lambda(p**a) factored, c, e) for each component of an odd N.

    Z_{p^a}* is cyclic for odd p, and c is its least generator. e is 1 mod
    p**a and 0 mod every other component, so the sum over the components
    of e * (c**x mod p**a) is the unit of N with exponent x at each.
    """
    n = modulus.n
    out = []
    for (p, _), (m, lam) in zip(modulus.factorization, modulus.components):
        c = next(c for c in range(2, m) if all(pow(c, lam.n // q, m) != 1 for q in lam.primes))
        rest = n // m
        out.append((p, m, lam, c, rest * pow(rest, -1, m) % n))
    return out


def _construct(
    rng: random.Random,
    modulus: Modulus,
    t: int,
    bound: int,
    require_collapse_resistant: Optional[bool],
    require_peel_resistant: Optional[bool],
) -> str | tuple[tuple[int, ...], tuple[int, ...]]:
    """t independent generators of N and their orders, built for the
    constraints, or the stage that rejects the draw (REJECTION_STAGES).

    Generator i is the unit with exponent x_ij to the generator c_j of
    each component j, so its order is known before any powering. The
    orders come first, as prime factors of lambda(N) dealt in random
    order, each to the generator of least order so far that can still
    take it, while the order product stays within the bound. Then the
    exponents, prime by prime (_draw_exponents), drawn again until the
    generators that are not 1 mod each prime of N make the peel shape:
    two or more at every prime when peel resistance is required, at most
    one at some prime when it is refused, so that omitting that one
    leaves 1 mod it.
    """
    basis = _unit_basis(modulus)
    lams = [dict(lam) for _, _, lam, _, _ in basis]
    primes = sorted({q for lam in lams for q in lam})
    shapes: list[dict[int, int]] = [{} for _ in range(t)]  # order i is prod q**shapes[i][q]
    orders = [1] * t

    def fits(q: int, *takers: int) -> bool:
        """Can each of the generators ``takers`` take one more factor q?

        Independent elements of orders q**x fit in a direct sum of cyclic
        groups of orders q**f iff, both sorted descending, each x is at
        most its f (0 past the last).
        """
        fs = sorted((lam.get(q, 0) for lam in lams), reverse=True) + [0] * t
        xs = sorted((s.get(q, 0) + takers.count(i) for i, s in enumerate(shapes)), reverse=True)
        return all(x <= f for x, f in zip(xs, fs))

    def take(q: int, i: int) -> None:
        shapes[i][q] = shapes[i].get(q, 0) + 1
        orders[i] *= q

    if require_collapse_resistant:
        # Two orders share a prime, so that a witness can make them
        # conflict; 2 always can, as every p - 1 is even.
        q = rng.choice([q for q in primes if q * q << (t - 2) <= bound and fits(q, 0, t - 1)])
        take(q, 0)
        take(q, t - 1)
    slots = [q for q in primes for _ in range(sum(lam.get(q, 0) for lam in lams))]
    rng.shuffle(slots)
    for q in slots:
        fit = [i for i in range(t) if fits(q, i)]
        if not fit:
            continue
        i = min(fit, key=orders.__getitem__)
        # Leave 2 for each generator still of order 1.
        if math.prod(orders) * q << (orders.count(1) - (orders[i] == 1)) <= bound:
            take(q, i)
    if 1 in orders:
        return "orders"
    for _ in range(COLUMN_DRAWS):
        xs = _draw_exponents(rng, lams, shapes)
        if xs is None:
            continue
        # g_i is 1 mod p_j iff p_j - 1 divides x_ij: c_j is primitive mod p_j.
        live = [sum(x[j] % (p - 1) != 0 for x in xs) for j, (p, *_) in enumerate(basis)]
        if require_peel_resistant is None or (min(live) >= 2) == require_peel_resistant:
            break
    else:
        return "columns"
    n = modulus.n
    gens = tuple(
        sum(idem * pow(c, x, m) for x, (_, m, _, c, idem) in zip(row, basis)) % n for row in xs
    )
    return gens, tuple(orders)


def _draw_exponents(
    rng: random.Random,
    lams: Sequence[dict[int, int]],
    shapes: Sequence[dict[int, int]],
) -> Optional[list[list[int]]]:
    """Exponents x_ij of generators with orders prod q**shapes[i][q], or
    None when they came out dependent.

    At each prime q of the orders, column i holds the logs of g_i's q-part
    in each component j, whose q-part is cyclic of order q**f_j: each
    entry is drawn at random with order at most q**b_i. The columns span
    a group of order q**(sum of b_i) exactly when they are independent
    with orders q**b_i; the span is read from their Smith valuations, so
    no log is taken.
    """
    sizes = [math.prod(q**f for q, f in lam.items()) for lam in lams]
    xs = [[0] * len(lams) for _ in shapes]
    for q in sorted({q for s in shapes for q in s}):
        held = [i for i, s in enumerate(shapes) if q in s]
        fs = [lam.get(q, 0) for lam in lams]
        e = max(fs)
        for _ in range(COLUMN_DRAWS):
            cols = {
                i: [
                    q ** max(f - shapes[i][q], 0) * rng.randrange(q ** min(f, shapes[i][q])) if f else 0
                    for f in fs
                ]
                for i in held
            }
            # Z/q**f embeds in Z/q**e by multiplication with q**(e - f).
            rows = [[cols[i][j] * q ** (e - f) for i in held] for j, f in enumerate(fs) if f]
            if subgroup._span_valuation(rows, q, e) == sum(shapes[i][q] for i in held):
                break
        else:
            return None
        for i in held:
            for j, (f, y) in enumerate(zip(fs, cols[i])):
                if f:
                    # c_j**(lambda_j / q**f) generates the q-part at j.
                    xs[i][j] += sizes[j] // q**f * y
    return xs


# Why generate rejected a draw, in the order the tests run.
REJECTION_STAGES = ("modulus", "orders", "columns", "collapse", "peel")


def generate(
    seed: int,
    bits: int = 14,
    t: int = 2,
    *,
    require_collapse_resistant: Optional[bool] = None,
    require_peel_resistant: Optional[bool] = None,
    max_order_product: Optional[int] = None,
) -> Instance:
    """Construct a valid instance, deterministically in ``seed``.

    Constraints may pin the hardness checks either way (True demands the
    check passes, False demands it fails) and bound the product of the
    generator orders. Each attempt samples a modulus N and builds t
    independent generators on it whose order product is within the bound
    (see _construct). Their shape is built for the constraints: when
    collapse resistance is required, two orders share a prime; when peel
    resistance is required, every prime of N has two generators that are
    not 1 mod it, and when it is refused, some prime has at most one, so
    omitting that one leaves 1 mod it. Then the witness is drawn and the
    collapse and peel constraints tested; a witness they reject is
    redrawn, up to WITNESS_DRAWS times. The witness is the attempt's last
    random draw, and an attempt with neither constraint draws one. The
    accepted draft goes through make_instance, which recomputes the
    orders, which must equal the constructed ones, and checks
    independence, raising IndependenceViolation rather than drawing
    again. Raises ValueError for a constraint no instance can meet, and
    GenerationFailed, carrying the rejected draws by stage
    (REJECTION_STAGES), after DEFAULT_MAX_ATTEMPTS attempts.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if bits < 8:
        raise ValueError(f"bits must be >= 8, got {bits}")
    if t == 1 and require_collapse_resistant:
        raise ValueError(
            "t = 1 is never collapse-resistant: there is no pair of orders to conflict"
        )
    if t == 1 and require_peel_resistant:
        raise ValueError(
            "t = 1 is never peel-resistant: omitting the only generator leaves "
            "the empty product 1"
        )
    if max_order_product is not None and max_order_product < 2**t:
        raise ValueError(
            f"max_order_product must be at least 2**t = {2**t}, since every order "
            f"is at least 2; got {max_order_product}"
        )
    rng = random.Random(seed)
    bound = 1 << 17 if max_order_product is None else max_order_product
    provenance = {
        "seed": seed,
        "bits": bits,
        "t": t,
        "constraints": {
            k: v
            for k, v in {
                "require_collapse_resistant": require_collapse_resistant,
                "require_peel_resistant": require_peel_resistant,
                "max_order_product": max_order_product,
            }.items()
            if v is not None
        },
    }
    rejections = dict.fromkeys(REJECTION_STAGES, 0)

    for _ in range(DEFAULT_MAX_ATTEMPTS):
        modulus = _sample_modulus(rng, bits, parts=min(max(t, 2), 3))
        built = (
            "modulus"
            if modulus is None
            else _construct(rng, modulus, t, bound, require_collapse_resistant, require_peel_resistant)
        )
        if isinstance(built, str):
            rejections[built] += 1
            continue
        gens, orders = built
        for _ in range(WITNESS_DRAWS):
            witness = tuple(rng.randrange(r) for r in orders)
            draft = Instance(modulus, gens, orders, _eval_product(gens, witness, modulus.n), witness)
            if (
                require_collapse_resistant is not None
                and check_collapse_resistance(draft).resistant != require_collapse_resistant
            ):
                rejections["collapse"] += 1
            elif (
                require_peel_resistant is not None
                and check_peel_resistance(draft).resistant != require_peel_resistant
            ):
                rejections["peel"] += 1
            else:
                break
        else:
            continue
        inst = make_instance(modulus, gens, witness=witness, provenance=provenance)
        if inst.orders != orders:
            raise AssertionError(
                f"constructed orders {orders} differ from the recomputed {inst.orders}"
            )
        return inst
    raise GenerationFailed(rejections, DEFAULT_MAX_ATTEMPTS, f"bits={bits} t={t}")


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; big integers as decimal strings)


def to_json_dict(inst: Instance) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "n": str(inst.n),
        "factors": [[str(p), a] for p, a in inst.modulus.factorization],
        "generators": [str(g) for g in inst.generators],
        "orders": [str(r) for r in inst.orders],
        "beta": str(inst.beta),
    }
    if inst.witness is not None:
        doc["witness"] = [str(k) for k in inst.witness]
    if inst.provenance is not None:
        doc["provenance"] = inst.provenance
    return doc


def from_json_dict(doc: dict) -> Instance:
    """Parse and revalidate an instance document.

    The instance is rebuilt from the factors, generators, beta and any
    witness: orders are recomputed, generator independence is checked and
    beta is re-evaluated against the witness. The document must then be,
    as JSON text, what to_json_dict emits for it, so a tampered, dependent
    or non-canonical document (a string for an array, beta + N, true for
    1, an unknown key) fails here rather than downstream.
    """
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported instance document version: {version!r}")
    try:
        arrays = [doc.get(key, []) for key in ("factors", "generators", "orders", "witness")]
        if not all(isinstance(a, list) for a in [*arrays, *arrays[0]]):
            raise ValueError("factors, each factor, generators, orders and witness must be arrays")
        factors = tuple((int(p), int(a)) for p, a in doc["factors"])
        gens = [int(g) for g in doc["generators"]]
        beta = int(doc["beta"])
        witness = [int(k) for k in doc["witness"]] if "witness" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    inst = make_instance(
        Factorization(factors),
        gens,
        witness=witness,
        beta=beta,
        provenance=doc.get("provenance"),
    )
    canonical = {k: json.dumps(v) for k, v in to_json_dict(inst).items()}
    if off := sorted(k for k in {*doc, *canonical} if json.dumps(doc.get(k)) != canonical.get(k)):
        expected = ", ".join(f"{k}={canonical.get(k)}" for k in off)
        raise ValueError(f"instance document is not canonical; recomputed {expected}")
    return inst


def dumps(inst: Instance) -> str:
    return json.dumps(to_json_dict(inst), indent=2)


def loads(text: str) -> Instance:
    return from_json_dict(json.loads(text))
