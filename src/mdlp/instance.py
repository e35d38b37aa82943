"""Multiple-discrete-log instances: construction, validation, hardness checks.

An instance is a modulus N with known factorization, independent generators
g_1..g_t with computed orders r_1..r_t, a target beta in <g_1,...,g_t>, and
optionally the witness exponents (k_1,...,k_t) with
beta = g_1**k_1 * ... * g_t**k_t mod N.

The hardness validators are parameter-vetting tools for instance designers
and therefore require the witness; the attacks that work without one live
in the solvers module.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from . import subgroup
from .arith import Factorization, Modulus, as_modulus, is_probable_prime, multiplicative_order
from .arith import order_factors
from .congruence import Congruence, solve_system
from .errors import BudgetExceeded, GenerationFailed, IndependenceViolation

SCHEMA_VERSION = 1
DEFAULT_CELL_BUDGET = 1 << 14
DEFAULT_MAX_ATTEMPTS = 4000
WITNESS_DRAWS = 16


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
    too large to log (see subgroup.MAX_SHARED_PRIME).
    ``check_independence=False`` is for callers that build independent
    generators by construction, such as CRT-built instances, and for
    generate, which has already run the check on the draft it accepts.
    """
    if isinstance(modulus_or_n, Factorization):
        modulus = Modulus.from_factorization(modulus_or_n)
    else:
        modulus = as_modulus(modulus_or_n)
    n = modulus.n
    gens = tuple(g % n for g in generators)
    if not gens:
        raise ValueError("at least one generator is required")
    orders = tuple(multiplicative_order(g, modulus) for g in gens)

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
        res = subgroup.independence_check(gens, modulus)
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
    for i in range(inst.t):
        for p in inst.modulus.factorization.primes:
            omitted = 1
            for l in range(inst.t):
                if l != i:
                    omitted = omitted * pow(inst.generators[l], k[l], p) % p
            if omitted == 1:
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


def _divisors(factors: Sequence[tuple[int, int]], cap: int) -> list[int]:
    """The divisors up to ``cap`` >= 1, ascending, of the number whose
    (prime, exponent) pairs are ``factors``.

    A divisor above the cap is not extended by further prime powers, so
    the work follows the divisors kept rather than all of them.
    """
    out = [1]
    for p, a in factors:
        grown = []
        for d in out:
            for _ in range(a + 1):
                if d > cap:
                    break
                grown.append(d)
                d *= p
        out = grown
    return sorted(out)


# Why generate rejected a draw, in the order the tests run.
REJECTION_STAGES = (
    "modulus",
    "generator",
    "order_product",
    "collapse",
    "peel",
    "independence",
)


def generate(
    seed: int,
    bits: int = 14,
    t: int = 2,
    *,
    require_collapse_resistant: Optional[bool] = None,
    require_peel_resistant: Optional[bool] = None,
    max_order_product: Optional[int] = None,
) -> Instance:
    """Rejection-sample a valid instance, deterministically in ``seed``.

    Constraints may pin the hardness checks either way (True demands the
    check passes, False demands it fails) and bound the product of the
    generator orders. Each attempt runs its tests from the cheapest up and
    stops at the first that rejects it (REJECTION_STAGES): sample a
    modulus, draw t generators of usable order, bound their order product,
    draw the witness, then the collapse and peel constraints, and last the
    independence check. A witness the collapse or peel constraint rejects
    is redrawn, up to WITNESS_DRAWS times, on the same generators; a draft
    that no witness can make peel-resistant gets one draw. The witness is
    the attempt's last random draw, so the order of the tests after it
    does not change which instance a seed gives, and an attempt with
    neither constraint draws one witness. Raises ValueError for a
    constraint no instance can meet, and GenerationFailed, carrying the
    rejected draws by stage, after DEFAULT_MAX_ATTEMPTS attempts.
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
    cap_each = max(3, int(round(bound ** (1.0 / t))) * 2)
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
        if modulus is None:
            rejections["modulus"] += 1
            continue
        n = modulus.n
        gens: list[int] = []
        orders: list[int] = []
        ok = True
        for _ in range(t):
            g = None
            for _ in range(40):
                u = rng.randrange(2, n - 1)
                if math.gcd(u, n) != 1:
                    continue
                factors = order_factors(u, modulus)
                r = math.prod(q**b for q, b in factors)
                # the divisors in [2, cap_each]: all but the leading 1
                opts = _divisors(factors, cap_each)[1:]
                if not opts:
                    continue
                # two draws, keep the larger: biases toward roomier boxes
                d = max(rng.choice(opts), rng.choice(opts))
                cand = pow(u, r // d, n)
                if cand != 1 and cand not in gens:
                    g = cand
                    gens.append(g)
                    orders.append(d)
                    break
            if g is None:
                ok = False
                break
        if not ok:
            rejections["generator"] += 1
            continue
        if math.prod(orders) > bound:
            rejections["order_product"] += 1
            continue
        # At a prime of N where at most one generator is not 1, omitting
        # that one leaves 1, so no witness makes the draft peel-resistant.
        hopeless = require_peel_resistant and any(
            sum(g % p != 1 for g in gens) < 2 for p in modulus.factorization.primes
        )
        for _ in range(1 if hopeless else WITNESS_DRAWS):
            # Each u**(r/d) has order exactly d, so the draft takes the drawn
            # orders; make_instance recomputes them for the accepted one only.
            witness = tuple(rng.randrange(r) for r in orders)
            draft = Instance(
                modulus, tuple(gens), tuple(orders), _eval_product(gens, witness, n), witness
            )
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
        if not subgroup.independence_check(draft.generators, modulus).independent:
            rejections["independence"] += 1
            continue
        inst = make_instance(
            modulus,
            draft.generators,
            witness=draft.witness,
            check_independence=False,
            provenance=provenance,
        )
        if inst.orders != draft.orders:
            raise AssertionError(
                f"drawn orders {draft.orders} differ from the recomputed {inst.orders}"
            )
        return replace(inst, independence_verified=True)
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
