"""Differential tests of the exponent-box walks against brute force.

The oracle walks ``itertools.product`` over the box in lexicographic order,
one tuple at a time, which is the order every solver's exponents and work
count are defined by. Instances are built without the independence check,
so many hold several solutions (or none), and generators of order 1 are
common.
"""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlp import solvers
from mdlp.arith import Factorization, is_probable_prime
from mdlp.congruence import Congruence, solve_system
from mdlp.instance import make_instance
from mdlp.errors import BudgetExceeded, IndependenceViolation
from mdlp.solvers import attack_peel, solve, solve_exhaustive, solve_mitm
from mdlp.subgroup import independence_check

# Pairwise coprime components of each modulus: squarefree N, prime-power
# factors and even N with its non-cyclic 2-part.
MODULI = ((5, 7, 11), (3, 8, 5), (9, 7, 13), (4, 25), (16, 3, 7), (101,), (3, 5, 7, 11, 13))
MAX_BOX = 2000

EDGE_CASES = (
    make_instance(35, [13, 19], witness=(3, 1)),
    make_instance(35, [1], beta=1),
    make_instance(35, [13, 1], witness=(2, 0)),
    make_instance(35, [1, 1, 1, 1], beta=1),
    make_instance(35, [13, 29], beta=27, check_independence=False),
    make_instance(35, [13, 13, 19], beta=19, check_independence=False),
    make_instance(35, [13], beta=19),
    # beta**4 = 1 = 13**4, yet -1 is not a power of 13: a miss at a level
    make_instance(35, [13], beta=34),
    make_instance(35, [1, 1], beta=13),
    # 3 = 2**0 * 3**1 lies in H = <2, 3>, yet the dependent pair misses a level
    make_instance(35, [2, 3], witness=(0, 1), check_independence=False),
)


def _units(m: int) -> list[int]:
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


@st.composite
def instances(draw):
    """An instance with a box of at most MAX_BOX tuples.

    Each generator is put together component by component, and each
    component residue is 1 about half the time, so order-1 generators,
    dependent generators and primes where the peel attack applies are all
    frequent. Beta is either a product of drawn exponents or a drawn unit.
    """
    parts = draw(st.sampled_from(MODULI))
    n = math.prod(parts)
    t = draw(st.integers(1, 4))
    gens = []
    for _ in range(t):
        residues = [draw(st.one_of(st.just(1), st.sampled_from(_units(m)))) for m in parts]
        gens.append(solve_system([Congruence(x, m) for x, m in zip(residues, parts)]).residue)
    orders = make_instance(n, gens, beta=1, check_independence=False).orders
    while math.prod(orders) > MAX_BOX:
        gens.pop()
        orders = orders[:-1]
    if draw(st.booleans()):
        witness = [draw(st.integers(0, r - 1)) for r in orders]
        return make_instance(n, gens, witness=witness, check_independence=False)
    beta = draw(st.integers(1, n - 1).filter(lambda b: math.gcd(b, n) == 1))
    return make_instance(n, gens, beta=beta, check_independence=False)


def differential(*extra):
    """Run a test on EDGE_CASES and on drawn instances, reproducibly.

    Each of ``extra`` is a (strategy, edge-case value) pair for one more
    argument after the instance.
    """

    def wrap(test):
        for inst in EDGE_CASES:
            test = example(inst, *(value for _, value in extra))(test)
        drawn = given(instances(), *(strategy for strategy, _ in extra))
        return settings(max_examples=100, deadline=None, derandomize=True)(drawn(test))

    return wrap


def _gives_beta(inst, exponents) -> bool:
    acc = 1
    for g, k in zip(inst.generators, exponents):
        acc = acc * pow(g, k, inst.n) % inst.n
    return acc == inst.beta


def _lexicographic_hits(inst, box):
    """(1-based position, tuple) of every box tuple giving beta, in order."""
    return [
        (pos, ks)
        for pos, ks in enumerate(itertools.product(*box), start=1)
        if _gives_beta(inst, ks)
    ]


def _full_box(inst):
    return [range(r) for r in inst.orders]


@differential()
def test_exhaustive_matches_oracle(inst):
    hits = _lexicographic_hits(inst, _full_box(inst))
    sol = solve_exhaustive(inst)
    if not hits:
        assert sol is None
    else:
        assert (sol.work, sol.exponents) == hits[0]


@differential((st.integers(1, 100), MAX_BOX))
# r1 * r2 = 24 > cap >= r3 = 2: the table spans only the last generator
@example(make_instance(35, [13, 19, 29], witness=(3, 1, 1), check_independence=False), 2)
def test_mitm_matches_oracle(inst, memory_cap):
    h = (inst.t + 1) // 2
    if math.prod(inst.orders[h:]) > memory_cap:
        with mock.patch.object(solvers, "DEFAULT_MEMORY_CAP", memory_cap), \
                pytest.raises(BudgetExceeded):
            solve_mitm(inst)
        return
    hits = _lexicographic_hits(inst, _full_box(inst))
    with mock.patch.object(solvers, "DEFAULT_MEMORY_CAP", memory_cap):
        sol = solve_mitm(inst)
    if not hits:
        assert sol is None
    else:
        assert sol.exponents == hits[0][1]
        assert sol.work == math.prod(inst.orders[:h]) + math.prod(inst.orders[h:])


@differential()
def test_auto_matches_oracle(inst):
    # A hit gives beta whatever the generators; a miss proves beta outside
    # H only for independent ones, so on a dependent set auto raises
    # instead of reporting it. Independent generators give beta at most one
    # tuple of the box.
    hits = [ks for _, ks in _lexicographic_hits(inst, _full_box(inst))]
    independent = independence_check(inst.generators, inst.modulus).independent
    try:
        sol = solve(inst, "auto")
    except IndependenceViolation:
        assert not independent
        return
    if not hits:
        assert sol is None
    else:
        assert sol.exponents in hits
        assert not independent or len(hits) == 1


@differential()
def test_peel_matches_oracle(inst):
    dlp_work = [0]
    real_solve_dlp = solvers.solve_dlp

    def counted(base, target, modulus, ops):
        before = ops[0]
        x = real_solve_dlp(base, target, modulus, ops)
        dlp_work[0] += ops[0] - before
        return x

    with mock.patch.object(solvers, "solve_dlp", counted):
        res = attack_peel(inst)
    if res.status == "not-applicable":
        assert res.work == dlp_work[0]
        return
    assert res.status in ("solved", "not-found")
    # Every solution satisfies the leaked congruences, so the reduced box
    # holds the lexicographically smallest solution of the full box.
    box = [
        range(res.congruences[i].residue, r, res.congruences[i].modulus)
        if i in res.congruences
        else range(r)
        for i, r in enumerate(inst.orders)
    ]
    hits = _lexicographic_hits(inst, box)
    full = _lexicographic_hits(inst, _full_box(inst))
    if not hits:
        assert full == []
        assert res.status == "not-found" and res.solution is None
        assert res.work == dlp_work[0] + math.prod(len(ks) for ks in box)
    else:
        assert hits[0][1] == full[0][1]
        assert res.status == "solved"
        assert res.solution.exponents == hits[0][1]
        assert res.work == res.solution.work == dlp_work[0] + hits[0][0]


# ---------------------------------------------------------------------------
# A multi-digit modulus: N = the product of WIDE_PRIMES has 81 bits, so every
# product the scans form is a multi-digit int.

# Each prime is 1 mod 420, so every order from 2 to 7 occurs mod each.
WIDE_PRIMES = (1050421, 1053361, 1054201, 1054621)
P1, P2, P3, P4 = WIDE_PRIMES
# Row i maps a prime to the order of g_i mod it (1 at the primes left out).
# Every prime holds coprime orders, so the generators are independent and
# each beta has one tuple. The peel attack pins k_0 mod 4 at P1, and k_3
# (t = 4) or k_2 (t = 3) at P4; nothing else is alone at a prime.
WIDE_T4 = ({P1: 4, P2: 3}, {P2: 5, P3: 3}, {P3: 7}, {P4: 6})  # orders 12, 15, 7, 6
WIDE_T3 = ({P1: 4, P2: 3}, {P2: 5, P3: 3}, {P3: 7, P4: 2})  # orders 12, 15, 14
WIDE_CASES = (
    (WIDE_T4, (0, 0, 0, 0)),  # first box position
    (WIDE_T4, (5, 7, 6, 2)),  # last of an exhaustive walked row (axis 2)
    (WIDE_T4, (5, 14, 3, 2)),  # last of a MITM walked row (axis 1)
    (WIDE_T4, (1, 0, 0, 5)),  # just past a prefix boundary, exhaustive and MITM
    (WIDE_T4, (11, 14, 6, 5)),  # last box position
    (WIDE_T4, None),  # beta has order 7 mod P2, outside the span
    (WIDE_T3, (0, 0, 0)),
    (WIDE_T3, (4, 14, 9)),  # last of the walked row (axis 1)
    (WIDE_T3, (1, 0, 3)),  # just past a prefix boundary
    (WIDE_T3, (11, 14, 13)),
    (WIDE_T3[:2], (7, 3)),
    (WIDE_T3[:2], (11, 14)),  # last box position, last of the walked row
    (WIDE_T3[:1], (0,)),
    (WIDE_T3[:1], (11,)),
)


def _element_of_order(o: int, p: int) -> int:
    """The first x**((p-1)/o) mod p, x = 2, 3, ..., of order exactly o."""
    primes = [q for q in range(2, o + 1) if o % q == 0 and all(q % s for s in range(2, q))]
    for x in itertools.count(2):
        c = pow(x, (p - 1) // o, p)
        if all(pow(c, o // q, p) != 1 for q in primes):
            return c


def _wide_element(row) -> int:
    """The unit mod N whose order mod each prime of WIDE_PRIMES is row.get(p, 1)."""
    parts = [Congruence(_element_of_order(row.get(p, 1), p), p) for p in WIDE_PRIMES]
    return solve_system(parts).residue


def _wide_instance(gens, witness):
    """An instance over WIDE_PRIMES; no witness plants a beta that is 1
    mod P1 and P4, where the peel attack applies, and has order 7 mod P2."""
    mod = Factorization(tuple((p, 1) for p in WIDE_PRIMES))
    if witness is None:
        return make_instance(mod, gens, beta=_wide_element({P2: 7}), check_independence=False)
    return make_instance(mod, gens, witness=witness, check_independence=False)


def _counted_peel(inst):
    """attack_peel's result and the group operations of its local DLPs."""
    dlp_work = [0]
    real_solve_dlp = solvers.solve_dlp

    def counted(base, target, modulus, ops):
        before = ops[0]
        x = real_solve_dlp(base, target, modulus, ops)
        dlp_work[0] += ops[0] - before
        return x

    with mock.patch.object(solvers, "solve_dlp", counted):
        return attack_peel(inst), dlp_work[0]


def test_wide_primes_are_prime():
    assert all(is_probable_prime(p) and p % 420 == 1 for p in WIDE_PRIMES)


@pytest.mark.parametrize("layout, witness", WIDE_CASES)
def test_multi_digit_modulus_matches_oracle(layout, witness):
    inst = _wide_instance([_wide_element(row) for row in layout], witness)
    assert inst.n.bit_length() == 81
    hits = _lexicographic_hits(inst, _full_box(inst))
    assert [ks for _, ks in hits] == ([] if witness is None else [witness])

    sol, mitm = solve_exhaustive(inst), solve_mitm(inst)
    h = (inst.t + 1) // 2
    if witness is None:
        assert sol is None and mitm is None
    else:
        assert (sol.work, sol.exponents) == hits[0]
        assert mitm.exponents == witness
        assert mitm.work == math.prod(inst.orders[:h]) + math.prod(inst.orders[h:])

    res, dlp_work = _counted_peel(inst)
    assert 0 in res.congruences and res.congruences[0].modulus in (4, 12)
    box = [
        range(res.congruences[i].residue, r, res.congruences[i].modulus)
        if i in res.congruences
        else range(r)
        for i, r in enumerate(inst.orders)
    ]
    peel_hits = _lexicographic_hits(inst, box)
    if witness is None:
        assert peel_hits == [] and res.status == "not-found"
        assert res.work == dlp_work + math.prod(len(ks) for ks in box)
    else:
        assert [ks for _, ks in peel_hits] == [witness]
        assert res.status == "solved" and res.solution.exponents == witness
        assert res.work == res.solution.work == dlp_work + peel_hits[0][0]


# ---------------------------------------------------------------------------
# Edge cases of the lazy walk


def test_peel_walk_steps_a_strided_pinned_axis():
    # k_1 is pinned mod 4 at P1, where g_1 is alone, and ord(g_1) = 20, so
    # the last walked axis of the peel box is range(3, 20, 4): it starts
    # past 0 and steps by 4, and the hit is its fourth entry.
    layout = ({P2: 3, P3: 2}, {P1: 4, P2: 5}, {P3: 7})  # orders 6, 20, 7
    inst = _wide_instance([_wide_element(row) for row in layout], (4, 15, 5))
    res, dlp_work = _counted_peel(inst)
    assert set(res.congruences) == {1} and res.congruences[1] == Congruence(3, 4)
    box = [range(6), range(3, 20, 4), range(7)]
    hits = _lexicographic_hits(inst, box)
    assert [ks for _, ks in hits] == [(4, 15, 5)]
    assert res.solution.exponents == (4, 15, 5)
    assert res.work == dlp_work + hits[0][0]


def test_mitm_table_keeps_the_first_position_of_a_repeated_value():
    # g_3 = g_2**2, so the MITM table over (k_2, k_3) holds g_2**(k_2 + 2 k_3)
    # at several positions; the first one holds the smallest tuple.
    g0, g1, g2 = (_wide_element(row) for row in ({P1: 4}, {P2: 5}, {P3: 7}))
    inst = _wide_instance([g0, g1, g2, pow(g2, 2, math.prod(WIDE_PRIMES))], (2, 3, 6, 6))
    hits = _lexicographic_hits(inst, _full_box(inst))
    assert len(hits) == 7 and hits[0][1] == (2, 3, 0, 2)
    assert solve_mitm(inst).exponents == hits[0][1]
    sol = solve_exhaustive(inst)
    assert (sol.work, sol.exponents) == hits[0]
