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
from mdlp.congruence import Congruence, solve_system
from mdlp.instance import make_instance
from mdlp.errors import BudgetExceeded
from mdlp.solvers import attack_peel, solve_exhaustive, solve_mitm

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
