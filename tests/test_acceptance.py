"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Every tolerance and time limit is pinned here.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from mdlp.arith import Modulus, factorize, multiplicative_order, primes_up_to
from mdlp.cli import main
from mdlp.congruence import Congruence, solvable_pair, solve_system, split_exponent
from mdlp.errors import BudgetExceeded, RankDeficient, UnsolvableSystem
from mdlp.indexcalc import dlp_via_index_calculus, relation_rank_demo
from mdlp.instance import (
    check_collapse_resistance,
    generate,
    make_instance,
    verify,
)
from mdlp.solvers import (
    attack_collapse,
    solve,
    solve_dlp,
    solve_exhaustive,
    solve_mitm,
)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= limit_s
    print(
        f"\ncriterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.2f}s, limit {limit_s}s]"
    )
    assert ok, f"criterion {num} exceeded its {limit_s}s limit ({elapsed:.2f}s)"


def cli_lines(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


def test_criterion_01_table_reproduction(capsys):
    with criterion(1, "table reproduction", 1.0):
        code, lines = cli_lines(
            capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
            "--k1-range", "1..4", "--k2-range", "1..3",
        )
        assert code == 0
        data = [l for l in lines if not l.startswith("#")]
        cells = [list(map(int, l.split(",")[1:])) for l in data[1:]]
        assert cells == [[2, 26, 23, 19], [3, 4, 17, 11], [22, 6, 8, 34]]


def test_criterion_02_row_four_divergence(capsys):
    with criterion(2, "row-4 divergence and footnote", 1.0):
        code, lines = cli_lines(
            capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
            "--k1-range", "1..4", "--k2-range", "4..4",
        )
        assert code == 0
        assert lines[1] == "4,33,9,12,16"
        notes = [l for l in lines if l.startswith("# note:")]
        assert notes, "divergence footnote missing"
        assert "reference" in notes[0]


def test_criterion_03_orders_computed_not_trusted():
    with criterion(3, "orders recomputed", 1.0):
        m = Modulus.from_int(35)
        assert multiplicative_order(13, m) == 4
        assert multiplicative_order(19, m) == 6


def test_criterion_04_collapse_attack_end_to_end():
    with criterion(4, "collapse attack on the worked example", 1.0):
        inst = make_instance(35, [13, 19], witness=(3, 1))
        g_all = 13 * 19 % 35
        assert g_all == 2
        order = multiplicative_order(g_all, inst.modulus)
        assert order == 12
        k = solve_dlp(g_all, inst.beta, 35).residue
        assert k == 7
        assert split_exponent(k, inst.orders) == [3, 1]
        sol = attack_collapse(inst)
        assert sol is not None
        assert sol.exponents == (3, 1)
        assert verify(inst, sol.exponents)


def test_criterion_05_crt_property_suite():
    with criterion(5, "CRT pairs vs exhaustive scan, 1000 cases", 30.0):
        rng = random.Random(505)
        for _ in range(1000):
            m1 = rng.randrange(1, 10_001)
            m2 = rng.randrange(1, 10_001)
            c1 = Congruence(rng.randrange(m1), m1)
            c2 = Congruence(rng.randrange(m2), m2)
            g = math.gcd(m1, m2)
            lcm = m1 // g * m2
            expect = (c1.residue - c2.residue) % g == 0
            assert solvable_pair(c1, c2) == expect
            # exhaustive over [0, lcm): every candidate satisfying the
            # first congruence, checked against the second
            found = [
                x for x in range(c1.residue, lcm, m1) if x % m2 == c2.residue
            ]
            if expect:
                sol = solve_system([c1, c2])
                assert sol.modulus == lcm
                assert found == [sol.residue]
            else:
                assert found == []
                with pytest.raises(UnsolvableSystem):
                    solve_system([c1, c2])


def _box_enumeration(inst):
    """Plain nested enumeration of the whole exponent box (test oracle)."""
    n = inst.n
    tables = []
    for g, r in zip(inst.generators, inst.orders):
        row = [1] * r
        for e in range(1, r):
            row[e] = row[e - 1] * g % n
        tables.append(row)
    hits = []
    stack = [(0, 1, ())]
    while stack:
        i, acc, exps = stack.pop()
        if i == inst.t:
            if acc == inst.beta:
                hits.append(exps)
            continue
        for e in range(inst.orders[i] - 1, -1, -1):
            stack.append((i + 1, acc * tables[i][e] % n, exps + (e,)))
    return sorted(hits)


def test_criterion_06_uniqueness_and_nondegeneracy():
    with criterion(6, "uniqueness + non-degeneracy, 100 instances", 60.0):
        for i in range(100):
            t = 2 + (i % 2)
            inst = generate(60_000 + i, bits=12 + (i % 4), t=t,
                            max_order_product=10_000)
            assert inst.independence_verified
            assert math.prod(inst.orders) <= 10_000
            hits = _box_enumeration(inst)
            assert hits == [inst.witness]
            # no (t-1)-subset representation when the omitted k_i != 0
            for drop in range(inst.t):
                if inst.witness[drop] == 0:
                    continue
                kept = [j for j in range(inst.t) if j != drop]
                sub = make_instance(
                    inst.modulus,
                    [inst.generators[j] for j in kept],
                    beta=inst.beta,
                    check_independence=False,
                )
                assert _box_enumeration(sub) == []


def test_criterion_07_diagonal_count_identity():
    with criterion(7, "diagonal tuple count equals lcm, 50 instances", 30.0):
        for i in range(50):
            inst = generate(70_000 + i, bits=12 + (i % 4), t=2 + (i % 2),
                            max_order_product=20_000)
            lcm = math.lcm(*inst.orders)
            diagonal = {
                tuple(split_exponent(k, inst.orders)) for k in range(lcm)
            }
            assert len(diagonal) == lcm
            box = math.prod(inst.orders)
            assert box - lcm == box - len(diagonal)


def test_criterion_08_solver_cross_agreement():
    with criterion(8, "exhaustive = mitm = auto, 100 instances", 120.0):
        for i in range(100):
            t = (i % 3) + 1
            bits = 12 + (i % 8)
            inst = generate(80_000 + i, bits=bits, t=t, max_order_product=100_000)
            assert inst.n < 10**6
            assert math.prod(inst.orders) <= 10**5
            ex = solve_exhaustive(inst)
            mm = solve_mitm(inst)
            auto = solve(inst, "auto")
            assert ex is not None and mm is not None and auto is not None
            assert ex.exponents == mm.exponents
            assert verify(inst, ex.exponents)
            assert verify(inst, auto.exponents)


def test_criterion_09_index_calculus_vs_oracle():
    with criterion(9, "index calculus vs BSGS oracle, 50 tasks", 120.0):
        rng = random.Random(909)
        primes = [p for p in primes_up_to(100_000) if p > 1_000]

        def primitive_root(p):
            qs = [q for q, _ in factorize(p - 1)]
            for g in range(2, p):
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
                    return g

        successes = 0
        for i in range(50):
            p = rng.choice(primes)
            alpha = primitive_root(p)
            x = rng.randrange(1, p - 1)
            beta = pow(alpha, x, p)
            try:
                got = dlp_via_index_calculus(p, alpha, beta, bound=50, seed=i)
            except (BudgetExceeded, RankDeficient):
                continue
            successes += 1
            oracle = solve_dlp(alpha, beta, p).residue
            assert got == oracle, f"disagreement at p={p}"
        assert successes >= 45, f"only {successes}/50 tasks succeeded"


def test_criterion_10_rank_demonstrator():
    with criterion(10, "equation proportionality, 20 base pairs", 60.0):
        rng = random.Random(1010)
        primes = [p for p in primes_up_to(10_000) if p > 100]

        def primitive_root(p):
            qs = [q for q, _ in factorize(p - 1)]
            for g in range(2, p):
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
                    return g

        for _ in range(20):
            p = rng.choice(primes)
            alpha = primitive_root(p)
            u = rng.randrange(1, p - 1)
            while math.gcd(u, p - 1) != 1:
                u = rng.randrange(1, p - 1)
            alpha2 = pow(alpha, u, p)
            gens = [pow(alpha, rng.randrange(1, p - 1), p) for _ in range(2)]
            beta = gens[0] * pow(gens[1], rng.randrange(1, 50), p) % p
            rep = relation_rank_demo(p, [alpha, alpha2], gens, beta)
            assert rep.equal_orders
            assert rep.proportional
            assert rep.factors[1] == solve_dlp(alpha, alpha2, p).residue
            assert all(rank <= 1 for rank in rep.ranks.values())


def test_criterion_11_collapse_equivalence():
    with criterion(11, "attack applicability = check failure, 200 instances", 60.0):
        resistant_seen = vulnerable_seen = 0
        for i in range(200):
            inst = generate(110_000 + i, bits=12 + (i % 4), t=(i % 3) + 1,
                            max_order_product=20_000)
            applicable = attack_collapse(inst) is not None
            resistant = check_collapse_resistance(inst).resistant
            assert applicable == (not resistant)
            resistant_seen += resistant
            vulnerable_seen += not resistant
        assert resistant_seen > 0 and vulnerable_seen > 0
