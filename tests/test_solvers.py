import ast
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import mdlp
from mdlp import arith, solvers, subgroup
from mdlp.arith import Factorization, Modulus
from mdlp.congruence import Congruence, solve_system
from mdlp.errors import BudgetExceeded, IndependenceViolation
from mdlp.instance import generate, make_instance, verify
from mdlp.solvers import (
    attack_collapse,
    attack_peel,
    solve,
    solve_dlp,
    solve_exhaustive,
    solve_mitm,
)


@pytest.fixture
def worked_example():
    return make_instance(35, [13, 19], witness=(3, 1))


def peelable_instance():
    """Two generators living in disjoint prime components of N = 5*7*11.

    g1 is 1 mod 35 and of order 10 mod 11; g2 is 1 mod 11 and of order 12
    mod 35. By construction every prime of N sees all but one generator as
    1, so the peel attack applies at each of them.
    """
    n = 5 * 7 * 11
    g1 = solve_system([Congruence(1, 35), Congruence(2, 11)]).residue
    g2 = solve_system([Congruence(3, 35), Congruence(1, 11)]).residue
    return make_instance(n, [g1, g2], witness=(7, 5))


class TestSolveDlp:
    def test_hand_example(self):
        assert solve_dlp(2, 23, 35) == Congruence(7, 12)

    def test_base_itself(self):
        assert solve_dlp(13, 13, 35).residue == 1

    def test_not_in_subgroup(self):
        assert solve_dlp(13, 19, 35) is None

    def test_identity_target(self):
        assert solve_dlp(13, 1, 35).residue == 0

    def test_normalization(self):
        assert solve_dlp(13 + 35, 29 + 70, 35) == solve_dlp(13, 29, 35) == Congruence(2, 4)

    def test_base_one(self):
        # order 1: the empty system, whose one class is 0 mod 1
        assert solve_dlp(1, 1, 35) == Congruence(0, 1)
        assert solve_dlp(1, 13, 35) is None

    def test_base_minus_one(self):
        assert solve_dlp(34, 34, 35) == Congruence(1, 2)
        assert solve_dlp(34, 1, 35) == Congruence(0, 2)
        assert solve_dlp(34, 13, 35) is None

    def test_agrees_with_naive_scan(self):
        # One target through solve_dlp, then a batch of targets in one call
        # of the Pohlig-Hellman routine that solve_dlp runs on.
        rng = random.Random(61)
        done = 0
        while done < 1000:
            n = rng.randrange(3, 10_001)
            g = rng.randrange(2, n)
            if math.gcd(g, n) != 1:
                continue
            target = rng.randrange(1, n)
            got = solve_dlp(g, target, n)
            naive = {}  # g**x -> x over one cycle of g
            cur = 1
            while cur not in naive:
                naive[cur] = len(naive)
                cur = cur * g % n
            if target in naive:
                assert got == Congruence(naive[target], len(naive))
            else:
                assert got is None
            batch = [target, 1, g, n - 1, target * g % n, target * target % n]
            logs = arith._pohlig_hellman([g], [arith.order_factors(g, n)], batch, n, [0])
            assert logs == [None if y not in naive else [naive[y]] for y in batch]
            done += 1

    def test_large_smooth_order(self):
        # 3 is a primitive root mod 2**16 + 1
        p = 65537
        assert solve_dlp(3, pow(3, 12345, p), p) == Congruence(12345, p - 1)

    def test_work_counts_are_pinned(self):
        # Exact group-operation counts: m baby steps per table, one table
        # per prime q of the order, m = isqrt(q - 1) + 1; per digit, 2 to
        # strip and shift plus the giant steps up to the hit (m on a miss).
        cases = [
            (2, 23, 35, Congruence(7, 12), 13),
            (13, 19, 35, None, 6),
            (1, 13, 35, None, 0),
            (3, pow(3, 12345, 65537), 65537, Congruence(12345, 65536), 50),
            # 3**5 divides 486: five digits of one prime power
            (3, pow(3, 400, 487), 487, Congruence(400, 486), 24),
            (5, pow(5, 777777, 1048583), 1048583, Congruence(777777, 1048582), 57),
        ]
        for base, target, modulus, log, work in cases:
            ops = [0]
            assert solve_dlp(base, target, modulus, ops) == log
            assert ops[0] == work, (base, target, modulus)
        assert attack_collapse(make_instance(35, [13, 19], witness=(3, 1))).work == 13
        assert attack_collapse(peelable_instance()).work == 20

    def test_one_table_per_prime(self):
        # A baby-step table is built once per prime of the base's order and
        # serves every digit and every target of the call.
        tables, walks = [], []
        build = arith._box_walker

        def counted(gens, box, n, split):
            tables.append(len(box[split]))
            walk = build(gens, box, n, split)
            return lambda beta: walks.append(beta) or walk(beta)

        with mock.patch.object(arith, "_box_walker", counted):
            # 9 has order 3**5 mod 487: five digits on one table
            assert arith._pohlig_hellman([9], [((3, 5),)], [pow(9, 200, 487)], 487, [0]) == [[200]]
            assert (len(tables), len(walks)) == (1, 5)
            # One table per cyclic factor of the 3-Sylow subgroup of Z_1729*
            # (1729 = 7 * 13 * 19), for a row of four generators; the factor
            # of order 9 at 19 takes two digits per generator.
            tables.clear()
            walks.clear()
            rows = subgroup._sylow_rows([2, 3, 5, 10], Modulus.from_int(1729), 3, 2)
            assert len(tables) == len(rows) == 3
            assert len(walks) == 4 * (1 + 1 + 2)
            # A miss at the first prime builds no table at a later one:
            # 2 has order 12 mod 35, and 19 misses at q = 2.
            tables.clear()
            assert solve_dlp(2, 19, 35) is None
            assert tables == [2]
            assert solve_dlp(2, 23, 35) == Congruence(7, 12)
            assert tables == [2, 2, 2]
            # Several generators: 27 and 31 have order 4 mod 65 (27 at 5, 31
            # at 13), so both are active at both levels of q = 2, and one
            # table of m**2 = 4 entries serves the two levels of two targets.
            tables.clear()
            walks.clear()
            targets = [pow(27, 3, 65) * 31 % 65, 27 * pow(31, 2, 65) % 65]
            logs = arith._pohlig_hellman([27, 31], [((2, 2),)] * 2, targets, 65, [0])
            assert logs == [[3, 1], [1, 2]]
            assert (tables, len(walks)) == ([2], 4)

    def test_order_is_not_factored(self):
        # With lambda(N) cached on the Modulus, ord(base) is read off its
        # primes. The profile hook sees factorize under any name it was
        # imported as.
        inst = make_instance(35, [13, 19], witness=(3, 1))
        inst.modulus.carmichael_factorization
        factored = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is arith.factorize.__code__:
                factored.append(frame.f_locals["n"])

        sys.setprofile(profile)
        try:
            assert solve_dlp(2, 23, inst.modulus) == Congruence(7, 12)
            assert attack_collapse(inst).exponents == (3, 1)
        finally:
            sys.setprofile(None)
        assert factored == []


class TestSolveExhaustive:
    def test_worked_example(self, worked_example):
        sol = solve_exhaustive(worked_example)
        assert sol.exponents == (3, 1)
        assert sol.method == "exhaustive"

    def test_identity_beta(self):
        inst = make_instance(35, [13, 19], beta=1)
        assert solve_exhaustive(inst).exponents == (0, 0)

    def test_other_published_cell(self):
        inst = make_instance(35, [13, 19], beta=22)
        assert solve_exhaustive(inst).exponents == (1, 3)

    def test_work_bounded_by_box(self, worked_example):
        sol = solve_exhaustive(worked_example)
        assert sol.work <= math.prod(worked_example.orders)

    def test_not_found_outside_span(self):
        inst = make_instance(35, [13], beta=19)
        assert solve_exhaustive(inst) is None

    def test_budget(self, worked_example):
        with pytest.raises(BudgetExceeded):
            solve_exhaustive(worked_example, budget=10)


class TestSolveMitm:
    def test_worked_example(self, worked_example):
        sol = solve_mitm(worked_example)
        assert sol.exponents == (3, 1)
        assert sol.method == "mitm"

    def test_single_generator_degenerates_to_dlp(self):
        inst = make_instance(35, [13], beta=29)
        got = solve_mitm(inst)
        x = solve_dlp(13, 29, 35).residue
        assert got.exponents == (x,)

    def test_not_found(self):
        inst = make_instance(35, [13], beta=19)
        assert solve_mitm(inst) is None

    def test_memory_cap(self, worked_example):
        with pytest.raises(BudgetExceeded):
            with mock.patch.object(solvers, "DEFAULT_MEMORY_CAP", 2):
                solve_mitm(worked_example)

    def test_agrees_with_exhaustive_on_random_instances(self):
        for i in range(100):
            inst = generate(20_000 + i, bits=12 + i % 4, t=(i % 3) + 1,
                            max_order_product=4000)
            ex = solve_exhaustive(inst)
            mm = solve_mitm(inst)
            assert ex is not None and mm is not None
            assert ex.exponents == mm.exponents

    def test_agrees_on_dependent_generators_too(self):
        # without independence the witness is not unique; both scans must
        # still pick the same lexicographically-smallest tuple
        inst = make_instance(35, [13, 29], beta=27, check_independence=False)
        ex = solve_exhaustive(inst)
        mm = solve_mitm(inst)
        assert ex.exponents == mm.exponents


class TestAttackCollapse:
    def test_worked_example_end_to_end(self, worked_example):
        sol = attack_collapse(worked_example)
        assert sol.exponents == (3, 1)
        assert sol.method == "collapse"
        # the underlying single DLP: product generator is 2, order 12, k = 7
        g_all = 13 * 19 % 35
        assert g_all == 2
        assert solve_dlp(g_all, 23, 35).residue == 7

    def test_not_applicable_when_resistant(self):
        inst = make_instance(35, [13, 19], witness=(1, 0))
        assert attack_collapse(inst) is None
        # double-check: no power of the product generator hits beta
        g_all = 2
        assert all(pow(g_all, k, 35) != inst.beta for k in range(12))

    def test_single_generator_is_plain_dlp(self):
        inst = make_instance(35, [13], beta=29)
        sol = attack_collapse(inst)
        assert sol.exponents == (solve_dlp(13, 29, 35).residue,)
        assert sol.method == "single-dlp"

    def test_equivalence_with_collapse_check(self):
        from mdlp.instance import check_collapse_resistance

        for i in range(60):
            inst = generate(30_000 + i, bits=12, t=2, max_order_product=4000)
            applicable = attack_collapse(inst) is not None
            assert applicable == (not check_collapse_resistance(inst).resistant)


class TestAttackPeel:
    def test_structural_instance_recovers_witness(self):
        inst = peelable_instance()
        res = attack_peel(inst)
        assert res.status == "solved"
        assert res.solution.exponents == inst.witness
        assert res.solution.method == "peel+recurse"
        # leaked residue agrees with the witness mod the local order
        for i, crt in res.congruences.items():
            assert inst.witness[i] % crt.modulus == crt.residue

    def test_not_applicable_on_worked_example(self, worked_example):
        assert attack_peel(worked_example).status == "not-applicable"

    def test_single_generator_prime_modulus(self):
        # t = 1 over prime N: the vacuous premise reduces it to one DLP
        inst = make_instance(101, [2], witness=(37,))
        res = attack_peel(inst)
        assert res.status == "solved"
        assert res.solution.exponents == (37,)

    def test_partial_when_budget_blocks_enumeration(self):
        # The leaked congruences leave a box of 1 tuple; over budget the
        # attack raises rather than reporting the congruences alone.
        inst = peelable_instance()
        with pytest.raises(BudgetExceeded, match="peel box of 1 tuples exceeds budget 0"):
            attack_peel(inst, budget=0)
        assert attack_peel(inst, budget=1).status == "solved"

    def test_solve_peel_over_budget_raises(self):
        # over budget is not "not found": None would read as a definite miss
        inst = peelable_instance()
        with pytest.raises(BudgetExceeded, match="peel box of 1 tuples exceeds budget 0"):
            solve(inst, "peel", budget=0)

    def test_known_prime_is_not_factored_again(self):
        inst = peelable_instance()
        real = arith.factorize

        def guarded(n, *args, **kwargs):
            if n in inst.modulus.factorization.primes:
                raise AssertionError(f"prime {n} factored again")
            return real(n, *args, **kwargs)

        with mock.patch.object(arith, "factorize", guarded):
            assert attack_peel(inst).solution.exponents == inst.witness

    def test_default_budget_is_the_search_budget(self):
        # g1 is 2 mod 11 and 1 mod p; g2 and g3 are 1 mod 11 and of the
        # coprime orders 1499 and 1511 mod p = 1 + 12 * 1499 * 1511. Peel
        # pins k1 alone and leaves 1499 * 1511 = 2,264,989 tuples, above
        # 10**6 and within DEFAULT_SEARCH_BUDGET; the hit is in row 1.
        p = 27_179_869
        g1 = solve_system([Congruence(2, 11), Congruence(1, p)]).residue
        g2, g3 = (
            solve_system([Congruence(1, 11), Congruence(pow(2, (p - 1) // r, p), p)]).residue
            for r in (1499, 1511)
        )
        inst = make_instance(11 * p, [g1, g2, g3], witness=(7, 1, 5))
        assert inst.orders == (10, 1499, 1511)
        res = attack_peel(inst)
        assert res.status == "solved"
        assert res.solution.exponents == inst.witness
        assert solve(inst, "peel") == res.solution

    def test_not_found_outside_span(self):
        # beta = 19 is not in <13>; the leaked congruences cover [0, 4)
        inst = make_instance(35, [13], beta=19)
        res = attack_peel(inst)
        assert res.status in ("not-found", "not-applicable")
        assert res.solution is None


class TestOrchestrator:
    def test_auto_prefers_collapse(self, worked_example):
        # auto is the Pohlig-Hellman routine inside H, on the collapsible
        # worked example too: orders 4 and 6, tables of 2, 4 and 2 entries,
        # three levels of 2 operations and one giant step each, and the
        # powering by L = 12.
        sol = solve(worked_example, "auto")
        assert sol.method == "sylow"
        assert sol.exponents == (3, 1)
        assert sol.work == 18

    def test_auto_on_collapse_resistant_instance(self):
        inst = make_instance(35, [13, 19], witness=(1, 0))
        sol = solve(inst, "auto")
        assert sol is not None
        assert sol.exponents == solve_exhaustive(inst).exponents

    def test_not_found_everywhere(self):
        inst = make_instance(35, [13], beta=19)
        assert solve(inst, "auto") is None
        assert solve(inst, "exhaustive") is None
        assert solve(inst, "mitm") is None
        assert solve(inst, "collapse") is None
        assert solve(inst, "peel") is None

    def test_named_strategies(self, worked_example):
        for name in ("exhaustive", "mitm", "collapse"):
            assert solve(worked_example, name).exponents == (3, 1)

    def test_unknown_strategy(self, worked_example):
        with pytest.raises(ValueError):
            solve(worked_example, "quantum")

    def test_all_methods_exhausted(self):
        # Over budget, auto raises BudgetExceeded before building a table.
        inst = make_instance(35, [13, 19], witness=(1, 0))
        with pytest.raises(BudgetExceeded, match="exceeds budget 1"):
            solve(inst, "auto", budget=1)

    def test_auto_charges_its_worst_case_before_any_table(self, worked_example):
        # Orders 4 and 6, m = 2: at q = 2 the tables of 2 and 4 entries and
        # two levels of 2 + 2 and 2 + 4; at q = 3 one table of 2 and one
        # level of 2 + 2; plus the powering by lcm = 12: 23 in all. The
        # resistant instance has the same orders, and neither collapse nor
        # peel applies to it.
        assert solve(worked_example, "auto", budget=23).work == 18
        resistant = make_instance(35, [13, 19], witness=(1, 0))
        with pytest.raises(BudgetExceeded, match="sylow work of 23 operations exceeds budget 22"):
            solve(resistant, "auto", budget=22)
        with mock.patch.object(solvers, "DEFAULT_MEMORY_CAP", 3), \
                pytest.raises(BudgetExceeded, match="sylow table of 4 entries exceeds cap 3"):
            solve(resistant, "auto")

    def test_auto_tries_collapse_and_peel_when_over_budget(self, worked_example):
        sol = solve(worked_example, "auto", budget=22)
        assert (sol.method, sol.exponents) == ("collapse", (3, 1))
        with mock.patch.object(solvers, "DEFAULT_MEMORY_CAP", 3):
            assert solve(worked_example, "auto").method == "collapse"
        # Their one-generator tables must fit the cap too. Every log to 4,
        # of prime order q = (p - 1)/2, needs isqrt(q - 1) + 1 entries.
        big = make_instance(Factorization(((70368744181907, 1),)), [4], witness=(123456789,))
        with mock.patch.object(solvers, "attack_collapse", side_effect=AssertionError), \
                pytest.raises(BudgetExceeded, match="sylow table of 5931642 entries exceeds cap"):
            solve(big, "auto")
        # 7 - 4 is odd and gcd(10, 12) = 2: collapse does not apply, peel
        # does, and leaves one tuple (peelable_instance with k2 = 4)
        peelable = make_instance(385, [211, 353], witness=(7, 4))
        sol = solve(peelable, "auto", budget=1)
        assert (sol.method, sol.exponents) == ("peel+recurse", (7, 4))
        # A peel scan that finds nothing is a proof. beta = 276 is 1 mod 11
        # and 31 mod 35, outside <3>, so outside H though beta**60 = 1. Its
        # residues at 5 and 7 conflict and pin nothing; peel scans the 12
        # tuples with k1 = 0 (from 11), under a budget the routine's 31 is over.
        outside = make_instance(385, [211, 353], beta=276)
        assert solve(outside, "exhaustive") is None
        assert attack_peel(outside).status == "not-found"
        assert solve(outside, "auto", budget=12) is None

    def test_auto_checks_independence_only_after_a_miss(self):
        # 29 = 13**2, so the unchecked pair is dependent and H = <13>. A hit
        # gives beta whatever the generators: 27 = 13 * 29 needs no check.
        # 34 = -1 has 34**4 = 1 but is outside H, and a miss on a dependent
        # set proves nothing, so auto raises.
        hit = make_instance(35, [13, 29], beta=27, check_independence=False)
        with mock.patch.object(solvers, "_independence", side_effect=AssertionError):
            sol = solve(hit, "auto")
        assert (sol.method, sol.exponents) == ("sylow", (1, 1))
        miss = make_instance(35, [13, 29], beta=34, check_independence=False)
        with pytest.raises(IndependenceViolation):
            solve(miss, "auto")

    def test_every_solution_verifies(self):
        for i in range(40):
            inst = generate(40_000 + i, bits=13, t=(i % 3) + 1,
                            max_order_product=4000)
            sol = solve(inst, "auto")
            assert sol is not None
            assert verify(inst, sol.exponents)


def test_verification_survives_optimize_flag():
    # Under python -O every assert statement vanishes; the post-condition
    # on each returned Solution must not. With verify patched to reject
    # everything, every solver path has to raise AssertionError. The same
    # holds for the independence check's re-check of each Sylow log, and a
    # wrong position from the box kernel that every log runs on must end at
    # a log's own re-check by powering (in solve_dlp, the independence
    # check and the rank demo), and so must a wrong relation or base log in
    # index calculus.
    code = """
import sys
import mdlp.solvers as s
from mdlp.instance import make_instance
if not sys.flags.optimize:
    raise SystemExit("not running under -O")
s.verify = lambda inst, exponents: False
inst = make_instance(35, [13, 19], witness=(3, 1))
# 211 = 1 mod 35 and 353 = 1 mod 11, so peel applies (see peelable_instance)
peelable = make_instance(385, [211, 353], witness=(7, 5))
# t = 4, so the MITM table spans two axes
four = make_instance(35, [13, 19, 13, 19], witness=(3, 1, 2, 5), check_independence=False)
calls = [
    lambda: s.solve(inst, "auto"),
    lambda: s.solve_exhaustive(inst),
    lambda: s.solve_mitm(inst),
    lambda: s.solve_mitm(four),
    lambda: s.attack_collapse(inst),
    lambda: s.attack_peel(peelable),
]
for call in calls:
    try:
        call()
    except AssertionError:
        continue
    raise SystemExit("a solver returned an unverified solution")

# A wrong position from the shared box kernel: every log it gives is
# re-checked by powering, so it ends as None or AssertionError.
import mdlp.arith as a
import mdlp.subgroup as sg
kernel = a._box_walker
a._box_walker = s._box_walker = lambda gens, box, n, split: lambda beta: 0
if s.solve_dlp(2, 23, 35) is not None:
    raise SystemExit("solve_dlp returned an unchecked log")
if s.attack_collapse(inst) is not None:
    raise SystemExit("collapse split an unchecked log")
try:
    sg.independence_check([13, 29], 35)
except AssertionError:
    pass
else:
    raise SystemExit("the independence check used an unchecked log")
import mdlp.indexcalc as ic
try:
    ic.relation_rank_demo(107, [2, 32], [3, 5], 15)
except AssertionError:
    pass
else:
    raise SystemExit("the rank demo used an unchecked log")
a._box_walker = s._box_walker = kernel

# The independence check's witness, and its re-check of every Sylow log.
if sg.independence_check([13, 29], 35) != (False, (0, 2)):
    raise SystemExit("wrong independence witness")
sg._pohlig_hellman = lambda gens, orders, targets, n, ops: [[0]] * len(targets)
try:
    sg.independence_check([13, 29], 35)
except AssertionError:
    pass
else:
    raise SystemExit("an unchecked Sylow log was used")

# Index calculus re-checks every relation its trial loop yields, and
# every base log the solver returns, by powering.
from mdlp.errors import RankDeficient
fb = ic.build_factor_base(107, 7)
holds = ic.relation_holds
ic.relation_holds = lambda p, alpha, fb, rel: False
try:
    ic.collect_relations(107, 2, fb)
except AssertionError:
    pass
else:
    raise SystemExit("collect_relations kept an unchecked relation")
ic.relation_holds = holds
mat = ic.collect_relations(107, 2, fb)
ic._solve_mod_prime_power = lambda rows, ncols, q, e: [0] * ncols
try:
    ic.solve_base_logs(mat)
except RankDeficient as exc:
    if "fails verification" not in str(exc):
        raise
else:
    raise SystemExit("solve_base_logs returned an unchecked log")
"""
    src = str(Path(mdlp.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_no_assert_statement_in_src():
    # assert vanishes under python -O, so every check in the package must be
    # an explicit raise, also on paths the -O run above does not reach.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(mdlp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_import_in_src():
    # Every name a module of the package imports is read in that module, or
    # re-exported through __all__.
    found = []
    for path in sorted(Path(mdlp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []
