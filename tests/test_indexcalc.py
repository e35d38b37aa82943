import itertools
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdlp import arith, indexcalc
from mdlp.arith import Modulus, _echelon, factorize, multiplicative_order, primes_up_to
from mdlp.errors import BudgetExceeded, InvalidModulus, RankDeficient
from mdlp.indexcalc import (
    _WINDOW,
    _base_record,
    _smooth_draws,
    _solve_mod_prime_power,
    Relation,
    RelationMatrix,
    build_factor_base,
    collect_relations,
    dlp_via_index_calculus,
    relation_holds,
    relation_rank_demo,
    solve_base_logs,
    try_smooth,
)
from mdlp.solvers import solve_dlp
from mdlp.subgroup import _span_valuation


def primitive_root(p):
    lam = p - 1
    qs = [q for q, _ in factorize(lam)]
    for g in range(2, p):
        if all(pow(g, lam // q, p) != 1 for q in qs):
            return g
    raise AssertionError(f"no primitive root found for {p}")


class TestFactorBase:
    def test_bound_ten(self):
        assert build_factor_base(997, 10) == (2, 3, 5, 7)

    def test_bound_two(self):
        assert build_factor_base(997, 2) == (2,)

    def test_bound_seven(self):
        assert build_factor_base(107, 7) == (2, 3, 5, 7)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            build_factor_base(107, 1)


class TestTrySmooth:
    def test_smooth(self):
        exps, cofactor = try_smooth(84, build_factor_base(997, 7))
        assert exps == [2, 1, 0, 1]  # 84 = 2**2 * 3 * 7
        assert cofactor == 1

    def test_not_smooth_reports_cofactor(self):
        exps, cofactor = try_smooth(44, build_factor_base(997, 5))
        assert cofactor == 11
        assert exps == [2, 0, 0]

    def test_one(self):
        exps, cofactor = try_smooth(1, build_factor_base(997, 10))
        assert exps == [0, 0, 0, 0] and cofactor == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            try_smooth(0, build_factor_base(997, 10))


def reference_draws(p, alpha, factor, fb, seed, trials):
    """_smooth_draws as a plain loop: randrange, builtin pow and trial
    division of every trial value."""
    n = multiplicative_order(alpha, Modulus.from_int(p))
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        k = rng.randrange(n)
        x = factor * pow(alpha, k, p) % p
        if try_smooth(x, fb)[1] == 1:
            out.append((k, x))
    return out


class TestRoughPart:
    # The trial loop's smoothness test on chosen values: alpha = 1 has
    # order 1, so its one draw is k = 0 and its value is the factor itself.
    @pytest.mark.parametrize("p, bound", [(107, 7), (1000003, 200), (1073741827, 100)])
    def test_cofactor_matches_trial_division(self, p, bound):
        fb = build_factor_base(p, bound)
        n, _, rows = _base_record(p, 1)
        assert n == 1
        # The largest powers below p of 2, 3 and the largest prime of fb,
        # products of 2 and 3 near p, and twice the primes just above the
        # bound.
        edges = [1, p - 1, 2 ** ((p - 1).bit_length() - 1), 3 ** int(math.log(p - 1, 3))]
        edges += [2**a * 3**b for a in range(31) for b in range(20) if 2**a * 3**b < p][-5:]
        edges += [fb[-1] ** int(math.log(p - 1, fb[-1])), 2 * fb[-1], math.prod(fb[:4])]
        edges += [q * 2 for q in primes_up_to(2 * bound) if bound < q < p // 2][:3]
        rng = random.Random(p)
        values = [x for x in edges if 1 <= x < p] + [rng.randrange(1, p) for _ in range(500)]
        for x in values:
            smooth = try_smooth(x, fb)[1] == 1
            assert list(_smooth_draws(p, 1, rows, x, fb, 0, 1)) == ([(0, x)] if smooth else []), x


class TestPowerTable:
    # alpha of order 1 and 2, and orders whose bit length is a multiple of
    # the window (8, 24) or is not (9, 31).
    @pytest.mark.parametrize("p, alpha, bits", [
        (107, 1, 1), (107, 106, 2), (1021, 5, 8), (257, 3, 9), (16777213, 5, 24),
        (1073741827, 2, 31),
    ])
    def test_matches_builtin_pow(self, p, alpha, bits):
        n, factors, rows = _base_record(p, alpha)
        assert n == multiplicative_order(alpha, Modulus.from_int(p))
        assert factors == (tuple(factorize(n)) if n > 1 else ())
        assert n.bit_length() == bits
        assert len(rows) == -(-bits // _WINDOW)
        # Up to p = 1021 the factor base holds every prime below p, so
        # every trial value is smooth and every draw is yielded.
        fb = build_factor_base(p, min(p, 1100))
        for factor, seed in ((1, 0), (pow(3, 5, p), "shift:0")):
            got = list(_smooth_draws(p, n, rows, factor, fb, seed, 2000))
            assert got == reference_draws(p, alpha, factor, fb, seed, 2000)
            assert got and (p > 1100 or len(got) == 2000)
            for k, x in got:
                assert 0 <= k < n
                assert x == factor * pow(alpha, k, p) % p
                assert try_smooth(x, fb)[1] == 1


def no_trial(*args):
    """A stand-in for the trial loop that fails on its first call."""
    raise AssertionError("smoothness trial run")


def forced_retries(failures):
    """A _solve_mod_prime_power whose first ``failures`` calls raise
    RankDeficient, so that many collection rounds are retried, and the
    list of the primes q it was called with."""
    real = indexcalc._solve_mod_prime_power
    calls = []

    def solve(rows, ncols, q, e):
        calls.append(q)
        if len(calls) <= failures:
            raise RankDeficient("forced retry")
        return real(rows, ncols, q, e)

    return solve, calls


def reference_relations(p, alpha, fb, slack, seed, n):
    """collect_relations as a plain loop: builtin pow and trial division of
    every trial value."""
    rng = random.Random(seed)
    want = len(fb) + slack
    found = set()
    for _ in range(indexcalc.DEFAULT_RELATION_TRIALS):
        k = rng.randrange(n)
        exps, cofactor = try_smooth(pow(alpha, k, p), fb)
        if cofactor == 1:
            found.add(Relation(k, tuple(exps)))
            if len(found) >= want:
                rows = tuple(sorted(found, key=lambda r: (r.k, r.exponents)))
                return RelationMatrix(p, alpha, fb, rows)
    raise AssertionError(f"reference found {len(found)}/{want} relations")


class TestFastTrialsOracle:
    # The largest is the attack benchmark's largest index-calculus input.
    @pytest.mark.parametrize("p, alpha, bound, seeds", [
        (107, 2, 7, (0, 1, 2)),
        (1009, 11, 20, (0, 3)),
        (10007, 5, 30, (0, 4)),
        (1048583, 5, 50, (0,)),
        (1000003, 2, 200, (0, 1)),
        (1073741827, 2, 100, (0,)),
    ])
    def test_same_rows_as_reference(self, p, alpha, bound, seeds):
        fb = build_factor_base(p, bound)
        n = multiplicative_order(alpha, Modulus.from_int(p))
        for seed in seeds:
            got = collect_relations(p, alpha, fb, seed=seed)
            assert got == reference_relations(p, alpha, fb, indexcalc.DEFAULT_SLACK, seed, n)

    def test_only_smooth_values_are_trial_divided(self):
        real = indexcalc.try_smooth
        cofactors = []

        def recording(x, fb):
            exps, cofactor = real(x, fb)
            cofactors.append(cofactor)
            return exps, cofactor

        p = 1048583
        with mock.patch.object(indexcalc, "try_smooth", recording):
            x = dlp_via_index_calculus(p, 5, pow(5, p // 3, p), bound=50)
        assert pow(5, x, p) == pow(5, p // 3, p)
        assert cofactors and set(cofactors) == {1}

    def test_one_table_for_every_round_and_the_shift(self):
        solve, calls = forced_retries(2)
        _base_record.cache_clear()
        with mock.patch.object(indexcalc, "_solve_mod_prime_power", solve):
            assert dlp_via_index_calculus(107, 2, 61, bound=7) == 10
        info = _base_record.cache_info()
        # One record built for the order check and the shift search, read
        # again by each of three collection rounds and their solves.
        assert len(calls) > 2
        assert (info.misses, info.hits) == (1, 6)

    def test_known_rank_deficient_fault_is_unchanged(self):
        # Collection stops at |S| + 10 rows, so factor-base primes in no
        # relation leave the base logs rank-deficient. Mending that changes
        # which relations are kept; this pins today's outcome.
        with pytest.raises(
            BudgetExceeded,
            match=r"^base logs stayed rank-deficient after retries \(p=1000003, B=200\)$",
        ):
            dlp_via_index_calculus(1000003, 2, 12345, bound=200)


class TestCollectRelations:
    def test_enough_verified_rows(self):
        fb = build_factor_base(107, 7)
        mat = collect_relations(107, 2, fb, slack=3, seed=5)
        assert len(mat.rows) >= len(fb) + 3
        for rel in mat.rows:
            assert relation_holds(107, 2, fb, rel)

    def test_deterministic(self):
        fb = build_factor_base(107, 7)
        a = collect_relations(107, 2, fb, slack=3, seed=9)
        b = collect_relations(107, 2, fb, slack=3, seed=9)
        assert a == b

    def test_zero_exponent_relation_is_valid(self):
        fb = build_factor_base(107, 7)
        assert relation_holds(107, 2, fb, Relation(0, (0, 0, 0, 0)))

    def test_budget_when_bound_hopeless(self):
        p = 99991
        with mock.patch.object(indexcalc, "DEFAULT_RELATION_TRIALS", 200), \
                pytest.raises(BudgetExceeded, match="after 200 trials"):
            collect_relations(p, primitive_root(p), build_factor_base(p, 2),
                              slack=3, seed=1)


class TestSolveBaseLogs:
    def test_logs_verify_and_match_oracle(self):
        p, alpha = 107, 2
        fb = build_factor_base(p, 7)
        mat = collect_relations(p, alpha, fb, slack=5, seed=1)
        logs = solve_base_logs(mat)
        for q, log in zip(fb, logs):
            assert pow(alpha, log, p) == q
            assert log == solve_dlp(alpha, q, p).residue

    def test_log_of_base_is_one(self):
        p, alpha = 107, 2
        fb = build_factor_base(p, 7)
        logs = solve_base_logs(collect_relations(p, alpha, fb, slack=5, seed=2))
        assert logs[fb.index(2)] == 1

    def test_rank_deficient_rows(self):
        fb = build_factor_base(107, 7)
        rows = tuple(Relation(0, (0, 0, 0, 0)) for _ in range(8))
        with pytest.raises(RankDeficient):
            solve_base_logs(RelationMatrix(107, 2, fb, rows))

    def test_composite_p_rejected(self):
        # alpha's order is read over F_p, so p must be prime.
        fb = build_factor_base(105, 7)
        rows = tuple(Relation(0, (0, 0, 0, 0)) for _ in range(8))
        assert issubclass(InvalidModulus, ValueError)
        with pytest.raises(InvalidModulus, match="listed factor 105 is not prime"):
            collect_relations(105, 2, fb, slack=3)
        with pytest.raises(InvalidModulus, match="listed factor 105 is not prime"):
            solve_base_logs(RelationMatrix(105, 2, fb, rows))


class TestDlpViaIndexCalculus:
    def test_constructed_exponent(self):
        assert dlp_via_index_calculus(107, 2, 61, bound=7) == 10

    def test_base_itself(self):
        assert dlp_via_index_calculus(107, 2, 2, bound=7) == 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            dlp_via_index_calculus(105, 2, 8, bound=7)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            dlp_via_index_calculus(107, 107, 61, bound=7)

    def test_known_prime_is_not_factored_again(self):
        real = arith.factorize

        def guarded(n, *args, **kwargs):
            if n == 107:
                raise AssertionError("prime 107 factored again")
            return real(n, *args, **kwargs)

        with mock.patch.object(arith, "factorize", guarded):
            assert dlp_via_index_calculus(107, 2, 61, bound=7) == 10

    def test_order_is_not_factored(self):
        # The order's prime powers are read off lambda(p) = p - 1, which is
        # factored once however many retry rounds run. The profile hook
        # sees factorize under any name it was imported as.
        factored = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is arith.factorize.__code__:
                factored.append(frame.f_locals["n"])

        solve, calls = forced_retries(2)
        _base_record.cache_clear()
        sys.setprofile(profile)
        try:
            with mock.patch.object(indexcalc, "_solve_mod_prime_power", solve):
                assert dlp_via_index_calculus(107, 2, 61, bound=7) == 10
        finally:
            sys.setprofile(None)
        assert len(calls) > 2
        assert factored == [106]

    def test_order_below_relation_count_fails_before_any_trial(self):
        # ord(106) = 2 and ord(1) = 1 mod 107: fewer distinct relations
        # exist than the 4 + 10 the first round needs.
        with mock.patch.object(indexcalc, "_smooth_draws", no_trial):
            for alpha, order in ((106, 2), (1, 1)):
                with pytest.raises(BudgetExceeded, match=f"has order {order} mod 107"):
                    dlp_via_index_calculus(107, alpha, alpha, bound=7)
            # The patched name is on the trial path of a log that runs one.
            with pytest.raises(AssertionError, match="smoothness trial run"):
                dlp_via_index_calculus(107, 2, 61, bound=7)

    def test_beta_outside_group_fails_before_any_trial(self):
        # ord(2) = 504 mod 1009, so <2> is the squares, and 11 is not one.
        with mock.patch.object(indexcalc, "_smooth_draws", no_trial):
            with pytest.raises(ValueError, match="beta=11 is outside the group generated by"):
                dlp_via_index_calculus(1009, 2, 11, bound=7)
            with pytest.raises(AssertionError, match="smoothness trial run"):
                dlp_via_index_calculus(107, 2, 61, bound=7)

    def test_one_primality_test_per_log(self):
        real = arith.is_probable_prime
        tested = []

        def counting(n):
            tested.append(n)
            return real(n)

        with mock.patch.object(arith, "is_probable_prime", counting), \
                mock.patch.object(indexcalc, "is_probable_prime", counting):
            for p, alpha, beta, bound in ((107, 2, 61, 7), (1048583, 5, 12345, 50)):
                _base_record.cache_clear()
                tested.clear()
                x = dlp_via_index_calculus(p, alpha, beta, bound=bound)
                assert pow(alpha, x, p) == beta
                assert tested.count(p) == 1
            # A composite p still fails before any trial, on its one test.
            _base_record.cache_clear()
            tested.clear()
            with mock.patch.object(indexcalc, "_smooth_draws", no_trial), \
                    pytest.raises(ValueError, match="listed factor 105 is not prime"):
                dlp_via_index_calculus(105, 2, 8, bound=7)
            assert tested.count(105) == 1

    def test_deterministic(self):
        a = dlp_via_index_calculus(10007, 5, 1234, bound=30, seed=4)
        b = dlp_via_index_calculus(10007, 5, 1234, bound=30, seed=4)
        assert a == b

    def test_agrees_with_bsgs_oracle(self):
        rng = random.Random(71)
        primes = [p for p in primes_up_to(10_000) if p > 500]
        for i in range(20):
            p = rng.choice(primes)
            alpha = primitive_root(p)
            x = rng.randrange(1, p - 1)
            beta = pow(alpha, x, p)
            got = dlp_via_index_calculus(p, alpha, beta, bound=30, seed=i)
            assert got == solve_dlp(alpha, beta, p).residue == x


class TestRankDemo:
    def test_same_base_factor_one(self):
        rep = relation_rank_demo(107, [2, 2], [3, 5], 15)
        assert rep.equal_orders
        assert rep.factors == (1, 1)
        assert rep.proportional
        assert rep.target_logs[0] == rep.target_logs[1]

    def test_shifted_base_factor_five(self):
        # 2**5 = 32 also has order 106 mod 107
        rep = relation_rank_demo(107, [2, 32], [3, 5], 15)
        assert rep.equal_orders
        assert rep.factors == (1, 5)
        assert rep.factors[1] == solve_dlp(2, 32, 107).residue
        assert rep.proportional

    def test_each_base_order_is_computed_once(self):
        # One order_factors call per base; every log of a base then runs in
        # one call of the Pohlig-Hellman routine on that factored order.
        order = mock.Mock(wraps=indexcalc.order_factors)
        with mock.patch.object(indexcalc, "order_factors", order):
            rep = relation_rank_demo(107, [2, 32], [3, 5], 15)
        assert order.call_count == 2
        assert rep.factors == (1, 5) and rep.proportional

    def test_rank_one_for_two_generator_instance(self):
        p = 107
        alpha = 2
        g1, g2 = pow(alpha, 9, p), pow(alpha, 25, p)
        beta = g1 * pow(g2, 3, p) % p
        rep = relation_rank_demo(p, [alpha, pow(alpha, 3, p)], [g1, g2], beta)
        assert rep.proportional
        assert set(rep.ranks) == {2, 53}
        assert all(rank == 1 for rank in rep.ranks.values())

    def test_mismatched_orders_branch(self):
        # 4 = 2**2 has order 53 mod 107 while 2 has order 106
        rep = relation_rank_demo(107, [2, 4], [3, 5], 15)
        assert not rep.equal_orders
        assert rep.orders == (106, 53)
        assert not rep.proportional
        assert rep.note

    def test_proportionality_factor_matches_oracle_on_random_pairs(self):
        rng = random.Random(73)
        primes = [p for p in primes_up_to(2000) if p > 100]
        for _ in range(10):
            p = rng.choice(primes)
            alpha = primitive_root(p)
            u = rng.randrange(1, p - 1)
            while math.gcd(u, p - 1) != 1:
                u = rng.randrange(1, p - 1)
            alpha2 = pow(alpha, u, p)
            gens = [pow(alpha, rng.randrange(1, p - 1), p) for _ in range(2)]
            beta = gens[0] * gens[1] % p
            rep = relation_rank_demo(p, [alpha, alpha2], gens, beta)
            assert rep.equal_orders and rep.proportional
            assert rep.factors[1] == u % (p - 1)

    def test_target_outside_group_rejected(self):
        with pytest.raises(ValueError):
            relation_rank_demo(107, [4], [3], 2)  # ord(4) = 53; 2 not in <4>


# Largest number of candidate solutions the brute-force oracle walks.
BRUTE_LIMIT = 4096


@st.composite
def systems(draw):
    """(rows, ncols, q, e): a system A x = b over Z/q**e of up to 6 rows.

    Half of the entries are multiples of q, so columns without a unit and
    rank-deficient systems are common; half of the right-hand sides are
    A x0 for a drawn x0, so consistent systems with many solutions are too.
    """
    q = draw(st.sampled_from((2, 3, 5)))
    e = draw(st.integers(1, 3))
    qe = q**e
    ncols = draw(st.integers(1, 4))
    while qe**ncols > BRUTE_LIMIT:
        ncols -= 1
    entry = st.one_of(
        st.integers(0, 2 * qe - 1), st.integers(0, qe // q - 1).map(lambda k: k * q)
    )
    coeffs = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, qe - 1), min_size=ncols, max_size=ncols))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in coeffs]
    else:
        rhs = draw(st.lists(st.integers(0, qe - 1), min_size=len(coeffs), max_size=len(coeffs)))
    return list(zip(coeffs, rhs)), ncols, q, e


class TestRowReduction:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systems())
    # The unique solution (5, 7, 2) mod 3**2, read back across pivots in
    # columns 1, 0 and 2 whose rows keep entries in later pivot columns.
    @example(([([3, 1, 4], 30), ([1, 2, 3], 25), ([0, 3, 1], 23), ([2, 4, 6], 50)], 3, 3, 2))
    def test_solve_matches_brute_force(self, system):
        rows, ncols, q, e = system
        qe = q**e
        solutions = [
            list(x)
            for x in itertools.product(range(qe), repeat=ncols)
            if all(sum(a * xi for a, xi in zip(coeffs, x)) % qe == rhs % qe for coeffs, rhs in rows)
        ]
        if len(solutions) == 1:
            assert _solve_mod_prime_power(rows, ncols, q, e) == solutions[0]
        else:
            with pytest.raises(RankDeficient):
                _solve_mod_prime_power(rows, ncols, q, e)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(systems())
    # Column 1 has no unit mod 3.
    @example(([([1, 3], 0), ([2, 6], 1)], 2, 3, 2))
    # Pivots of valuation 1 and 2 and no unit at e = 3.
    @example(([([2, 4], 0), ([4, 4], 0), ([6, 0], 0)], 2, 2, 3))
    def test_rank_matches_row_space(self, system):
        rows, ncols, q, e = system
        span = {(0,) * ncols}
        for coeffs, _ in rows:
            span = {
                tuple((v + c * a) % q for v, a in zip(vec, coeffs))
                for vec in span
                for c in range(q)
            }
        rank = len(_echelon([[a % q for a in coeffs] for coeffs, _ in rows], ncols, q, 1))
        assert q**rank == len(span)
        # Pivots of valuation 0 mod q**e are exactly the pivots mod q.
        qe = q**e
        aug = [[a % qe for a in coeffs] for coeffs, _ in rows]
        valuations = [v for _, v in _echelon(aug, ncols, q, e)]
        assert valuations.count(0) == rank
        # The valuations are the Smith invariants: mod every q**k the row
        # span, grown one coset of the old span per multiple of each row,
        # has q**sum(max(0, k - v)) elements. systems() keeps
        # qe**ncols <= BRUTE_LIMIT.
        for k in range(1, e + 1):
            qk = q**k
            span = {(0,) * ncols}
            for coeffs, _ in rows:
                cosets = [span]
                shift = tuple(a % qk for a in coeffs)
                while shift not in span:
                    cosets.append({tuple((v + s) % qk for v, s in zip(vec, shift)) for vec in span})
                    shift = tuple((s + a) % qk for s, a in zip(shift, coeffs))
                span = set().union(*cosets)
            assert q ** sum(max(0, k - v) for v in valuations) == len(span)
        assert q ** _span_valuation([coeffs for coeffs, _ in rows], q, e) == len(span)
