import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlp.congruence import (
    Congruence,
    solvable_pair,
    solve_system,
    split_exponent,
)
from mdlp.errors import UnsolvableSystem


def brute_solutions(items, limit):
    return [x for x in range(limit) if all(c.holds_for(x) for c in items)]


class TestCongruence:
    def test_residue_normalized(self):
        assert Congruence(7, 4).residue == 3
        assert Congruence(-1, 4).residue == 3

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Congruence(0, 0)

class TestSolvablePair:
    def test_compatible(self):
        assert solvable_pair(Congruence(3, 4), Congruence(1, 6))

    def test_incompatible(self):
        assert not solvable_pair(Congruence(1, 4), Congruence(0, 6))
        assert brute_solutions([Congruence(1, 4), Congruence(0, 6)], 12) == []

    def test_identical(self):
        c = Congruence(5, 9)
        assert solvable_pair(c, c)


class TestSolveSystem:
    def test_non_coprime_pair(self):
        sol = solve_system([Congruence(3, 4), Congruence(1, 6)])
        assert sol == Congruence(7, 12)
        assert brute_solutions([Congruence(3, 4), Congruence(1, 6)], 12) == [7]

    def test_zero_residues(self):
        sol = solve_system([Congruence(0, 6), Congruence(0, 10)])
        assert sol == Congruence(0, 30)

    def test_redundant_congruence(self):
        sys_ = [Congruence(3, 4), Congruence(1, 6), Congruence(7, 12)]
        assert solve_system(sys_) == Congruence(7, 12)

    def test_unsolvable_carries_pair(self):
        with pytest.raises(UnsolvableSystem) as exc:
            solve_system([Congruence(1, 4), Congruence(0, 6)])
        assert exc.value.pair == (0, 1)

    def test_unsolvable_pair_witness_is_real(self):
        sys_ = [Congruence(1, 3), Congruence(1, 4), Congruence(0, 6)]
        with pytest.raises(UnsolvableSystem) as exc:
            solve_system(sys_)
        i, j = exc.value.pair
        assert not solvable_pair(sys_[i], sys_[j])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_system([])

    def test_random_pairs_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(400):
            m1, m2 = rng.randrange(1, 200), rng.randrange(1, 200)
            c1 = Congruence(rng.randrange(m1), m1)
            c2 = Congruence(rng.randrange(m2), m2)
            lcm = math.lcm(m1, m2)
            expected = brute_solutions([c1, c2], lcm)
            if solvable_pair(c1, c2):
                sol = solve_system([c1, c2])
                assert sol.modulus == lcm
                assert expected == [sol.residue]
            else:
                assert expected == []
                with pytest.raises(UnsolvableSystem):
                    solve_system([c1, c2])

    def test_order_independence(self):
        rng = random.Random(101)
        for _ in range(100):
            items = [
                Congruence(rng.randrange(1, 60), rng.randrange(1, 60))
                for _ in range(rng.randrange(2, 5))
            ]
            try:
                base = solve_system(items)
                outcome = ("ok", base.residue, base.modulus)
            except UnsolvableSystem:
                outcome = ("fail",)
            for _ in range(4):
                rng.shuffle(items)
                try:
                    got = solve_system(items)
                    assert outcome == ("ok", got.residue, got.modulus)
                except UnsolvableSystem:
                    assert outcome == ("fail",)

    def test_solution_satisfies_all_items(self):
        rng = random.Random(103)
        for _ in range(200):
            items = [
                Congruence(rng.randrange(1, 100), rng.randrange(1, 100))
                for _ in range(rng.randrange(1, 5))
            ]
            try:
                sol = solve_system(items)
            except UnsolvableSystem:
                continue
            assert all(c.holds_for(sol.residue) for c in items)
            assert sol.modulus == math.lcm(*(c.modulus for c in items))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(1, 60), st.integers(0, 10**6)), min_size=1, max_size=4),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_systems_against_brute_force(self, pairs, planted):
        # With a planted x every residue is x mod its modulus, so the
        # system is solvable; otherwise the residues are arbitrary.
        items = [Congruence(planted if planted is not None else b, m) for m, b in pairs]
        lcm = math.lcm(*(c.modulus for c in items))
        # Every solution below the lcm lies in the class of the largest modulus.
        widest = max(items, key=lambda c: c.modulus)
        found = [
            x for x in range(widest.residue, lcm, widest.modulus)
            if all(c.holds_for(x) for c in items)
        ]
        if found:
            assert solve_system(items) == Congruence(found[0], lcm)
            assert len(found) == 1
        else:
            assert planted is None
            with pytest.raises(UnsolvableSystem) as exc:
                solve_system(items)
            i, j = exc.value.pair
            pair = [items[i], items[j]]
            assert brute_solutions(pair, math.lcm(items[i].modulus, items[j].modulus)) == []


class TestSplitExponent:
    def test_worked_example(self):
        assert split_exponent(7, [4, 6]) == [3, 1]

    def test_zero(self):
        assert split_exponent(0, [4, 6, 9]) == [0, 0, 0]

    def test_unit_modulus(self):
        assert split_exponent(12345, [1]) == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_exponent(3, [])

    def test_round_trip_through_solve_system(self):
        rng = random.Random(107)
        for _ in range(200):
            orders = [rng.randrange(1, 50) for _ in range(rng.randrange(1, 5))]
            k = rng.randrange(0, 10_000)
            parts = split_exponent(k, orders)
            sol = solve_system(
                [Congruence(p, r) for p, r in zip(parts, orders)]
            )
            lcm = math.lcm(*orders)
            assert sol.modulus == lcm
            assert sol.residue == k % lcm
