import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closure_oracle import close, closure_independence
from mdlp.arith import Modulus, multiplicative_order
from mdlp.congruence import Congruence, solve_system
from mdlp.errors import NotAUnit
from mdlp.subgroup import independence_check


class TestClose:
    def test_powers_of_13(self):
        c = close([13], 35)
        assert c.elements == (1, 13, 27, 29)
        assert c.order == 4

    def test_powers_of_19(self):
        c = close([19], 35)
        assert c.elements == (1, 11, 16, 19, 24, 34)
        assert c.order == 6

    def test_empty_generators_trivial_group(self):
        c = close([], 35)
        assert c.elements == (1,)
        assert c.order == 1

    def test_generator_order_independence(self):
        assert close([13, 19], 35).elements == close([19, 13], 35).elements

    def test_closed_under_multiplication(self):
        c = close([13, 19], 35)
        elems = set(c.elements)
        for a in elems:
            for b in elems:
                assert a * b % 35 in elems

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            close([5], 35)


class TestContains:
    def test_not_member(self):
        assert 13 not in close([19], 35)

    def test_identity_always_member(self):
        for gens in ([], [13], [19], [13, 19]):
            assert 1 in close(gens, 35)

    def test_square_is_member(self):
        assert 29 in close([13], 35)  # 29 = 13**2 mod 35


class TestIndependence:
    def test_independent_pair(self):
        assert independence_check([13, 19], 35).independent

    def test_dependent_pair_returns_real_witness(self):
        res = independence_check([13, 29], 35)
        assert not res.independent
        i, v = res.witness
        gens = [13, 29]
        others = close([g for j, g in enumerate(gens) if j != i], 35)
        assert pow(gens[i], v, 35) in others
        assert 1 <= v < multiplicative_order(gens[i], Modulus.from_int(35))

    def test_single_generator_always_independent(self):
        for g in (2, 13, 19):
            assert independence_check([g], 35).independent

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            independence_check([13, 5], 35)

    def test_large_subgroup_decided_without_enumeration(self):
        # One generator at each prime: |H| = r1 * r2 is above 10**11, far
        # past any closure that could be enumerated.
        p1, p2 = 1_000_003, 1_000_033
        n = p1 * p2
        m = Modulus.from_int(n)
        g1 = solve_system([Congruence(2, p1), Congruence(1, p2)]).residue
        g2 = solve_system([Congruence(1, p1), Congruence(3, p2)]).residue
        orders = [multiplicative_order(g, m) for g in (g1, g2)]
        assert math.prod(orders) > 10**11
        assert independence_check([g1, g2], m) == (True, None)
        # g1 and g1 * g2 span <g1, g2> again, which has r1 * r2 elements,
        # so g1's index over <g1 * g2> is r1 * r2 / lcm(r1, r2).
        assert independence_check([g1, g1 * g2 % n], m) == (False, (0, math.gcd(*orders)))


# Pairwise coprime components: N = 2, 4, 8, 2^a * odd, p^2 and p^3, and
# squarefree N.
MODULI = ((2,), (4,), (8,), (16,), (32,), (4, 9), (8, 5), (16, 7, 3), (2, 25), (49,), (27,), (125,),
          (9, 7), (5, 7, 11), (3, 8, 5), (101,))


def _units(m: int) -> list[int]:
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


@st.composite
def generator_sets(draw):
    """(generators, N) with t = 1..4, built component by component.

    Each component residue is 1 about half the time, so order-1
    generators and shared components are frequent; a generator may also
    repeat an earlier one or be a product of two earlier ones, so many
    sets are dependent.
    """
    parts = draw(st.sampled_from(MODULI))
    n = math.prod(parts)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("fresh", "fresh", "repeat", "product"))) if gens else "fresh"
        if kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "product":
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(a * pow(b, draw(st.integers(1, 3)), n) % n)
        else:
            residues = [draw(st.one_of(st.just(1), st.sampled_from(_units(m)))) for m in parts]
            gens.append(solve_system([Congruence(x, m) for x, m in zip(residues, parts)]).residue)
    return gens, n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(generator_sets())
@example(([1], 2))
@example(([3, 3], 4))
@example(([3, 5], 8))
@example(([7, 5, 3], 16))
@example(([13, 13], 35))
@example(([13, 29], 35))
@example(([1, 13, 19, 1], 35))
@example(([5, 7], 9 * 4))
@example(([2, 4], 125))
def test_engine_matches_closure_oracle(case):
    gens, n = case
    assert independence_check(gens, n) == closure_independence(gens, n)


class TestGroupLaws:
    def test_singleton_closure_size_is_order(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(3, 5000)
            g = rng.randrange(2, n)
            if math.gcd(g, n) != 1:
                continue
            m = Modulus.from_int(n)
            assert close([g], n).order == multiplicative_order(g, m)

    def test_lagrange(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randrange(3, 2000)
            m = Modulus.from_int(n)
            phi = math.prod(p ** (a - 1) * (p - 1) for p, a in m.factorization)
            gens = []
            while len(gens) < 2:
                g = rng.randrange(2, n) if n > 3 else 1
                if math.gcd(g, n) == 1:
                    gens.append(g)
            assert phi % close(gens, n).order == 0

    def test_independent_generators_span_product_of_orders(self):
        m = Modulus.from_int(35)
        r1 = multiplicative_order(13, m)
        r2 = multiplicative_order(19, m)
        assert close([13, 19], 35).order == r1 * r2
