import math
import random

import pytest

from mdlp.arith import Modulus, multiplicative_order
from mdlp.errors import CapacityExceeded, NotAUnit
from mdlp.subgroup import close, independence_check


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

    def test_cap(self):
        with pytest.raises(CapacityExceeded):
            close([13, 19], 35, cap=5)


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

    def test_cap_propagates_instead_of_guessing(self):
        with pytest.raises(CapacityExceeded):
            independence_check([13, 19], 35, cap=3)


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
            gens = []
            while len(gens) < 2:
                g = rng.randrange(2, n) if n > 3 else 1
                if math.gcd(g, n) == 1:
                    gens.append(g)
            assert m.euler % close(gens, n).order == 0

    def test_independent_generators_span_product_of_orders(self):
        m = Modulus.from_int(35)
        r1 = multiplicative_order(13, m)
        r2 = multiplicative_order(19, m)
        assert close([13, 19], 35).order == r1 * r2
