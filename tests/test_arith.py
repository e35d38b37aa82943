import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlp import arith
from mdlp.arith import (
    Factorization,
    Modulus,
    factorize,
    is_probable_prime,
    multiplicative_order,
    order_factors,
    primes_up_to,
)
from mdlp.errors import BudgetExceeded, InvalidModulus, NotAUnit

ODD_PRIMES = primes_up_to(60)[1:]

# Every shape of unit group: 2-power moduli (cyclic up to 4, not from 8),
# 2^a times an odd part, prime squares and cubes, and squarefree products.
ORDER_MODULI = st.one_of(
    st.sampled_from([2, 4, 8, 16]),
    st.builds(lambda a, m: 2**a * (2 * m + 1), st.integers(1, 5), st.integers(1, 60)),
    st.sampled_from(ODD_PRIMES).map(lambda p: p**2),
    st.sampled_from(ODD_PRIMES[:5]).map(lambda p: p**3),
    st.lists(st.sampled_from([2] + ODD_PRIMES), min_size=2, max_size=3, unique=True)
    .map(math.prod),
)


def brute_factors(n):
    """Prime-power factors of n >= 2 by trial division by every d <= sqrt(n)."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def strong_probable_prime(n, a):
    """One Miller-Rabin round: True when base a does not prove odd n composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def brute_order(g, n):
    """Smallest r >= 1 with g**r == 1 mod n, by repeated multiplication."""
    r, x = 1, g % n
    while x != 1 % n:
        x = x * g % n
        r += 1
    return r


class TestFactorize:
    def test_semiprime(self):
        assert factorize(35).factors == ((5, 1), (7, 1))

    def test_prime_power(self):
        assert factorize(4).factors == ((2, 2),)

    def test_round_trip(self):
        n = (1 << 20) * 3
        f = factorize(n)
        assert f.n == n
        assert f.factors == ((2, 20), (3, 1))

    def test_random_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(2, 1 << 24)
            f = factorize(n)
            assert f.n == n
            assert all(is_probable_prime(p) for p, _ in f)
            assert list(f.primes) == sorted(set(f.primes))

    def test_large_semiprime_needs_rho(self):
        p, q = 1_000_003, 1_000_033
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))
        assert f.certified

    def test_matches_brute_force(self):
        cases = [
            2**3 * 3 * (2**31 - 1),  # a large prime cofactor after small ones
            6 * 4294967311,  # a prime cofactor above 2**32
            2**31 - 1,
            65537**2,  # p**2 with p > 2**16
            7 * 65537**2,
            65537 * 65539,  # two primes above 2**16: the rho path
            5**3 * 65537 * 65539,
        ]
        rng = random.Random(29)
        cases += [rng.randrange(2, 1 << 32) for _ in range(30)]
        for n in cases:
            assert factorize(n).factors == brute_factors(n), n

    def test_too_small(self):
        with pytest.raises(ValueError):
            factorize(1)

    def test_budget_exceeded(self):
        with mock.patch.object(arith, "DEFAULT_TRIAL_BOUND", 100), \
                mock.patch.object(arith, "DEFAULT_RHO_BUDGET", 3), \
                pytest.raises(BudgetExceeded):
            factorize(1_000_003 * 1_000_033)

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(((7, 1), (5, 1)))
        with pytest.raises(ValueError):
            Factorization(((5, 0),))


class TestPrimality:
    def test_against_sieve(self):
        sieve = bytearray(10**6)
        for p in primes_up_to(10**6 - 1):
            sieve[p] = 1
        assert [n for n in range(10**6) if is_probable_prime(n) != sieve[n]] == []

    def test_four_base_bound(self):
        # Below arith._SMALL_BOUND the bases 2, 3, 5 and 7 decide; the bound
        # itself is a strong pseudoprime to all four, so from there on the
        # seven-base set has to.
        bound = arith._SMALL_BOUND
        assert bound == 151 * 751 * 28351
        assert all(strong_probable_prime(bound, a) for a in (2, 3, 5, 7))
        assert not is_probable_prime(bound)
        below, above = 3_215_031_749, 3_215_031_767
        assert brute_factors(below) == ((below, 1),)
        assert brute_factors(above) == ((above, 1),)
        assert is_probable_prime(below) and is_probable_prime(above)
        assert not any(is_probable_prime(n) for n in range(below + 1, above))

    def test_primes_up_to(self):
        assert primes_up_to(1) == []
        assert primes_up_to(10) == [2, 3, 5, 7]


def carmichael(m: Modulus) -> Factorization:
    """lambda(n), the exponent of Z_n^*, factored: the lcm of the
    components' lambda(p**a), the largest exponent of each prime."""
    exps = {}
    for _, lam in m.components:
        for q, b in lam:
            exps[q] = max(exps.get(q, 0), b)
    return Factorization(tuple(sorted(exps.items())))


class TestTotients:
    def test_values_for_35(self):
        assert carmichael(Modulus.from_int(35)).n == 12

    def test_powers_of_two(self):
        assert carmichael(Modulus.from_int(2)).n == 1
        assert carmichael(Modulus.from_int(4)).n == 2
        assert carmichael(Modulus.from_int(8)).n == 2
        assert carmichael(Modulus.from_int(32)).n == 8

    def test_carmichael_divides_euler(self):
        rng = random.Random(13)
        for _ in range(100):
            m = Modulus.from_int(rng.randrange(2, 100_000))
            phi = math.prod(p ** (a - 1) * (p - 1) for p, a in m.factorization)
            assert phi % carmichael(m).n == 0

    def test_carmichael_factorization_matches_formula(self):
        # Every n up to 20,000, prime powers and 2**a included, against
        # lambda(n) built as the lcm of its prime-power components.
        for n in list(range(2, 20_001)) + [1_000_003 * 1_000_033]:
            m = Modulus.from_int(n)
            lam = math.lcm(*(
                (1 if a == 1 else 2 if a == 2 else 2 ** (a - 2)) if p == 2
                else p ** (a - 1) * (p - 1)
                for p, a in m.factorization
            ))
            assert carmichael(m).n == lam
            want = factorize(lam) if lam > 1 else Factorization(())
            assert carmichael(m) == want

    def test_units_killed_by_carmichael(self):
        rng = random.Random(17)
        for _ in range(50):
            m = Modulus.from_int(rng.randrange(3, 50_000))
            for _ in range(10):
                u = rng.randrange(1, m.n)
                if math.gcd(u, m.n) == 1:
                    assert pow(u, carmichael(m).n, m.n) == 1


class TestMultiplicativeOrder:
    def test_known_orders_mod_35(self):
        m = Modulus.from_int(35)
        assert multiplicative_order(13, m) == 4
        assert multiplicative_order(19, m) == 6

    def test_identity(self):
        assert multiplicative_order(1, Modulus.from_int(35)) == 1

    def test_non_unit(self):
        with pytest.raises(NotAUnit) as exc:
            multiplicative_order(5, Modulus.from_int(35))
        assert exc.value.gcd == 5

    def test_accepts_plain_int(self):
        assert multiplicative_order(2, 35) == 12

    def test_minimality_on_random_units(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(3, 20_000)
            m = Modulus.from_int(n)
            u = rng.randrange(2, n)
            if math.gcd(u, n) != 1:
                continue
            r = multiplicative_order(u, m)
            assert pow(u, r, n) == 1
            for d in range(1, r):
                if r % d == 0:
                    assert pow(u, d, n) != 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ORDER_MODULI, st.integers(0, 1 << 20))
    def test_matches_brute_force(self, n, pick):
        m = Modulus.from_int(n)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for u in {1, n - 1, units[pick % len(units)]}:
            assert multiplicative_order(u, m) == brute_order(u, n)

    @pytest.mark.parametrize(
        "n", [2, 4, 8, 2**5 * 3, 3**4, 5**2 * 7, 3 * 5 * 7 * 11, 2**3 * 3**2 * 5]
    )
    def test_every_unit_matches_brute_force(self, n):
        m = Modulus.from_int(n)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        orders = [multiplicative_order(u, m) for u in units]
        assert orders == [brute_order(u, n) for u in units]
        # lambda(n) is the exponent of Z_n^*: the lcm of all unit orders.
        assert carmichael(m).n == math.lcm(*orders)
        with pytest.raises(NotAUnit):
            multiplicative_order(m.factorization.primes[-1], m)


class TestOrderFactors:
    @staticmethod
    def brute(u, n):
        r = brute_order(u, n)
        return tuple(factorize(r)) if r > 1 else ()

    @pytest.mark.parametrize(
        "n", [2, 4, 8, 16, 2**6, 2 * 3**2, 2**5 * 3, 3**4, 7**3, 5**2 * 7, 2**3 * 3**2 * 5]
    )
    def test_every_unit_matches_brute_force(self, n):
        # Even N, 2**a with a >= 3 (non-cyclic), odd prime powers.
        m = Modulus.from_int(n)
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            got = order_factors(u, m)
            assert got == self.brute(u, n)
            assert all(b >= 1 for _, b in got)
            assert multiplicative_order(u, m) == math.prod(q**b for q, b in got)

    def test_identity_is_empty(self):
        assert order_factors(1, 35) == ()
        assert order_factors(36, Modulus.from_int(35)) == ()
        assert order_factors(1, 2) == ()

    def test_non_unit(self):
        with pytest.raises(NotAUnit) as exc:
            order_factors(14, Modulus.from_int(35))
        assert exc.value.gcd == 7


class TestModulus:
    def test_reconstruction(self):
        m = Modulus.from_int(360)
        assert m.factorization.n == 360
        assert m.n == 360

    def test_rejects_small(self):
        with pytest.raises(InvalidModulus):
            Modulus.from_int(1)

    def test_certified_only_below_deterministic_bound(self):
        # 2**89 - 1 is prime but above 2**64, where Miller-Rabin is only
        # probabilistic, however the factorization was obtained
        big = Factorization(((2**61 - 1, 1), (2**89 - 1, 1)))
        assert not Modulus.from_factorization(big).factorization.certified
        assert factorize(35).certified
