import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlp import instance, subgroup
from mdlp.arith import Factorization, factorize
from mdlp.congruence import Congruence, solve_system
from mdlp.errors import (
    BudgetExceeded,
    GenerationFailed,
    IndependenceViolation,
    NotAUnit,
    UnsolvableSystem,
)
from mdlp.instance import (
    REFERENCE_TABLE_N35,
    REJECTION_STAGES,
    dumps,
    VERDICT_BOTH,
    VERDICT_COLLAPSE,
    VERDICT_PEEL,
    VERDICT_RESISTS,
    check_collapse_resistance,
    check_peel_resistance,
    from_json_dict,
    generate,
    hardness_report,
    loads,
    make_instance,
    reference_divergences,
    to_json_dict,
    truth_table,
    verify,
)


# q with q and 2q + 1 both prime, just above 2**60.
SAFE_PRIMES = (1152921504606849959, 1152921504606850613)


@pytest.fixture
def worked_example():
    return make_instance(35, [13, 19], witness=(3, 1))


class TestMakeInstance:
    def test_worked_example(self, worked_example):
        inst = worked_example
        assert inst.orders == (4, 6)
        assert inst.beta == 23
        assert inst.witness == (3, 1)
        assert inst.independence_verified

    def test_zero_exponents(self):
        inst = make_instance(35, [13, 19], witness=(0, 0))
        assert inst.beta == 1

    def test_large_prime_orders_load_without_a_log(self, monkeypatch):
        # q and 2q + 1 are prime with q near 2**60. No prime divides two
        # orders here, so the check takes no Sylow log: the baby-step
        # table of such a q would hold about 2**30 entries.
        q1, q2 = SAFE_PRIMES
        p1, p2 = 2 * q1 + 1, 2 * q2 + 1

        def no_log(*args):
            raise AssertionError("a Sylow log was taken")

        monkeypatch.setattr(subgroup, "_pohlig_hellman", no_log)
        one = make_instance(p1, [4], witness=(12345,))
        g1 = solve_system([Congruence(4, p1), Congruence(1, p2)]).residue
        g2 = solve_system([Congruence(1, p1), Congruence(9, p2)]).residue
        two = make_instance(Factorization(((p1, 1), (p2, 1))), [g1, g2], witness=(5, 6))
        assert one.orders == (q1,) and two.orders == (q1, q2)
        for inst in (one, two):
            start = time.perf_counter()
            assert loads(dumps(inst)) == inst
            assert inst.independence_verified
            # Milliseconds; one 2**30-entry baby-step table would take minutes.
            assert time.perf_counter() - start < 10

    def test_shared_prime_too_large_to_log_is_a_budget_error(self):
        # 4 and 9 both have the order q near 2**60 mod 2q + 1.
        p = 2 * SAFE_PRIMES[0] + 1
        with pytest.raises(BudgetExceeded):
            make_instance(p, [4, 9], witness=(1, 1))
        text = dumps(make_instance(p, [4, 9], witness=(1, 1), check_independence=False))
        with pytest.raises(BudgetExceeded):
            loads(text)

    def test_dependent_generators_rejected(self):
        with pytest.raises(IndependenceViolation) as exc:
            make_instance(35, [13, 29], witness=(1, 1))
        i, v = exc.value.witness
        gens = (13, 29)
        assert pow(gens[i], v, 35) in {pow(gens[1 - i], e, 35) for e in range(12)}

    def test_non_unit_generator(self):
        with pytest.raises(NotAUnit):
            make_instance(35, [5, 19], witness=(1, 1))

    def test_witness_reduced_mod_orders(self):
        inst = make_instance(35, [13, 19], witness=(7, 13))
        assert inst.witness == (3, 1)
        assert inst.beta == 23

    def test_beta_only_instance(self):
        inst = make_instance(35, [13, 19], beta=22)
        assert inst.witness is None
        assert inst.beta == 22

    def test_requires_witness_or_beta(self):
        with pytest.raises(ValueError):
            make_instance(35, [13, 19])

    def test_beta_witness_disagreement(self):
        with pytest.raises(ValueError):
            make_instance(35, [13, 19], witness=(3, 1), beta=22)


class TestVerify:
    def test_witness_tuple(self, worked_example):
        assert verify(worked_example, (3, 1))

    def test_other_published_cell(self, worked_example):
        # (1, 3) maps to 22, not 23
        assert not verify(worked_example, (1, 3))

    def test_reduction_mod_orders(self, worked_example):
        assert verify(worked_example, (3 + 4, 1 + 6))

    def test_length_checked(self, worked_example):
        with pytest.raises(ValueError):
            verify(worked_example, (3,))


class TestCollapseResistance:
    def test_worked_example_is_collapsible(self, worked_example):
        chk = check_collapse_resistance(worked_example)
        assert not chk.resistant
        assert chk.collapse_exponent.residue == 7
        assert chk.collapse_exponent.modulus == 12

    def test_equal_witness_entries_always_collapsible(self):
        inst = make_instance(35, [13, 19], witness=(1, 1))
        assert not check_collapse_resistance(inst).resistant

    def test_incompatible_residues_resist(self):
        inst = make_instance(35, [13, 19], witness=(1, 0))
        chk = check_collapse_resistance(inst)
        assert chk.resistant
        assert chk.witness_pair == (0, 1)
        # exhaustive confirmation: no single k matches both residues
        assert all(
            (k % 4, k % 6) != (1, 0) for k in range(math.lcm(4, 6))
        )

    def test_requires_witness(self):
        inst = make_instance(35, [13, 19], beta=22)
        with pytest.raises(ValueError):
            check_collapse_resistance(inst)

    def test_matches_congruence_solvability(self):
        rng = random.Random(41)
        for i in range(60):
            inst = generate(7000 + i, bits=12, t=2, max_order_product=4000)
            chk = check_collapse_resistance(inst)
            items = [Congruence(k, r) for k, r in zip(inst.witness, inst.orders)]
            try:
                solve_system(items)
                solvable = True
            except UnsolvableSystem:
                solvable = False
            assert chk.resistant == (not solvable)


class TestPeelResistance:
    def test_worked_example_resists(self, worked_example):
        # 19 and 13**3 are both != 1 mod 5 and mod 7
        assert check_peel_resistance(worked_example).resistant

    def test_zero_witness_elsewhere_violates(self):
        # omitting g1 leaves 19**0 = 1 mod everything
        inst = make_instance(35, [13, 19], witness=(3, 0))
        chk = check_peel_resistance(inst)
        assert not chk.resistant
        assert chk.violation == (0, 5)

    def test_violation_is_real(self):
        rng = random.Random(43)
        for i in range(40):
            inst = generate(8000 + i, bits=12, t=2, max_order_product=4000)
            chk = check_peel_resistance(inst)
            if chk.resistant:
                continue
            i_, p = chk.violation
            omitted = 1
            for l, (g, k) in enumerate(zip(inst.generators, inst.witness)):
                if l != i_:
                    omitted = omitted * pow(g, k, p) % p
            assert omitted == 1

    def test_matches_the_definition_on_random_drafts(self):
        # Every omit-one product written out, t - 1 powers each, against the
        # check's prefix and suffix products: the same verdict and the same
        # first violation, omitted index first, then the primes of N.
        def first_violation(gens, k, primes):
            for i in range(len(gens)):
                for p in primes:
                    omitted = 1
                    for l, (g, e) in enumerate(zip(gens, k)):
                        if l != i:
                            omitted = omitted * pow(g, e, p) % p
                    if omitted == 1:
                        return (i, p)
            return None

        rng = random.Random(23)
        verdicts = []
        for n in (35, 143, 1155, 10403, 85085, 1022117, 3 * 1022117, 1009 * 1013 * 1019):
            primes = factorize(n).primes
            for _ in range(60):
                t = rng.randint(1, 4)
                units = (u for u in iter(lambda: rng.randrange(2, n), None) if math.gcd(u, n) == 1)
                gens = list(itertools.islice(units, t))
                orders = make_instance(n, gens, beta=1, check_independence=False).orders
                # Zero exponents now and then, so that violations are common.
                k = [rng.randrange(r) if rng.random() < 0.9 else 0 for r in orders]
                draft = make_instance(n, gens, witness=k, check_independence=False)
                chk = check_peel_resistance(draft)
                expected = first_violation(gens, k, primes)
                assert (chk.resistant, chk.violation) == (expected is None, expected)
                verdicts.append(chk.resistant)
        assert 100 < sum(verdicts) < len(verdicts) - 100


class TestHardnessReport:
    def test_worked_example_verdict(self, worked_example):
        rep = hardness_report(worked_example)
        assert not rep.collapse.resistant
        assert rep.peel.resistant
        assert rep.verdict == VERDICT_COLLAPSE

    def test_verdict_table(self):
        cases = {
            (True, True): VERDICT_RESISTS,
            (False, True): VERDICT_COLLAPSE,
            (True, False): VERDICT_PEEL,
            (False, False): VERDICT_BOTH,
        }
        seen = set()
        for i in range(400):
            inst = generate(9000 + i, bits=12, t=2, max_order_product=4000)
            rep = hardness_report(inst)
            key = (rep.collapse.resistant, rep.peel.resistant)
            assert rep.verdict == cases[key]
            seen.add(key)
            if len(seen) == 4:
                break
        assert len(seen) >= 3

    def test_stable_under_generator_permutation(self):
        for i in range(30):
            inst = generate(9500 + i, bits=12, t=3, max_order_product=4000)
            perm = [2, 0, 1]
            permuted = make_instance(
                inst.modulus,
                [inst.generators[j] for j in perm],
                witness=[inst.witness[j] for j in perm],
            )
            assert hardness_report(permuted).verdict == hardness_report(inst).verdict


class TestTruthTable:
    def test_published_rows(self):
        rows = truth_table(35, 13, 19, range(1, 5), range(1, 4))
        assert rows == [[2, 26, 23, 19], [3, 4, 17, 11], [22, 6, 8, 34]]

    def test_true_row_four_diverges_from_reference(self):
        (row,) = truth_table(35, 13, 19, range(1, 5), [4])
        assert row == [33, 9, 12, 16]
        assert [REFERENCE_TABLE_N35[(k1, 4)] for k1 in range(1, 5)] == [13, 29, 27, 1]

    def test_all_ones(self):
        rows = truth_table(101, 1, 1, range(1, 4), range(1, 4))
        assert all(v == 1 for row in rows for v in row)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            with mock.patch.object(instance, "DEFAULT_CELL_BUDGET", 100):
                truth_table(35, 13, 19, range(1, 12), range(1, 12))

    def test_degenerate_modulus(self):
        with pytest.raises(ValueError):
            truth_table(1, 1, 1, range(1, 3), range(1, 3))

    def test_divergences_only_in_row_four(self):
        assert reference_divergences(35, 13, 19, range(1, 5), range(1, 4)) == []
        divs = reference_divergences(35, 13, 19, range(1, 5), range(1, 5))
        assert [(k1, k2) for k1, k2, _, _ in divs] == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert [(got, ref) for _, _, got, ref in divs] == [
            (33, 13), (9, 29), (12, 27), (16, 1)
        ]

    def test_divergences_other_parameters_empty(self):
        assert reference_divergences(77, 13, 19, range(1, 5), range(1, 5)) == []

class TestUniquenessAndDegeneracy:
    def test_unique_witness_small_sweep(self):
        for i in range(25):
            inst = generate(11_000 + i, bits=12, t=2, max_order_product=600)
            hits = [
                exps
                for exps in itertools.product(*(range(r) for r in inst.orders))
                if verify(inst, exps)
            ]
            assert hits == [inst.witness]

    def test_no_smaller_representation(self):
        for i in range(25):
            inst = generate(12_000 + i, bits=12, t=2, max_order_product=600)
            for drop in range(inst.t):
                if inst.witness[drop] == 0:
                    continue
                kept = [j for j in range(inst.t) if j != drop]
                for exps in itertools.product(*(range(inst.orders[j]) for j in kept)):
                    acc = 1
                    for j, e in zip(kept, exps):
                        acc = acc * pow(inst.generators[j], e, inst.n) % inst.n
                    assert acc != inst.beta

    def test_diagonal_tuple_count_is_lcm(self):
        for i in range(25):
            inst = generate(13_000 + i, bits=12, t=2, max_order_product=2000)
            lcm = math.lcm(*inst.orders)
            diag = {tuple(k % r for r in inst.orders) for k in range(lcm)}
            assert len(diag) == lcm


class TestGenerate:
    def test_deterministic(self):
        a = generate(123, bits=13, t=2)
        b = generate(123, bits=13, t=2)
        assert a == b

    def test_requested_bits(self):
        for i in range(10):
            inst = generate(200 + i, bits=15, t=2)
            assert inst.n.bit_length() == 15

    def test_constraints_hold(self):
        inst = generate(7, bits=13, t=2,
                        require_collapse_resistant=True,
                        require_peel_resistant=True)
        rep = hardness_report(inst)
        assert rep.verdict == VERDICT_RESISTS

    def test_vulnerable_constraint(self):
        inst = generate(8, bits=13, t=2, require_collapse_resistant=False)
        assert not check_collapse_resistance(inst).resistant

    def test_impossible_constraint_fails_cleanly(self):
        # One generator has no pair of residues to conflict, and omitting
        # it leaves the empty product 1, so neither constraint can hold.
        with pytest.raises(ValueError, match="never collapse-resistant"):
            generate(9, bits=12, t=1, require_collapse_resistant=True)
        with pytest.raises(ValueError, match="never peel-resistant"):
            generate(9, bits=12, t=1, require_peel_resistant=True)
        # The opposite demands are what t = 1 always gives.
        inst = generate(9, bits=12, t=1, require_collapse_resistant=False,
                        require_peel_resistant=False)
        assert hardness_report(inst).verdict == VERDICT_BOTH

    def test_rejections_counted_by_stage(self):
        # Satisfiable (the constrained pin below generates this shape with
        # the default budget), but this seed's first three drafts each run
        # out of witness draws. Every rejected witness draw counts, so the
        # rejections outnumber the attempts.
        with mock.patch.object(instance, "DEFAULT_MAX_ATTEMPTS", 3), \
                pytest.raises(GenerationFailed) as exc:
            generate(16, bits=24, t=4, require_collapse_resistant=True,
                     require_peel_resistant=True, max_order_product=1 << 16)
        rejections = exc.value.rejections
        assert list(rejections) == list(REJECTION_STAGES)
        assert exc.value.attempts == 3
        rejected = sum(rejections.values())
        assert rejected == rejections["collapse"] + rejections["peel"] == 3 * instance.WITNESS_DRAWS
        assert f"after 3 attempts ({rejected} rejected draws)" in str(exc.value)
        for stage, count in rejections.items():
            assert f"{stage} {count}" in str(exc.value)

    def test_unbuildable_shape_rejected_by_stage(self):
        # Two generators of order 2 that are not 1 mod any prime of N are
        # both -1 mod N, so no N takes them: every attempt ends at the
        # column draws, one rejection each.
        with mock.patch.object(instance, "DEFAULT_MAX_ATTEMPTS", 5), \
                pytest.raises(GenerationFailed) as exc:
            generate(1, bits=24, t=2, require_peel_resistant=True, max_order_product=4)
        assert exc.value.rejections == dict(modulus=0, orders=0, columns=5, collapse=0, peel=0)

    def test_peel_resistant_after_witness_redraws(self):
        # Both constraints at t = 4, where the peel check rejects many
        # witnesses: the redraws must still find one.
        inst = generate(3017, bits=32, t=4, require_collapse_resistant=True,
                        require_peel_resistant=True, max_order_product=1 << 16)
        assert hardness_report(inst).verdict == VERDICT_RESISTS

    def test_no_witness_peels_where_one_generator_lives(self):
        # At a prime p of N where at most one generator is not 1 mod p,
        # omitting that one leaves the product 1 mod p for every witness.
        # generate builds this shape when peel resistance is refused, and
        # two live generators at every prime when it is required.
        rng = random.Random(22)
        hopeless = 0
        for n in (15, 21, 35, 39, 45, 63, 77, 91, 105, 143, 165):
            units = [u for u in range(2, n) if math.gcd(u, n) == 1]
            primes = factorize(n).primes
            for _ in range(30):
                gens = rng.sample(units, rng.choice((2, 3)))
                if all(sum(g % p != 1 for g in gens) >= 2 for p in primes):
                    continue
                hopeless += 1
                draft = make_instance(n, gens, witness=[0] * len(gens),
                                      check_independence=False)
                for k in itertools.product(*map(range, draft.orders)):
                    assert not check_peel_resistance(replace(draft, witness=k)).resistant
        assert hopeless > 50

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate(1, t=0)
        with pytest.raises(ValueError):
            generate(1, bits=4)

    def test_order_product_below_two_to_the_t(self):
        # Every order is at least 2, so a bound below 2**t admits nothing:
        # refused at once, neither swapped for the default nor sampled.
        for bound in (0, 3, -5):
            with pytest.raises(ValueError, match=r"at least 2\*\*t = 4.*got " + str(bound)):
                generate(3, bits=24, t=2, max_order_product=bound)
        assert generate(3, bits=24, t=2, max_order_product=4).orders == (2, 2)

    def test_each_order_is_computed_once_per_make_instance(self):
        # make_instance factors each generator's order once and hands it
        # to the independence check, in generate's final check and in loads.
        order = mock.Mock(wraps=instance.order_factors)
        real_make = instance.make_instance
        orders_per_make = []

        def make(*args, **kwargs):
            before = order.call_count
            built = real_make(*args, **kwargs)
            orders_per_make.append(order.call_count - before)
            return built

        shape = dict(seed=3, bits=24, t=4, require_collapse_resistant=True,
                     max_order_product=1 << 16)
        with mock.patch.object(instance, "order_factors", order), \
                mock.patch.object(subgroup, "order_factors", order), \
                mock.patch.object(instance, "make_instance", side_effect=make) as made:
            inst = generate(**shape)
            assert made.call_count == 1
            loaded = from_json_dict(to_json_dict(inst))
        assert orders_per_make == [shape["t"], shape["t"]]
        assert inst.independence_verified and loaded == inst

    def test_dependent_construction_raises(self):
        # A constructed draft is checked, never silently redrawn: dependent
        # generators mean the construction is wrong.
        real = instance._construct

        def doubled(*args):
            built = real(*args)
            if isinstance(built, str):
                return built
            (g, *_), (r, *_) = built
            return (g, g), (r, r)

        with mock.patch.object(instance, "_construct", side_effect=doubled), \
                pytest.raises(IndependenceViolation):
            generate(3, bits=24, t=2)

    def test_drawn_orders_are_checked_against_recomputed_ones(self):
        real_make = instance.make_instance

        def off_by_one(*args, **kwargs):
            built = real_make(*args, **kwargs)
            return replace(built, orders=(built.orders[0] + 1, *built.orders[1:]))

        with mock.patch.object(instance, "make_instance", side_effect=off_by_one), \
                pytest.raises(AssertionError, match="differ from the recomputed"):
            generate(3, bits=24, t=2)

    # sha256 over dumps(generate(**shape)) for each shape in turn. Any change
    # to the construction (which draws it consumes, which drafts it rejects)
    # changes the documents; the benchmark's exact counts rest on them
    # staying the same.
    PINNED_SHAPES = (
        dict(seed=0, bits=16, t=1),
        dict(seed=1, bits=16, t=2),
        dict(seed=2, bits=20, t=3, max_order_product=1 << 12),
        dict(seed=3, bits=24, t=4, max_order_product=1 << 16),
        dict(seed=5, bits=40, t=2, max_order_product=1 << 20),
        dict(seed=7, bits=40, t=4, max_order_product=1 << 16),
    )
    PINNED_DIGEST = "b9268621e619ac29a627fc0e4d94aad517b0c14842c937afe8741c88205b66ad"

    def test_documents_are_pinned(self):
        h = hashlib.sha256()
        for shape in self.PINNED_SHAPES:
            h.update(dumps(generate(**shape)).encode())
        assert h.hexdigest() == self.PINNED_DIGEST

    # Shapes that pin a hardness constraint: the cells where the shape built
    # for the constraints and the witness redraws matter. The first two are
    # the benchmark design grid's collapse-vulnerable cell and its 24-bit
    # t = 4 collapse- and peel-resistant cell.
    CONSTRAINED_SHAPES = (
        dict(seed=27, bits=32, t=2, require_collapse_resistant=False,
             require_peel_resistant=True, max_order_product=1 << 20),
        dict(seed=8, bits=24, t=4, require_collapse_resistant=True,
             require_peel_resistant=True, max_order_product=1 << 16),
        dict(seed=10, bits=20, t=3, require_collapse_resistant=False),
        dict(seed=11, bits=24, t=2, require_collapse_resistant=True,
             require_peel_resistant=False),
        dict(seed=12, bits=32, t=3, require_collapse_resistant=True,
             require_peel_resistant=True, max_order_product=1 << 18),
        dict(seed=4, bits=32, t=2, require_collapse_resistant=True),
        dict(seed=6, bits=40, t=3, require_peel_resistant=True, max_order_product=1 << 18),
    )
    CONSTRAINED_DIGEST = "3ebadeb43cfc1003610c863aeb9fb4dfb5243642d9b9587d66e4418c6037e53c"

    def test_constrained_documents_are_pinned(self):
        h = hashlib.sha256()
        for shape in self.CONSTRAINED_SHAPES:
            h.update(dumps(generate(**shape)).encode())
        assert h.hexdigest() == self.CONSTRAINED_DIGEST


class TestSerialization:
    def test_round_trip_document_identity(self, worked_example):
        doc = to_json_dict(worked_example)
        again = to_json_dict(from_json_dict(doc))
        assert doc == again

    def test_round_trip_with_provenance(self):
        inst = generate(55, bits=13, t=2)
        doc = to_json_dict(inst)
        assert doc["provenance"]["seed"] == 55
        assert to_json_dict(from_json_dict(doc)) == doc

    def test_json_text_round_trip(self, worked_example):
        text = dumps(worked_example)
        doc = json.loads(text)
        assert doc["n"] == "35"
        assert doc["generators"] == ["13", "19"]
        inst = loads(text)
        assert inst.beta == worked_example.beta

    def test_loads_dumps_is_identity(self, worked_example):
        for inst in (worked_example, generate(56, bits=20, t=3)):
            again = loads(dumps(inst))
            assert again == inst
            assert again.independence_verified

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(12, 24), st.integers(1, 3))
    def test_generated_round_trip(self, seed, bits, t):
        inst = generate(seed, bits=bits, t=t)
        doc = to_json_dict(inst)
        assert to_json_dict(from_json_dict(doc)) == doc
        assert loads(dumps(inst)) == inst

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(12, 24), st.integers(1, 3))
    def test_generated_single_edit_rejected(self, seed, bits, t):
        doc = to_json_dict(generate(seed, bits=bits, t=t))
        # generate always samples N with two or three prime factors.
        (p1, a1), (p2, a2), *rest = [(int(p), a) for p, a in doc["factors"]]
        merged = sorted([(p1**a1 * p2**a2, 1), *rest])
        orders = [str(int(doc["orders"][0]) + 1), *doc["orders"][1:]]
        n = int(doc["n"])
        edits = [
            ("beta", str(int(doc["beta"]) + 1), "disagrees with witness product"),
            ("orders", orders, "recomputed orders="),
            ("factors", [[str(p), a] for p, a in merged], "is not prime"),
            # A string where an array belongs, read one character at a time.
            *[
                (key, str(doc[key][0]), "must be arrays")
                for key in ("factors", "generators", "orders", "witness")
            ],
            ("factors", ["".join(map(str, pair)) for pair in doc["factors"]], "must be arrays"),
            # The same values plus N, which to_json_dict emits reduced.
            ("beta", str(int(doc["beta"]) + n), "recomputed beta="),
            ("generators", [str(int(g) + n) for g in doc["generators"]], "recomputed generators="),
            # Equal to 1 in Python, but not the JSON the emitter writes.
            ("version", True, "recomputed version=1"),
        ]
        for key, value, reason in edits:
            with pytest.raises(ValueError, match=reason):
                from_json_dict({**doc, key: value})
        if t >= 2:
            # Generator 1 becomes generator 0, its first power. Without the
            # witness no beta check stands in front of the independence check.
            gens = list(doc["generators"])
            gens[1] = gens[0]
            with pytest.raises(ValueError):
                from_json_dict({**doc, "generators": gens})
            bare = {k: v for k, v in doc.items() if k != "witness"}
            with pytest.raises(IndependenceViolation):
                from_json_dict({**bare, "generators": gens})

    def test_order_product_above_two_to_the_twenty(self):
        # Generator i is 2 at prime i and 1 at the others, so every pair
        # spans about 10**12 elements, far past what a closure could list.
        primes = (1_000_003, 1_000_033, 1_000_037)
        gens = [
            solve_system([Congruence(2 if q == p else 1, q) for q in primes]).residue
            for p in primes
        ]
        inst = make_instance(math.prod(primes), gens, witness=(5, 6, 7))
        assert math.prod(inst.orders) > 1 << 40
        assert inst.independence_verified
        assert loads(dumps(inst)) == inst

    def test_dependent_generators_rejected(self):
        # 13 and 13 over N = 35: built without the check, refused on load.
        inst = make_instance(35, [13, 13], witness=(1, 1), check_independence=False)
        assert not inst.independence_verified
        with pytest.raises(IndependenceViolation) as exc:
            loads(dumps(inst))
        assert exc.value.witness == (0, 1)

    def test_tampered_beta_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["beta"] = "22"
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_tampered_orders_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["orders"] = ["4", "4"]
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_bad_factors_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["factors"] = [["5", 1], ["11", 1]]
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_composite_factor_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["factors"] = [["35", 1]]
        with pytest.raises(ValueError, match="listed factor 35 is not prime"):
            from_json_dict(doc)

    def test_witness_out_of_range_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["witness"] = ["7", "13"]
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_unknown_version_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        doc["version"] = 99
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_missing_field_rejected(self, worked_example):
        doc = to_json_dict(worked_example)
        del doc["generators"]
        with pytest.raises(ValueError):
            from_json_dict(doc)
