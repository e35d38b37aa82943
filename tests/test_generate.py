"""generate builds its generators on the sampled modulus: few attempts, and
every instance independent, within its bound and under its constraints."""

import math
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdlp import instance, subgroup
from mdlp.arith import multiplicative_order
from mdlp.instance import generate, hardness_report

# The benchmark's design grid: bits x t x constraints, each t with its
# order bound, plus the collapse-vulnerable, peel-resistant cell.
DESIGN_BITS = (24, 32, 40)
DESIGN_TS = (2, 3, 4)
DESIGN_CONSTRAINTS = (
    {},
    {"require_collapse_resistant": True},
    {"require_collapse_resistant": True, "require_peel_resistant": True},
)
DESIGN_ORDER_BOUND = {2: 1 << 20, 3: 1 << 18, 4: 1 << 16}
DESIGN_SHAPES = [
    {"bits": bits, "t": t, "max_order_product": DESIGN_ORDER_BOUND[t], **constraint}
    for bits in DESIGN_BITS
    for t in DESIGN_TS
    for constraint in DESIGN_CONSTRAINTS
] + [
    {"bits": 32, "t": 2, "max_order_product": 1 << 20,
     "require_collapse_resistant": False, "require_peel_resistant": True},
]


def assert_meets(inst, bits, t, bound, collapse=None, peel=None):
    assert inst.n.bit_length() == bits and inst.t == t
    assert subgroup.independence_check(inst.generators, inst.modulus).independent
    assert inst.orders == tuple(multiplicative_order(g, inst.modulus) for g in inst.generators)
    assert math.prod(inst.orders) <= bound
    report = hardness_report(inst)
    for wanted, got in ((collapse, report.collapse.resistant), (peel, report.peel.resistant)):
        assert wanted is None or got == wanted


def test_design_shapes_build_within_a_few_attempts():
    assert len(DESIGN_SHAPES) == 28
    checks = []
    real = subgroup._independence

    def recorded(*args):
        checks.append(real(*args))
        return checks[-1]

    with mock.patch.object(instance, "DEFAULT_MAX_ATTEMPTS", 8), \
            mock.patch.object(subgroup, "_independence", side_effect=recorded):
        built = [(generate(seed, **shape), shape) for seed in range(10) for shape in DESIGN_SHAPES]
    # One check per instance, on the draft it accepts, and never dependent.
    assert len(checks) == len(built)
    assert all(res.independent for res in checks)
    for inst, shape in built:
        assert_meets(
            inst, shape["bits"], shape["t"], shape["max_order_product"],
            shape.get("require_collapse_resistant"), shape.get("require_peel_resistant"),
        )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    bits=st.integers(10, 40),
    t=st.integers(1, 4),
    collapse=st.sampled_from([None, True, False]),
    peel=st.sampled_from([None, True, False]),
    bound=st.sampled_from([None, 1 << 12, 1 << 20]),
)
def test_generated_instances_meet_their_constraints(seed, bits, t, collapse, peel, bound):
    # t = 1 is never collapse- or peel-resistant; every other combination is.
    assume(t > 1 or not (collapse or peel))
    inst = generate(seed, bits=bits, t=t, require_collapse_resistant=collapse,
                    require_peel_resistant=peel, max_order_product=bound)
    assert_meets(inst, bits, t, 1 << 17 if bound is None else bound, collapse, peel)
