"""Multiple-discrete-logarithm instances over Z_N: construction,
validation, solving and attacking, with an index-calculus side channel for
single discrete logs over prime fields.
"""

from .arith import (
    Factorization,
    Modulus,
    factorize,
    is_probable_prime,
    multiplicative_order,
    primes_up_to,
)
from .congruence import (
    Congruence,
    solvable_pair,
    solve_system,
    split_exponent,
)
from .errors import (
    BudgetExceeded,
    GenerationFailed,
    IndependenceViolation,
    InvalidModulus,
    MdlpError,
    NotAUnit,
    RankDeficient,
    UnsolvableSystem,
)
from .indexcalc import (
    Relation,
    RelationMatrix,
    build_factor_base,
    collect_relations,
    dlp_via_index_calculus,
    relation_rank_demo,
    solve_base_logs,
    try_smooth,
)
from .instance import (
    HardnessReport,
    Instance,
    check_collapse_resistance,
    check_peel_resistance,
    from_json_dict,
    generate,
    hardness_report,
    make_instance,
    to_json_dict,
    truth_table,
    verify,
)
from .solvers import (
    PeelResult,
    Solution,
    attack_collapse,
    attack_peel,
    solve,
    solve_dlp,
    solve_exhaustive,
    solve_mitm,
)
from .subgroup import independence_check

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Congruence",
    "Factorization",
    "GenerationFailed",
    "HardnessReport",
    "IndependenceViolation",
    "Instance",
    "InvalidModulus",
    "MdlpError",
    "Modulus",
    "NotAUnit",
    "PeelResult",
    "RankDeficient",
    "Relation",
    "RelationMatrix",
    "Solution",
    "UnsolvableSystem",
    "attack_collapse",
    "attack_peel",
    "build_factor_base",
    "check_collapse_resistance",
    "check_peel_resistance",
    "collect_relations",
    "dlp_via_index_calculus",
    "factorize",
    "from_json_dict",
    "generate",
    "hardness_report",
    "independence_check",
    "is_probable_prime",
    "make_instance",
    "multiplicative_order",
    "primes_up_to",
    "relation_rank_demo",
    "solvable_pair",
    "solve",
    "solve_base_logs",
    "solve_dlp",
    "solve_exhaustive",
    "solve_mitm",
    "solve_system",
    "split_exponent",
    "to_json_dict",
    "truth_table",
    "try_smooth",
    "verify",
]
