#!/usr/bin/env python3
"""The index-calculus pipeline over F_107, then the reason it stalls on
multi-generator targets.

Part 1 solves 2**x = 61 (mod 107) the long way: factor base, smooth
relations, base logs, smooth shift. Part 2 builds the per-base linear
equation for a two-generator target with two different bases and shows the
second equation is just a rescaling of the first: rank 1, two unknowns.
"""

from mdlp import (
    build_factor_base,
    collect_relations,
    dlp_via_index_calculus,
    relation_rank_demo,
    solve_base_logs,
)
from mdlp.indexcalc import relation_holds

P, ALPHA, BETA = 107, 2, 61

fb = build_factor_base(P, 7)
print(f"factor base for p={P}, B=7: {fb}")

mat = collect_relations(P, ALPHA, fb, slack=3, seed=1)
print(f"\ncollected {len(mat.rows)} smooth relations (need {len(fb)} + 3):")
for rel in mat.rows[:6]:
    terms = " * ".join(
        f"{q}^{a}" for q, a in zip(fb, rel.exponents) if a
    ) or "1"
    print(f"  {ALPHA}^{rel.k} = {terms} (mod {P})   holds: {relation_holds(P, ALPHA, fb, rel)}")
print("  ...")

logs = solve_base_logs(mat)
print("\nbase logs (each re-verified by powering):")
for q, log in zip(fb, logs):
    print(f"  log_{ALPHA}({q}) = {log:>3}   check: {ALPHA}^{log} mod {P} = {pow(ALPHA, log, P)}")

x = dlp_via_index_calculus(P, ALPHA, BETA, bound=7, seed=1)
print(f"\nlog_{ALPHA}({BETA}) mod {P} = {x}   check: {ALPHA}^{x} mod {P} = {pow(ALPHA, x, P)}")

print("\n--- why this cannot separate several unknown exponents ---")
g1, g2 = 3, 5
beta = g1 * pow(g2, 3, P) % P
alpha2 = pow(ALPHA, 5, P)  # same order 106 as 2
rep = relation_rank_demo(P, [ALPHA, alpha2], [g1, g2], beta)
print(f"bases {ALPHA} and {alpha2}, both of order {rep.orders[0]} mod {P}")
print(f"equation base {ALPHA}:  log(beta)={rep.target_logs[0]}, gen logs {rep.generator_logs[0]}")
print(f"equation base {alpha2}: log(beta)={rep.target_logs[1]}, gen logs {rep.generator_logs[1]}")
print(f"second equation * log_{ALPHA}({alpha2}) = {rep.factors[1]} reproduces the first: "
      f"{rep.proportional}")
print(f"rank of the stacked coefficient rows mod each prime factor of 106: {rep.ranks}")
print("one independent equation, two unknown exponents: the k_i stay entangled")

rep2 = relation_rank_demo(P, [2, 4], [g1, g2], beta)
print(f"\nwith bases of different orders {rep2.orders}: {rep2.note}")
