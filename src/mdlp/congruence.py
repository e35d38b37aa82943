"""Simultaneous congruences with non-coprime moduli.

A pair x = b1 (mod m1), x = b2 (mod m2) is solvable exactly when
gcd(m1, m2) divides b1 - b2, and then the solution is unique modulo
lcm(m1, m2). Larger systems are merged pairwise left to right, the
combined modulus accumulating as an lcm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnsolvableSystem


@dataclass(frozen=True)
class Congruence:
    """x = residue (mod modulus), residue normalized into [0, modulus)."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def holds_for(self, x: int) -> bool:
        return x % self.modulus == self.residue


def solvable_pair(c1: Congruence, c2: Congruence) -> bool:
    """True iff gcd(m1, m2) divides the residue difference."""
    return (c1.residue - c2.residue) % math.gcd(c1.modulus, c2.modulus) == 0


def _merge(c1: Congruence, c2: Congruence) -> Optional[Congruence]:
    b1, m1 = c1.residue, c1.modulus
    b2, m2 = c2.residue, c2.modulus
    g = math.gcd(m1, m2)
    if (b2 - b1) % g != 0:
        return None
    l = m1 // g * m2
    step = m2 // g
    t = (b2 - b1) // g * pow(m1 // g, -1, step) % step
    return Congruence(b1 + m1 * t, l)


def solve_system(system) -> Congruence:
    """Merge a congruence system into its unique solution: one residue
    class mod the lcm of all the moduli.

    Raises UnsolvableSystem carrying a witnessing pair of item indices when
    no common solution exists.
    """
    items: Sequence[Congruence] = list(system)
    if not items:
        raise ValueError("a congruence system needs at least one item")
    acc = items[0]
    for i, c in enumerate(items[1:], start=1):
        merged = _merge(acc, c)
        if merged is None:
            # Pairwise solvability implies global solvability, so some
            # earlier item must conflict with this one directly.
            for j in range(i):
                if not solvable_pair(items[j], c):
                    raise UnsolvableSystem((j, i), items[j], c)
            raise AssertionError("merge failed but all pairs are solvable")
        acc = merged
    return acc


def split_exponent(k: int, orders: Sequence[int]) -> list[int]:
    """[k mod r1, ..., k mod rt]."""
    if not orders:
        raise ValueError("orders must be nonempty")
    if any(r < 1 for r in orders):
        raise ValueError("orders must be >= 1")
    return [k % r for r in orders]
