"""Brute-force subgroup closures: the oracle the independence check is
tested against.

Closures are enumerated breadth-first under generator multiplication, so
they are exact, and their cost grows with the subgroup. Test use only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from mdlp.errors import NotAUnit
from mdlp.subgroup import IndependenceResult


@dataclass(frozen=True)
class SubgroupClosure:
    """Full element set of <generators> mod modulus, sorted ascending."""

    modulus: int
    generators: tuple[int, ...]
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


def close(generators: Sequence[int], n: int) -> SubgroupClosure:
    """Enumerate the subgroup generated by ``generators`` mod n.

    An empty generator list yields the trivial group {1}.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    gens = tuple(g % n for g in generators)
    for g in gens:
        d = math.gcd(g, n)
        if d != 1:
            raise NotAUnit(g, n, d)
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g % n
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return SubgroupClosure(n, gens, tuple(sorted(seen)))


def closure_independence(generators: Sequence[int], n: int) -> IndependenceResult:
    """For each i and each 1 <= v < order(g_i), test g_i**v against the
    closure of the other generators; the first hit is the witness."""
    gens = [g % n for g in generators]
    for i, g in enumerate(gens):
        others = close(gens[:i] + gens[i + 1 :], n)
        r = close([g], n).order
        x = g
        for v in range(1, r):
            if x in others:
                return IndependenceResult(False, (i, v))
            x = x * g % n
    return IndependenceResult(True, None)
