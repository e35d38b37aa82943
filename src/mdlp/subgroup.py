"""Multiplicative subgroups of Z_N*: closure, membership, independence.

Closures are enumerated breadth-first under generator multiplication, so
they are exact; a configurable element cap keeps large instances honest by
raising CapacityExceeded ("undecidable at this cap") instead of guessing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import CapacityExceeded, NotAUnit

DEFAULT_CAP = 1 << 20


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


def close(generators: Sequence[int], n: int, cap: int = DEFAULT_CAP) -> SubgroupClosure:
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
                    if len(seen) > cap:
                        raise CapacityExceeded(
                            f"closure of {gens} mod {n} exceeds cap {cap}"
                        )
                    nxt.append(y)
        frontier = nxt
    return SubgroupClosure(n, gens, tuple(sorted(seen)))


class IndependenceResult(NamedTuple):
    independent: bool
    witness: Optional[tuple[int, int]]  # (generator index, exponent)


def independence_check(
    generators: Sequence[int], n: int, cap: int = DEFAULT_CAP
) -> IndependenceResult:
    """Check that no proper power of any generator is spanned by the others.

    For each i and each 1 <= v < order(g_i), tests g_i**v against the
    closure of the remaining generators. Returns the first violating
    (i, v) when the check fails. CapacityExceeded propagates: an oversize
    closure means undecidable, not independent.
    """
    gens = [g % n for g in generators]
    for i, g in enumerate(gens):
        others = close(gens[:i] + gens[i + 1 :], n, cap)
        r = close([g], n, cap).order
        x = g
        for v in range(1, r):
            if x in others:
                return IndependenceResult(False, (i, v))
            x = x * g % n
    return IndependenceResult(True, None)
