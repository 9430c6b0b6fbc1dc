"""Permutations of {1, ..., n+1}, generating sets, and conjugacy classes.

Index semantics are 1-based throughout, matching the e_1, ..., e_{n+1}
labelling of the representation spaces built on top of this module.
Conjugacy classes are keyed by partitions of n+1 stored in weakly
decreasing order, listed in descending lexicographic order, so the class
of the identity comes last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., m}; ``images[i-1]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection of 1..{m}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} outside 1..{len(self.images)}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def from_cycles(m: int, cycles) -> "Permutation":
        images = list(range(1, m + 1))
        for cycle in cycles:
            for pos, i in enumerate(cycle):
                images[i - 1] = cycle[(pos + 1) % len(cycle)]
        return Permutation(tuple(images))


def transposition(m: int, i: int, j: int) -> Permutation:
    return Permutation.from_cycles(m, [(i, j)])


def full_cycle(m: int) -> Permutation:
    return Permutation.from_cycles(m, [tuple(range(1, m + 1))])


def generators(n: int) -> list[Permutation]:
    """The transposition (1 2) and the (n+1)-cycle, deduplicated.

    These two elements generate the full permutation group of
    {1, ..., n+1}, so a vector fixed by both is fixed by every element.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = n + 1
    gens = [transposition(m, 1, 2), full_cycle(m)]
    if gens[0] == gens[1]:
        return [gens[0]]
    return gens


def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``m`` in descending lexicographic order."""

    def gen(rest: int, max_part: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, max_part), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(m, m))


def class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations with the given cycle type."""
    m = sum(cycle_type)
    size = math.factorial(m)
    for part in cycle_type:
        size //= part
    mult: dict[int, int] = {}
    for part in cycle_type:
        mult[part] = mult.get(part, 0) + 1
    for count in mult.values():
        size //= math.factorial(count)
    return size


@dataclass(frozen=True)
class ConjugacyClass:
    cycle_type: tuple[int, ...]
    class_size: int
    representative: Permutation


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple[ConjugacyClass, ...]:
    """One class per partition of n+1; class sizes sum to (n+1)!."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m = n + 1
    out = []
    for lam in partitions(m):
        cycles = []
        next_label = 1
        for part in lam:
            cycles.append(tuple(range(next_label, next_label + part)))
            next_label += part
        out.append(
            ConjugacyClass(
                cycle_type=lam,
                class_size=class_size(lam),
                representative=Permutation.from_cycles(m, cycles),
            )
        )
    return tuple(out)
