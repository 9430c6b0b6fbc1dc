"""Permutations of {1, ..., n+1} and the generating set the engine checks against.

Index semantics are 1-based throughout, matching the e_1, ..., e_{n+1}
labelling of the representation spaces built on top of this module.
"""

from __future__ import annotations

from typing import NamedTuple


class _Permutation(NamedTuple):
    images: tuple[int, ...]


class Permutation(_Permutation):
    """A bijection of {1, ..., m}; ``images[i-1]`` is the image of i."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        m = len(images)
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection of 1..{m}: {images}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} outside 1..{len(self.images)}")
        return self.images[i - 1]


def transposition(m: int, i: int, j: int) -> Permutation:
    images = list(range(1, m + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def full_cycle(m: int) -> Permutation:
    return Permutation((*range(2, m + 1), 1))


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
