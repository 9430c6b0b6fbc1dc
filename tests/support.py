"""Test-side helpers the engine does not need.

Brute-force permutation references, the brute-force listing of a
space's monomials, linear combinations of vectors, and one reset of every
memo of the engine.
"""

import itertools
import sys
from fractions import Fraction

from equivext.linalg import _add_into
from equivext.spaces import Monomial, SpaceDescriptor, SparseVector
from equivext.symgroup import Permutation


def all_elements(m: int) -> list[Permutation]:
    """Every permutation of {1, ..., m}; only sensible for small m."""
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(1, m + 1)))


def after(p: Permutation, q: Permutation) -> Permutation:
    """p after q: i -> p(q(i))."""
    return Permutation(tuple(p(q(i)) for i in range(1, q.degree + 1)))


def cycle_type(p: Permutation) -> tuple[int, ...]:
    seen: set[int] = set()
    lengths = []
    for start in range(1, p.degree + 1):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i, length = p(i), length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def monomials(s: SpaceDescriptor) -> tuple[Monomial, ...]:
    """Every basis monomial of W(n; k, a, b), in increasing order of wedge, duals, legs."""
    gens = [(letter, i) for letter in "uv" for i in range(1, s.n + 1)]
    leg_range = range(1, s.n + 1)
    out = []
    for wedge in itertools.combinations(gens, s.k):
        for duals in itertools.product(leg_range, repeat=s.a):
            for legs in itertools.product(leg_range, repeat=s.b):
                out.append(Monomial(tuple(wedge), duals, legs))
    return tuple(out)


def combination(*pairs) -> SparseVector:
    """The sum of c * x over the (c, x) pairs, whose vectors share one space."""
    space = pairs[0][1].space
    assert all(x.space == space for _, x in pairs)
    terms: dict = {}
    for c, x in pairs:
        _add_into(terms, x.terms.items(), Fraction(c))
    return SparseVector(space, terms)


def clear_caches() -> None:
    """Empty every ``functools`` cache of the loaded ``equivext`` modules."""
    for name, module in list(sys.modules.items()):
        if name == "equivext" or name.startswith("equivext."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
