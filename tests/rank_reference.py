"""The monomial rank path, kept as a reference for the pattern-reading one.

:func:`monomial_map_rank` composes each vector of the materialised
source basis with the class as a whole and reads every monomial of the
image back in the target's orbit-sum coordinates with
:func:`invariant_pattern_vector`, which checks every orbit in full.
:func:`equivext.yoneda.map_rank` reads each image at two monomials per
orbit instead, from the few source terms that reach them, so the tests
compare the two.
"""

import math
from collections import Counter
from fractions import Fraction

from equivext.characters import invariant_dim
from equivext.linalg import _add_into, integer_scaled, rank_of_rows
from equivext.patterns import _LEG, _U, _V, _patterns, block_kernel, pattern_dim, pattern_of
from equivext.spaces import Monomial, SpaceDescriptor, SparseVector, invariant_basis
from equivext.yoneda import DistinguishedClass, _map_target, build_class, compose


def _orbit_size(pattern: tuple[int, ...], n: int) -> int:
    """Number of monomials in the orbit of a consistent pattern: n!/((n-t)! m!).

    t is the number of types and m the number of leg-free types carrying
    both a u- and a v-factor, the only types that can repeat.
    """
    return math.perm(n, len(pattern)) // math.factorial(pattern.count(_U | _V))


def invariant_pattern_vector(s: SpaceDescriptor, terms: dict) -> dict[tuple, int]:
    """An invariant of ``s`` in orbit-sum coordinates, checked, in integers.

    ``terms`` maps monomials of ``s`` to rationals; it is scaled to
    integers by the lcm of its denominators. Returns the coefficient of
    each orbit sum, keyed by (number of u-factors, pattern). Raises
    ``ValueError`` unless ``terms`` is fixed by the whole group:

    * every monomial's pattern is consistent, and its coefficient times
      its :func:`pattern_of` sign is the same on the whole pattern;
    * each pattern has its full orbit of monomials, so ``terms`` is
      exactly a combination of orbit sums, that is S_n-invariant;
    * each block's combination reduces to zero against the block's
      pattern kernel, so it lies in the invariants.

    >>> from equivext.spaces import SpaceDescriptor, invariant_basis
    >>> s = SpaceDescriptor(n=2, k=2, a=0, b=0)
    >>> omega = invariant_basis(s).vectors[0]
    >>> omega.render()
    'u1^v1 + 1/2*u1^v2 + 1/2*u2^v1 + u2^v2'
    >>> invariant_pattern_vector(s, omega.terms)  # types: 1 = v only, 2 = u only, 3 = both
    {(1, (1, 2)): 1, (1, (3,)): 2}
    """
    n, legs = s.n, ((1 << (s.a + s.b)) - 1) * _LEG
    _, ints = integer_scaled(terms)
    blocks: dict[int, dict[tuple[int, ...], int]] = {}  # p -> pattern -> coefficient
    count: Counter = Counter()
    for m, c in ints.items():
        p, pattern, sign = pattern_of(m, n)
        if blocks.setdefault(p, {}).setdefault(pattern, c * sign) != c * sign:
            raise ValueError(f"coefficients vary on an orbit of {s}")
        count[p, pattern] += 1
    for p, coeffs in blocks.items():
        order = {pattern: j for j, pattern in enumerate(_patterns(p, s.k - p, legs, n))}
        for pattern in coeffs:
            if pattern not in order:
                raise ValueError(f"nonzero coefficient on an inconsistent orbit of {s}")
            if count[p, pattern] != _orbit_size(pattern, n):
                raise ValueError(f"incomplete orbit in {s}")
        residue = dict(coeffs)
        for vec in block_kernel(s, p):
            coord = residue.get(max(vec, key=order.__getitem__))
            if coord:
                _add_into(residue, vec.items(), -coord)
        if residue:
            raise ValueError(f"orbit combination outside the invariants of {s}")
    return {(p, pattern): c for p, coeffs in blocks.items() for pattern, c in coeffs.items()}


def monomial_map_rank(c: DistinguishedClass, side: str, source: SpaceDescriptor) -> int:
    """Rank of composing with ``c`` on the invariants of ``source``, on monomials.

    Each image of an :func:`invariant_basis` vector of ``source`` is
    composed whole and read by :func:`invariant_pattern_vector`; the
    target's pattern dimension is checked against the character oracle.
    """
    target = _map_target(c.space, side, source)
    dim, expected = pattern_dim(target), invariant_dim(target)
    if dim != expected:
        raise RuntimeError(f"{target} has dimension {dim}, oracle {expected}")
    columns: dict[tuple, int] = {}
    rows = []
    for vec in invariant_basis(source).vectors:
        image = compose(c.value, vec) if side == "push" else compose(vec, c.value)
        coords = invariant_pattern_vector(target, image.terms)
        rows.append({columns.setdefault(key, len(columns)): x for key, x in coords.items()})
    return rank_of_rows(rows, len(columns))


def omega_powers(n: int):
    """omega^0 = 1, omega^1, ..., omega^(n-1), vectors of W(n; 2i, 0, 0), by :func:`compose`."""
    power = SparseVector(SpaceDescriptor(n, 0, 0, 0), {Monomial((), (), ()): Fraction(1)})
    omega = build_class("omega", n).value
    for _ in range(n):
        yield power
        power = compose(omega, power)
