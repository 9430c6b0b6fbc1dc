"""Wedge/tensor spaces W(n; k, a, b) with a symmetric-group action.

W(n; k, a, b) is the k-th exterior power of the 2n-dimensional space
spanned by the generators u1, ..., un, v1, ..., vn, tensored with ``a``
dual legs and ``b`` plain legs carrying indices in 1..n. The group of
permutations of {1, ..., n+1} acts by permuting indices; whenever an index
lands on n+1 it is eliminated eagerly through the defining relation
e_{n+1} = -(e_1 + ... + e_n) (same for dual legs), so stored monomials
only ever mention indices 1..n. The wedge factors are kept strictly
increasing in the total order "all u-generators before all v-generators,
each block by index", which fixes every sign once and for all.

Coefficients produced by the action are integers; they become
``Fraction``s only in elimination and in the vectors handed out.
Invariant subspaces are computed per block of monomials with fixed
numbers of u- and v-factors, which the action preserves. Each block's
invariants come from the pattern kernel of :mod:`equivext.patterns`;
only a block whose kernel is nonempty is listed, by :func:`_block`, the
one enumerator of monomials. The kernel is expanded to the block's
monomials, put in reduced echelon form and checked in
integer arithmetic against both group generators. For the check, the
image of a monomial under a generator is an integer row over positions
in the block. A permutation acts on the wedge part and on each leg
separately, so the row is the product of a wedge row, the normal form of
the image of one wedge, and a leg row built from the n x n index table
j -> sigma(j) over every leg slot. Wedge rows are computed only for the
wedges of the checked vectors, and dropped with the block. Reduced
echelon bases are unique, so the output is reproducible bit for bit no
matter how the kernel was obtained.

This module materialises invariant vectors, which only printed bases
need. Callers that need only a dimension use
:func:`equivext.patterns.pattern_dim`, or :func:`checked_dim`, which
also compares it with the character oracle, as ``invariants`` and the
rank battery do. The rank battery builds no basis: it reads its images
with :func:`equivext.patterns.read_orbits`, and only its sources with
legs are written out on their blocks and checked here,
by :func:`_invariant_vectors_block`. Each basis :func:`invariant_basis`
returns is checked against the character oracle; none is memoised.

>>> s = SpaceDescriptor(n=2, k=2, a=0, b=0)
>>> len(invariant_basis(s).vectors)
1
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .characters import invariant_dim
from .linalg import _add_into, integer_scaled, rref_vectors
from .patterns import Kernel, block_kernel, pattern_dim, pattern_of
from .symgroup import Permutation, generators

Gen = tuple[str, int]  # ("u" | "v", index in 1..n)


def _exact(c) -> Fraction:
    """``c`` as a ``Fraction``; a float raises ``TypeError``, since it is not exact."""
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}; coefficients must be exact")
    return Fraction(c)


def _sort_wedge(gens: tuple[Gen, ...] | list[Gen]) -> tuple[int, tuple[Gen, ...]] | None:
    """Sort wedge factors into the fixed order: u before v, each by index.

    Returns (sign, sorted tuple), or None if a factor repeats.
    """
    arr = list(gens)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0:
            a, b = arr[j - 1], arr[j]
            if a == b:
                return None
            if a > b:
                arr[j - 1], arr[j] = b, a
                sign = -sign
                j -= 1
            else:
                break
    return sign, tuple(arr)


class _SpaceDescriptor(NamedTuple):
    n: int
    k: int
    a: int
    b: int


class SpaceDescriptor(_SpaceDescriptor):
    """Names the space W(n; k, a, b); the group is the permutations of n+1."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, a: int, b: int):
        self = super().__new__(cls, n, k, a, b)
        if n < 1 or k < 0 or a < 0 or b < 0:
            raise ValueError(f"invalid descriptor {self}")
        return self

    @property
    def validated_legs(self) -> bool:
        """Leg counts above 1 are permitted but outside the validated paths."""
        return self.a <= 1 and self.b <= 1


def space_dim(s: SpaceDescriptor) -> int:
    """C(2n, k) * n^(a+b); zero when k exceeds 2n."""
    return math.comb(2 * s.n, s.k) * s.n ** (s.a + s.b)


class Monomial(NamedTuple):
    """One basis element: sorted wedge part plus dual-leg and leg indices."""

    wedge: tuple[Gen, ...]
    duals: tuple[int, ...]
    legs: tuple[int, ...]

    def render(self) -> str:
        """Stable text form, e.g. ``u1^v1^v2|d1|e2``; empty wedge prints 1."""
        head = "^".join(f"{letter}{idx}" for letter, idx in self.wedge) or "1"
        tail = "".join(f"|d{i}" for i in self.duals) + "".join(f"|e{i}" for i in self.legs)
        return head + tail


def parse_monomial(text: str) -> Monomial:
    """Inverse of :meth:`Monomial.render`."""
    parts = text.split("|")
    head = parts[0]
    wedge: list[Gen] = []
    if head != "1":
        for item in head.split("^"):
            letter, idx = item[:1], int(item[1:])
            if letter not in ("u", "v") or idx < 1:
                raise ValueError(f"bad wedge factor {item!r}")
            wedge.append((letter, idx))
    duals = []
    legs = []
    for item in parts[1:]:
        kind, idx = item[:1], int(item[1:])
        if kind not in ("d", "e") or idx < 1:
            raise ValueError(f"bad leg {item!r}")
        (duals if kind == "d" else legs).append(idx)
    return Monomial(tuple(wedge), tuple(duals), tuple(legs))


def _check_basis_monomial(m: Monomial, s: SpaceDescriptor) -> None:
    """Raise ``ValueError`` unless ``m`` is one of the basis monomials of ``s``."""
    w = m.wedge
    if (len(w), len(m.duals), len(m.legs)) != (s.k, s.a, s.b):
        raise ValueError(f"{m.render()} has the wrong wedge length or leg counts for {s}")
    if any(letter not in ("u", "v") for letter, _ in w) or any(
        x >= y for x, y in zip(w, w[1:])
    ):
        raise ValueError(f"wedge of {m.render()} is not strictly increasing")
    if not all(1 <= i <= s.n for i in (*(i for _, i in w), *m.duals, *m.legs)):
        raise ValueError(f"{m.render()} has an index outside 1..{s.n}")


class _SparseVector(NamedTuple):
    space: SpaceDescriptor
    terms: dict[Monomial, Fraction]


class SparseVector(_SparseVector):
    """Exact rational combination of monomials from one space."""

    __slots__ = ()

    def __new__(cls, space: SpaceDescriptor, terms: dict[Monomial, Fraction]):
        for m, c in terms.items():
            if c == 0:
                raise ValueError(f"stored zero coefficient at {m.render()}")
        return super().__new__(cls, space, terms)

    @classmethod
    def make(cls, space: SpaceDescriptor, terms) -> "SparseVector":
        """Vector from (monomial, coefficient) pairs; zero coefficients are dropped.

        Raises ``ValueError`` for a monomial that is not a basis monomial
        of ``space`` and ``TypeError`` for a float coefficient. The engine
        builds its vectors with the constructor, which does not check.
        """
        clean = {m: x for m, c in dict(terms).items() if (x := _exact(c))}
        for m in clean:
            _check_basis_monomial(m, space)
        return cls(space, clean)

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def coeff_of(self, rendered: str) -> Fraction:
        return self.coeff(parse_monomial(rendered))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: _monomial_sort_key(mc[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            bits.append(f"{c}*{m.render()}" if c != 1 else m.render())
        return " + ".join(bits)


def _monomial_sort_key(m: Monomial):
    return (len(m.wedge), m.wedge, m.duals, m.legs)


def _block(s: SpaceDescriptor, p: int) -> tuple[Monomial, ...]:
    """The monomials of ``s`` with p u- and k - p v-factors; the only listing of monomials.

    Wedge-major in increasing wedge order, each wedge followed by its
    n^(a+b) leg tuples in ``itertools.product`` order: the layout
    :class:`_ActionTable` reads.
    """
    indices = range(1, s.n + 1)
    leg_tuples = [(t[: s.a], t[s.a :]) for t in itertools.product(indices, repeat=s.a + s.b)]
    wedges = (
        tuple(("u", i) for i in us) + tuple(("v", j) for j in vs)
        for us in itertools.combinations(indices, p)
        for vs in itertools.combinations(indices, s.k - p)
    )
    return tuple(Monomial(w, duals, legs) for w in wedges for duals, legs in leg_tuples)


def _expand_index(j: int, n: int) -> tuple[tuple[int, int], ...]:
    """Index j in 1..n+1 as ((coeff, index), ...) with every index <= n.

    Index n+1 is eliminated through e_{n+1} = -(e_1 + ... + e_n).
    """
    if j <= n:
        return ((1, j),)
    return tuple((-1, t) for t in range(1, n + 1))


def _normal_form(wedge, duals, legs, n: int) -> dict[Monomial, int]:
    """Expansion of a monomial whose indices may be n+1 into stored monomials.

    ``wedge`` holds (letter, index) factors in any order, ``duals`` and
    ``legs`` hold indices; every index n+1 is eliminated and the wedge
    factors are sorted with their sign. Repeated factors give nothing.
    Every coefficient is an ``int``.
    """
    heads = [(1, ())]
    for letter, j in wedge:
        heads = [(s * c, t + ((letter, i),)) for s, t in heads for c, i in _expand_index(j, n)]
    tails = [(1, ())]
    for j in (*duals, *legs):
        tails = [(s * c, t + (i,)) for s, t in tails for c, i in _expand_index(j, n)]
    a = len(duals)
    tails = [(s, t[:a], t[a:]) for s, t in tails]
    out: dict[Monomial, int] = {}
    for wsign, gens in heads:
        sorted_w = _sort_wedge(gens)
        if sorted_w is None:
            continue
        ssign, w = sorted_w
        _add_into(out, ((Monomial(w, d, l), sign) for sign, d, l in tails), wsign * ssign)
    return out


def act_monomial(sigma: Permutation, m: Monomial, n: int) -> dict[Monomial, int]:
    return _normal_form(
        [(letter, sigma(i)) for letter, i in m.wedge],
        [sigma(i) for i in m.duals],
        [sigma(i) for i in m.legs],
        n,
    )


def act(sigma: Permutation, x: SparseVector) -> SparseVector:
    """Left action of ``sigma``; indices hitting n+1 are expanded eagerly."""
    n = x.space.n
    if sigma.degree != n + 1:
        raise ValueError(f"permutation degree {sigma.degree} does not match n={n}")
    terms: dict[Monomial, Fraction] = {}
    for m, c in x.terms.items():
        _add_into(terms, act_monomial(sigma, m, n).items(), c)
    return SparseVector(x.space, terms)


class InvariantBasis(NamedTuple):
    """Echelonized basis of the subspace fixed by the whole group."""

    space: SpaceDescriptor
    vectors: tuple[SparseVector, ...]
    pivots: tuple[Monomial, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coordinates(self, x: SparseVector) -> list[Fraction]:
        """Coordinates of ``x`` in this basis; exact, no projection residue.

        Raises if ``x`` lies outside the span.
        """
        coords = [x.coeff(p) for p in self.pivots]
        residual = dict(x.terms)
        for c, vec in zip(coords, self.vectors):
            if c:
                _add_into(residual, vec.terms.items(), -c)
        if residual:
            raise ValueError("vector is not in the invariant subspace")
        return coords


class _ActionTable:
    """Images of the monomials of one block under one permutation, in ints.

    ``row(i)`` lists the (j, c) with sigma(block[i]) = sum of c * block[j].

    The permutation acts on the wedge part and on each leg on its own, so
    row i is a product of two factors. ``block`` must be a block as
    :func:`_block` lists it: wedge-major, each wedge followed by its
    L = n^(a+b) leg tuples in ``itertools.product`` order, so position
    w * L + l is the w-th wedge with the l-th leg tuple. The L leg rows
    are built up front from the images sigma(j) of the indices j = 1..n
    (index n+1 expanded), multiplied out over the a + b leg slots. A
    wedge row is the normal form of sigma(wedge w), computed when a row
    of wedge w is first asked for and kept, so only the wedges of the
    checked vectors are normalised.

    >>> block = _block(SpaceDescriptor(n=2, k=1, a=0, b=1), 1)
    >>> [m.render() for m in block]
    ['u1|e1', 'u1|e2', 'u2|e1', 'u2|e2']
    >>> swap, cycle = (_ActionTable(block, g, 2) for g in generators(2))
    >>> [swap.row(i) for i in range(4)]  # (1 2)
    [[(3, 1)], [(2, 1)], [(1, 1)], [(0, 1)]]
    >>> cycle.row(0), sorted(cycle.row(1))  # u1|e2 -> u2|e3 = -u2|e1 - u2|e2
    ([(3, 1)], [(2, -1), (3, -1)])
    """

    def __init__(self, block: tuple[Monomial, ...], sigma: Permutation, n: int):
        slots = len(block[0].duals) + len(block[0].legs)
        self.block, self.sigma, self.n, self.per_wedge = block, sigma, n, n**slots
        self.wedge_index = {m.wedge: i for i, m in enumerate(block[:: self.per_wedge])}
        self.wedge_rows: dict[int, list[tuple[int, int]]] = {}
        index_rows = [_expand_index(sigma(j), n) for j in range(1, n + 1)]
        # One [(position, coefficient), ...] row per leg tuple, first slot most significant.
        leg_rows = [[(0, 1)]]
        for _ in range(slots):
            leg_rows = [
                [(l * n + i - 1, c * ci) for l, c in row for ci, i in expansion]
                for row in leg_rows
                for expansion in index_rows
            ]
        self.leg_rows = leg_rows

    def row(self, i: int) -> list[tuple[int, int]]:
        w, l = divmod(i, self.per_wedge)
        wedge_row = self.wedge_rows.get(w)
        if wedge_row is None:
            wedge = [(letter, self.sigma(j)) for letter, j in self.block[i].wedge]
            wedge_row = self.wedge_rows[w] = [
                (self.wedge_index[t.wedge] * self.per_wedge, c)
                for t, c in _normal_form(wedge, (), (), self.n).items()
            ]
        # Distinct (wedge, leg tuple) targets, so the products need no accumulation.
        return [(base + j, cw * c) for base, cw in wedge_row for j, c in self.leg_rows[l]]

    def fixes(self, vec: dict[int, Fraction]) -> bool:
        """Whether the permutation maps ``vec`` to itself, checked in ints."""
        _, ints = integer_scaled(vec)
        image: dict[int, int] = {}
        for i, c in ints.items():
            _add_into(image, self.row(i), c)
        return image == ints


def _invariant_vectors_block(
    block: tuple[Monomial, ...], kernel: Kernel, s: SpaceDescriptor
) -> list[dict[int, Fraction]]:
    """Reduced echelon basis of the invariants supported on one block.

    ``kernel`` is the block's pattern kernel, nonempty. Indices are
    positions in ``block``. Each kernel vector puts its coefficient of a
    pattern, times the monomial's sign in the pattern's orbit sum, on
    every monomial of that pattern. The action tables live only for this
    call; every returned vector has been checked against them.
    """
    n = s.n
    members: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, m in enumerate(block):
        _, pattern, sign = pattern_of(m, n)
        members.setdefault(pattern, []).append((i, sign))
    combos = [
        {i: c * sign for pattern, c in coeffs.items() for i, sign in members[pattern]}
        for coeffs in kernel
    ]
    vectors = rref_vectors(combos, len(block))
    # generators(n) is (1 2) and the cycle; at n = 1 the cycle is (1 2).
    for sigma in generators(n):
        table = _ActionTable(block, sigma, n)
        if not all(table.fixes(vec) for vec in vectors):
            raise RuntimeError(f"computed vector not invariant in {s}")
    return vectors


def checked_dim(s: SpaceDescriptor) -> int:
    """Dimension of the invariants of ``s``: :func:`pattern_dim`, checked against the oracle.

    The kernel sizes of the pattern engine are compared with
    :func:`equivext.characters.invariant_dim`, which averages characters
    and shares no code with the kernel's rows; raises on disagreement.
    No monomial is listed.
    """
    dim, expected = pattern_dim(s), invariant_dim(s)
    if dim != expected:
        raise RuntimeError(f"invariant subspace of {s} has dimension {dim}, oracle {expected}")
    return dim


def invariant_basis(s: SpaceDescriptor) -> InvariantBasis:
    """Basis of the subspace fixed by the whole group, in reduced echelon form.

    The action preserves the number p of u-factors of the wedge part, so
    each block is solved on its own. Its invariants are the pattern
    kernel :func:`equivext.patterns.block_kernel`, and only a block whose
    kernel is nonempty is listed (:func:`_block`) and written out on its
    monomials. Their reduced echelon basis is checked in integer
    arithmetic: each vector, scaled to integer coefficients, must be
    mapped to itself by both group generators, whose action on a
    monomial is the product of the action on its wedge and on its leg
    indices (:class:`_ActionTable`). The blocks have disjoint supports,
    so their bases, ordered by leading monomial
    (:func:`_monomial_sort_key`), form the same unique basis as the
    stacked kernel of (M_sigma - I) over the whole space, the reference
    the tests compare it with. Its size is checked against the character
    oracle :func:`equivext.characters.invariant_dim`; nothing is memoised.
    """
    found: list[tuple[Monomial, dict[Monomial, Fraction]]] = []
    for p in range(max(0, s.k - s.n), min(s.k, s.n) + 1):
        kernel = block_kernel(s, p)
        if not kernel:
            continue
        block = _block(s, p)
        for vec in _invariant_vectors_block(block, kernel, s):
            found.append((block[min(vec)], {block[i]: c for i, c in vec.items()}))
    found.sort(key=lambda item: _monomial_sort_key(item[0]))
    if len(found) != (expected := invariant_dim(s)):
        raise RuntimeError(f"invariant basis of {s} has dimension {len(found)}, oracle {expected}")
    vectors = tuple(SparseVector(s, terms) for _, terms in found)
    pivots = tuple(pivot for pivot, _ in found)
    return InvariantBasis(s, vectors, pivots)
