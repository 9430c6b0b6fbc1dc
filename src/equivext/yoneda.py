"""Distinguished invariant classes and their composition products.

The product compose(x, y) models "x after y". Its wedge part is the wedge
part of y (the factor applied first) followed by the wedge part of x,
re-sorted into the fixed total order with the usual sign; the i-th dual
leg of x is contracted against the i-th plain leg of y, and each
contraction flips the overall sign once. The dual legs of y and the
plain legs of x survive, so the result lies in W(n; k_x + k_y, a_y, b_x).

Two contraction pairings are supported. The default, "equivariant", is
the evaluation obtained by realizing the dual legs inside the dual of
the (n+1)-dimensional permutation space: its value on normalized indices
is delta(c, l) - 1/(n+1). It is the unique pairing (up to scale) that
commutes with the group action, so composition with it maps invariants
to invariants; the scale is pinned by requiring the expanded canonical
element of the one-leg endomorphism space to act as the identity.

The "table" pairing is the literal delta table of :class:`PairingTable`
extended through the index-(n+1) relations. It replays the published
coefficient computations verbatim (and only differs from the
equivariant pairing when a contraction actually happens), but it is not
equivariant, so it must not be used to build maps on invariant bases.

The product is summed in integers. Each factor is scaled to integer
numerators by the lcm of its denominators, dx and dy. The contractions
use integer pairing values: (n+1) times the equivariant pairing, that is
(n+1) delta - 1, or the table values as they are. The wedge parts are
sorted once per pair of distinct wedge parts of x and y. Each output
coefficient is divided once by D = dx * dy * s^a, where a is the number
of contracted legs and s is n+1 for the equivariant pairing and 1 for
the table, so the result is the same exact ``Fraction`` vector.

>>> theta = build_class("theta(v)", 2)
>>> omega = build_class("omega", 2)
>>> compose(theta.value, omega.value).coeff_of("u1^v1^v2|e2")
Fraction(3, 1)
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .linalg import SparseMatrix, _add_into, integer_scaled, rank, rank_of_rows
from .patterns import _U, _V, block_kernel, orbit_readings, pattern_of, read_orbits
from .spaces import (
    InvariantBasis,
    Monomial,
    SpaceDescriptor,
    SparseVector,
    _block,
    _exact,
    _invariant_vectors_block,
    _normal_form,
    _sort_wedge,
    act,
    checked_dim,
    invariant_basis,
)
from .symgroup import generators

_ONE = Fraction(1)


class PairingTable(NamedTuple):
    """The published evaluation table of dual legs on plain legs.

    On indices up to n this is the Kronecker delta; index n+1 stands for
    minus the sum of the others, giving the -1 edge values and the value
    n in the corner. This table is not equivariant for the index action
    (this is what makes the published nonvanishing witness land on a
    monomial where every invariant vanishes); it is kept for replaying
    the published computations exactly.
    """

    n: int

    def pair(self, dual_index: int, index: int) -> Fraction:
        n = self.n
        if not (1 <= dual_index <= n + 1 and 1 <= index <= n + 1):
            raise ValueError("pairing index out of range")
        if dual_index <= n and index <= n:
            return _ONE if dual_index == index else Fraction(0)
        if dual_index == n + 1 and index == n + 1:
            return Fraction(n)
        return Fraction(-1)


def equivariant_pair(n: int, dual_index: int, index: int) -> Fraction:
    """The group-equivariant evaluation, delta - 1/(n+1) on all indices."""
    if not (1 <= dual_index <= n + 1 and 1 <= index <= n + 1):
        raise ValueError("pairing index out of range")
    base = _ONE if dual_index == index else Fraction(0)
    return base - Fraction(1, n + 1)


def _orbit_sum(n: int, letters: str, a: int, b: int) -> dict[Monomial, int]:
    """Sum over i = 1..n+1 of the monomial with every index at i, in ``int``.

    Its wedge part has one factor per letter of ``letters``, in that
    order, followed by ``a`` dual legs and ``b`` plain legs. The i = n+1
    term is expanded into the stored normal form.
    """
    out: dict[Monomial, int] = {}
    for i in range(1, n + 2):
        _add_into(out, _normal_form([(w, i) for w in letters], (i,) * a, (i,) * b, n).items())
    return out


class DistinguishedClass(NamedTuple):
    """A named invariant class; invariance is asserted at construction."""

    name: str
    value: SparseVector
    space: SpaceDescriptor


# name -> (wedge letters, dual legs, plain legs) of the class's :func:`_orbit_sum`.
_CLASS_SHAPES = {
    "theta(u)": ("u", 0, 1),
    "theta(v)": ("v", 0, 1),
    "omega": ("uv", 0, 0),
    "phi(u)": ("u", 1, 0),
    "phi(v)": ("v", 1, 0),
    "xi": ("u", 1, 1),
}
CLASS_NAMES = tuple(_CLASS_SHAPES)


def theta_of(n: int, cu, cv) -> SparseVector:
    """sum_i (cu*u + cv*v)e_i tensor e_i, linear in (cu, cv); a float raises ``TypeError``."""
    space = SpaceDescriptor(n, 1, 0, 1)
    terms: dict[Monomial, Fraction] = {}
    for letter, c in (("u", _exact(cu)), ("v", _exact(cv))):
        if c:
            _add_into(terms, _orbit_sum(n, letter, 0, 1).items(), c)
    return SparseVector(space, terms)


def build_class(name: str, n: int) -> DistinguishedClass:
    """Construct one of the distinguished classes by name, from :data:`_CLASS_SHAPES`.

    theta(w): sum_i we_i (x) e_i          in W(n; 1, 0, 1)
    omega:    sum_i ue_i ^ ve_i           in W(n; 2, 0, 0)
    phi(w):   sum_i we_i (x) e'_i         in W(n; 1, 1, 0)
    xi:       sum_i ue_i (x) e'_i (x) e_i in W(n; 1, 1, 1)

    with the sum running over i = 1..n+1 and the last term expanded into
    the stored normal form. Its invariance under both generators is
    checked in integers.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if name not in _CLASS_SHAPES:
        raise ValueError(f"unknown class name {name!r}")
    letters, a, b = _CLASS_SHAPES[name]
    space = SpaceDescriptor(n, len(letters), a, b)
    terms = _orbit_sum(n, letters, a, b)
    ints = SparseVector(space, terms)  # int coefficients, so act sums in ints
    for sigma in generators(n):
        if act(sigma, ints) != ints:
            raise RuntimeError(f"class {name} failed the invariance check")
    value = SparseVector(space, {m: Fraction(c) for m, c in terms.items()})
    return DistinguishedClass(name, value, space)


def _by_wedge(terms: dict[Monomial, int]) -> dict[tuple, list[tuple[tuple, tuple, int]]]:
    """The integer ``terms`` as (duals, legs, coefficient) grouped by wedge part."""
    groups: dict[tuple, list[tuple[tuple, tuple, int]]] = {}
    for m, c in terms.items():
        groups.setdefault(m.wedge, []).append((m.duals, m.legs, c))
    return groups


def compose(x: SparseVector, y: SparseVector, pairing: str = "equivariant") -> SparseVector:
    """Product of x after y; see the module docstring for the convention.

    ``pairing`` selects the contraction: "equivariant" (default) or
    "table" for the verbatim replay of the published computations.

    >>> from equivext.spaces import parse_monomial
    >>> x = SparseVector.make(SpaceDescriptor(2, 0, 1, 0), {parse_monomial("1|d1"): 1})
    >>> y = SparseVector.make(SpaceDescriptor(2, 0, 0, 1), {parse_monomial("1|e1"): 1})
    >>> compose(x, y).coeff_of("1")
    Fraction(-2, 3)
    """
    sx, sy = x.space, y.space
    if sx.n != sy.n:
        raise ValueError("cannot compose vectors over different n")
    if sx.a != sy.b:
        raise ValueError(
            f"incompatible legs: left factor has {sx.a} dual legs, "
            f"right factor has {sy.b} plain legs"
        )
    n = sx.n
    if pairing == "equivariant":
        scale = n + 1
        pair = lambda d, l: scale * equivariant_pair(n, d, l)
    elif pairing == "table":
        scale = 1
        pair = PairingTable(n).pair
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    # Integer pairing values: the contraction of a term pair is ``scale**a`` times its pairing.
    indices = range(1, n + 2)
    values = {(d, l): int(pair(d, l)) for d in indices for l in indices}
    dx, x_ints = integer_scaled(x.terms)
    dy, y_ints = integer_scaled(y.terms)
    x_groups, y_groups = _by_wedge(x_ints), _by_wedge(y_ints)
    acc: dict[tuple, int] = {}
    for wy, y_terms in y_groups.items():
        for wx, x_terms in x_groups.items():
            sorted_w = _sort_wedge(wy + wx)
            if sorted_w is None:
                continue
            ssign, wedge = sorted_w
            for y_duals, y_legs, cy in y_terms:
                products = []
                for x_duals, x_legs, cx in x_terms:
                    coeff = cx
                    try:
                        for dual, leg in zip(x_duals, y_legs):
                            coeff *= values[dual, leg]
                    except KeyError as missing:
                        pair(*missing.args[0])  # raises: the index is out of range
                        raise
                    if coeff:
                        products.append(((wedge, y_duals, x_legs), coeff))
                _add_into(acc, products, ssign * cy)
    sign0 = -1 if sx.a % 2 else 1
    denominator = dx * dy * scale**sx.a
    terms = {Monomial(*key): Fraction(sign0 * c, denominator) for key, c in acc.items()}
    return SparseVector(SpaceDescriptor(n, sx.k + sy.k, sy.a, sx.b), terms)


class MapOnInvariants(NamedTuple):
    """Matrix of a composition operator restricted to invariant bases."""

    source: InvariantBasis
    target: InvariantBasis
    matrix: SparseMatrix
    rank: int


def _map_target(c_space: SpaceDescriptor, side: str, source: SpaceDescriptor) -> SpaceDescriptor:
    """Space that composing with a class in ``c_space`` on ``side`` maps ``source`` to."""
    if side not in ("push", "pull"):
        raise ValueError("side must be 'push' or 'pull'")
    if side == "push":
        if c_space.a != source.b:
            raise ValueError("incompatible legs for push")
        return SpaceDescriptor(source.n, c_space.k + source.k, source.a, c_space.b)
    if source.a != c_space.b:
        raise ValueError("incompatible legs for pull")
    return SpaceDescriptor(source.n, c_space.k + source.k, c_space.a, source.b)


def map_on_invariants(
    c: DistinguishedClass, side: str, source: SpaceDescriptor
) -> MapOnInvariants:
    """Matrix and rank of composing with ``c`` on the invariant subspace.

    ``side`` is "push" for x -> compose(c, x) or "pull" for
    x -> compose(x, c). Every image is expanded exactly in the
    materialised target invariant basis; a nonzero residue would mean
    the image left the invariant subspace, which equivariance of the
    product rules out. Both bases are built anew by :func:`invariant_basis`
    and checked against the character oracle. This is the reference that
    :func:`map_rank`, which builds no target basis, is tested against.
    """
    target_desc = _map_target(c.space, side, source)
    src = invariant_basis(source)
    tgt = invariant_basis(target_desc)
    entries: dict[tuple[int, int], Fraction] = {}
    for j, vec in enumerate(src.vectors):
        image = compose(c.value, vec) if side == "push" else compose(vec, c.value)
        for i, coord in enumerate(tgt.coordinates(image)):
            if coord:
                entries[(i, j)] = coord
    matrix = SparseMatrix(tgt.dim, src.dim, entries)
    return MapOnInvariants(src, tgt, matrix, rank(matrix))


def _omega_power(i: int, n: int) -> dict[tuple[int, ...], int]:
    """omega^i, the i-fold product of omega under :func:`compose`, in orbit-sum coordinates.

    With index n+1 eliminated, omega = sum over a, b <= n of
    (1 + delta(a, b)) u_a ^ v_b, so its i-th power has coefficient
    (-1)^(i(i-1)/2) i! det((I + J)[A, B]) at u_A ^ v_B, J the all-ones
    matrix: the sign puts the u-factors first, and the 2-forms commute.
    (I + J)[A, B] is a 0/1 partial identity plus a rank-one matrix, so
    the minor is i + 1 when A = B, +-1 when A and B share i - 1 indices
    (+1 at the representative of :func:`equivext.patterns._canonical`,
    where the unshared index is the first of A and of B) and 0
    otherwise: two patterns, (UV)^i and (V, U, (UV)^(i-1)), the second
    only for 0 < i < n.
    """
    sign = -1 if i * (i - 1) // 2 % 2 else 1
    form = {(_U | _V,) * i: sign * math.factorial(i + 1)}
    if 0 < i < n:
        form[(_V, _U) + (_U | _V,) * (i - 1)] = sign * math.factorial(i)
    return form


def _source_vectors(source: SpaceDescriptor) -> list[tuple[int, dict]]:
    """The invariants of ``source`` in orbit-sum coordinates, as (p, vector) per block p.

    W(n; 2i, 0, 0), i <= n, has one invariant, omega^i (:func:`_omega_power`); the
    closed form must be a multiple of the one-dimensional pattern kernel
    of its (i, i) block, else this raises. Any other source gives its
    pattern kernels, each written out on its block's monomials and
    checked against the integer action tables there
    (:func:`equivext.spaces._invariant_vectors_block`), a check that does
    not go through :func:`equivext.patterns._canonical`.
    """
    n, k = source.n, source.k
    if source.a == source.b == 0 and k % 2 == 0 and k <= 2 * n:
        i = k // 2
        form, top = _omega_power(i, n), (_U | _V,) * i
        kernel = block_kernel(source, i)
        vec = kernel[0] if len(kernel) == 1 else {}
        # form is vec scaled by form[top] / vec[top], compared in integers.
        scaled = {pattern: c * vec.get(top, 0) for pattern, c in form.items()}
        if {pattern: c * form[top] for pattern, c in vec.items()} != scaled:
            raise RuntimeError(f"omega^{i} does not span the invariants of {source}")
        return [(i, form)]
    vectors = []
    for p in range(max(0, k - n), min(k, n) + 1):
        kernel = block_kernel(source, p)
        if kernel:
            _invariant_vectors_block(_block(source, p), kernel, source)
            vectors += [(p, vec) for vec in kernel]
    return vectors


def image_at(
    c: SparseVector, side: str, source: SpaceDescriptor, coeff, monomials, pairing="equivariant"
) -> dict[Monomial, Fraction]:
    """The coefficients at ``monomials`` of compose(c, y) ("push") or compose(y, c) ("pull").

    y is the vector of ``source`` whose coefficient at a monomial m is
    ``coeff(m)``. A term of the product at a monomial m pairs a term t of
    c whose wedge factors all lie in m's and whose surviving legs are m's
    (its plain legs for "push", its dual legs for "pull") with the
    monomials of y that carry the rest of m's wedge and m's other legs,
    and any indices on the legs contracted with t's. Only those terms of
    c and y are composed, by :func:`compose` with ``pairing``, so the
    product agrees with the whole one at ``monomials``; returns its
    nonzero coefficients there, keyed by monomial.

    >>> theta, omega = build_class("theta(v)", 2), build_class("omega", 2)
    >>> m = Monomial((("u", 1), ("v", 1), ("v", 2)), (), (2,))
    >>> image_at(theta.value, "push", omega.space, omega.value.coeff, [m])
    {Monomial(wedge=(('u', 1), ('v', 1), ('v', 2)), duals=(), legs=(2,)): Fraction(3, 1)}
    """
    push = side == "push"
    free = c.space.a if push else c.space.b
    reaching: dict[tuple, dict[Monomial, Fraction]] = {}  # (wedge, surviving legs) -> terms of c
    for t, x in c.terms.items():
        reaching.setdefault((t.wedge, t.legs if push else t.duals), {})[t] = x
    c_terms: dict[Monomial, Fraction] = {}
    y_terms: dict[Monomial, Fraction] = {}
    for m in monomials:
        for wedge in combinations(m.wedge, c.space.k):
            terms = reaching.get((wedge, m.legs if push else m.duals))
            if terms is None:
                continue
            c_terms.update(terms)
            rest = tuple(f for f in m.wedge if f not in wedge)
            for loose in product(range(1, source.n + 1), repeat=free):
                y = Monomial(rest, m.duals, loose) if push else Monomial(rest, loose, m.legs)
                if y not in y_terms:
                    y_terms[y] = coeff(y)
    x = SparseVector(c.space, c_terms)
    y = SparseVector(source, {m: v for m, v in y_terms.items() if v})
    image = compose(x, y, pairing) if push else compose(y, x, pairing)
    wanted = set(monomials)
    return {m: v for m, v in image.terms.items() if m in wanted}


def image_coordinates(c: DistinguishedClass, side: str, source: SpaceDescriptor) -> list[dict]:
    """The images of the invariants of ``source`` under ``c``, in orbit-sum coordinates.

    One dict pattern -> coordinate per vector of :func:`_source_vectors`,
    over the target blocks the class's terms reach from the vector's
    block. Each image is read by :func:`image_at` at the two monomials of
    each orbit of those blocks (:func:`equivext.patterns.orbit_readings`)
    and checked by :func:`equivext.patterns.read_orbits`. Both spaces'
    pattern dimensions are checked against the character oracle first.
    """
    target = _map_target(c.space, side, source)
    for s in (source, target):
        checked_dim(s)
    vectors = _source_vectors(source)
    shifts = {sum(letter == "u" for letter, _ in t.wedge) for t in c.value.terms}
    readings = {}  # target block -> (pattern, forward, reverse, sign) per orbit
    for block in {p + shift for p, _ in vectors for shift in shifts}:
        readings[block] = [
            (t, Monomial(*f), Monomial(*r), sign) for t, f, r, sign in orbit_readings(target, block)
        ]
    out = []
    for p, vec in vectors:

        def coeff(m: Monomial, vec=vec) -> Fraction:
            _, pattern, sign = pattern_of(m, source.n)
            return vec.get(pattern, 0) * sign

        blocks = [p + shift for shift in shifts]
        monomials = [m for b in blocks for _, *pair, _ in readings[b] for m in pair]
        image = image_at(c.value, side, source, coeff, monomials)
        coords: dict = {}
        for block in blocks:
            coords.update(read_orbits(target, block, readings[block], image))
        out.append(coords)
    return out


def map_rank(c: DistinguishedClass, side: str, source: SpaceDescriptor) -> int:
    """Rank of composing with ``c`` on the invariants of ``source``.

    The same rank as ``map_on_invariants(c, side, source).rank``, with no
    basis of either space: the rank of the images'
    :func:`image_coordinates`, each read at two monomials per target
    orbit from the few source terms that reach them. W(n; 2i, 0, 0)'s
    invariant is omega^i in closed form, checked against its pattern
    kernel, so the remark's sources list no monomial; any other source's
    kernel vectors are checked on its blocks' monomials. Both spaces'
    invariant dimensions are checked against the character oracle.
    """
    columns: dict[tuple, int] = {}
    rows = [
        {columns.setdefault(pattern, len(columns)): x for pattern, x in coords.items()}
        for coords in image_coordinates(c, side, source)
    ]
    return rank_of_rows(rows, len(columns))
