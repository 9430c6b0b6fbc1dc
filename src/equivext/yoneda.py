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

>>> theta = build_class("theta(v)", 2)
>>> omega = build_class("omega", 2)
>>> compose(theta.value, omega.value).coeff_of("u1^v1^v2|e2")
Fraction(3, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseMatrix, rank
from .spaces import (
    InvariantBasis,
    Monomial,
    SpaceDescriptor,
    SparseVector,
    _add_into,
    _normal_form,
    _sort_wedge,
    act,
    invariant_basis,
)
from .symgroup import generators

_ONE = Fraction(1)


@dataclass(frozen=True)
class PairingTable:
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


def _orbit_sum(n: int, letters: str, a: int, b: int) -> dict[Monomial, Fraction]:
    """Sum over i = 1..n+1 of the monomial with every index at i.

    Its wedge part has one factor per letter of ``letters``, in that
    order, followed by ``a`` dual legs and ``b`` plain legs. The i = n+1
    term is expanded into the stored normal form.
    """
    out: dict[Monomial, Fraction] = {}
    for i in range(1, n + 2):
        _add_into(out, _normal_form([(w, i) for w in letters], (i,) * a, (i,) * b, n).items())
    return out


@dataclass(frozen=True)
class DistinguishedClass:
    """A named invariant class; invariance is asserted at construction."""

    name: str
    value: SparseVector
    space: SpaceDescriptor


CLASS_NAMES = ("theta(u)", "theta(v)", "omega", "phi(u)", "phi(v)", "xi")


def theta_of(n: int, cu, cv) -> SparseVector:
    """sum_i (cu*u + cv*v)e_i tensor e_i, linear in the chosen direction."""
    space = SpaceDescriptor(n, 1, 0, 1)
    terms: dict[Monomial, Fraction] = {}
    for letter, c in (("u", Fraction(cu)), ("v", Fraction(cv))):
        if c:
            _add_into(terms, _orbit_sum(n, letter, 0, 1).items(), c)
    return SparseVector(space, terms)


def build_class(name: str, n: int, swap_uv: bool = False) -> DistinguishedClass:
    """Construct one of the distinguished classes by name.

    theta(w): sum_i we_i (x) e_i          in W(n; 1, 0, 1)
    omega:    sum_i ue_i ^ ve_i           in W(n; 2, 0, 0)
    phi(w):   sum_i we_i (x) e'_i         in W(n; 1, 1, 0)
    xi:       sum_i ue_i (x) e'_i (x) e_i in W(n; 1, 1, 1)

    with the sum running over i = 1..n+1 and the last term expanded into
    the stored normal form. ``swap_uv`` exchanges the roles of the two
    multiplicity directions; every rank built from these classes is
    unchanged by the swap.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class name {name!r}")
    letters = {"u": "v", "v": "u"} if swap_uv else {"u": "u", "v": "v"}
    if name.startswith("theta"):
        w = letters[name[6]]
        space = SpaceDescriptor(n, 1, 0, 1)
        terms = _orbit_sum(n, w, 0, 1)
    elif name == "omega":
        space = SpaceDescriptor(n, 2, 0, 0)
        terms = _orbit_sum(n, letters["u"] + letters["v"], 0, 0)
    elif name.startswith("phi"):
        w = letters[name[4]]
        space = SpaceDescriptor(n, 1, 1, 0)
        terms = _orbit_sum(n, w, 1, 0)
    else:  # xi
        space = SpaceDescriptor(n, 1, 1, 1)
        terms = _orbit_sum(n, letters["u"], 1, 1)
    value = SparseVector(space, terms)
    for sigma in generators(n):
        if act(sigma, value) != value:
            raise RuntimeError(f"class {name} failed the invariance check")
    return DistinguishedClass(name, value, space)


def compose(x: SparseVector, y: SparseVector, pairing: str = "equivariant") -> SparseVector:
    """Product of x after y; see the module docstring for the convention.

    ``pairing`` selects the contraction: "equivariant" (default) or
    "table" for the verbatim replay of the published computations.
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
        pair = lambda d, l: equivariant_pair(n, d, l)
    elif pairing == "table":
        pair = PairingTable(n).pair
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    target = SpaceDescriptor(n, sx.k + sy.k, sy.a, sx.b)
    sign0 = -_ONE if sx.a % 2 else _ONE
    terms: dict[Monomial, Fraction] = {}
    for mx, cx in x.terms.items():
        products = []
        for my, cy in y.terms.items():
            contraction = _ONE
            for dual, leg in zip(mx.duals, my.legs):
                contraction *= pair(dual, leg)
                if not contraction:
                    break
            if not contraction:
                continue
            sorted_w = _sort_wedge(list(my.wedge) + list(mx.wedge))
            if sorted_w is None:
                continue
            ssign, wedge = sorted_w
            products.append((Monomial(wedge, my.duals, mx.legs), ssign * contraction * cy))
        _add_into(terms, products, sign0 * cx)
    return SparseVector(target, terms)


@dataclass(frozen=True)
class MapOnInvariants:
    """Matrix of a composition operator restricted to invariant bases."""

    source: InvariantBasis
    target: InvariantBasis
    matrix: SparseMatrix
    rank: int


def map_on_invariants(
    c: DistinguishedClass, side: str, source: SpaceDescriptor
) -> MapOnInvariants:
    """Matrix and rank of composing with ``c`` on the invariant subspace.

    ``side`` is "push" for x -> compose(c, x) or "pull" for
    x -> compose(x, c). Every image is expanded exactly in the target
    invariant basis; a nonzero residue would mean the image left the
    invariant subspace, which equivariance of the product rules out.
    """
    if side not in ("push", "pull"):
        raise ValueError("side must be 'push' or 'pull'")
    n = source.n
    if side == "push":
        if c.space.a != source.b:
            raise ValueError("incompatible legs for push")
        target_desc = SpaceDescriptor(n, c.space.k + source.k, source.a, c.space.b)
    else:
        if source.a != c.space.b:
            raise ValueError("incompatible legs for pull")
        target_desc = SpaceDescriptor(n, c.space.k + source.k, c.space.a, source.b)
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
