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

Invariant subspaces are computed as the common kernel of (M_sigma - I)
for the two group generators; since those generate the full group, this
equals the fixed space of the whole group. Bases are returned in reduced
echelon normal form over the monomial enumeration order, which makes
them unique, hence reproducible bit for bit no matter how the kernel
was obtained internally.

>>> s = SpaceDescriptor(n=2, k=2, a=0, b=0)
>>> len(invariant_basis(s).vectors)
1
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import kernel_of_rows, rref_vectors
from .symgroup import Permutation, generators, transposition

Gen = tuple[str, int]  # ("u" | "v", index in 1..n)

_ONE = Fraction(1)

# Flipped by tests only: reverses the total order on wedge generators to
# confirm that ranks and dimensions do not depend on the sign convention.
_REVERSED_GEN_ORDER = False


def _gen_list(n: int) -> list[Gen]:
    gens = [("u", i) for i in range(1, n + 1)] + [("v", i) for i in range(1, n + 1)]
    if _REVERSED_GEN_ORDER:
        gens.reverse()
    return gens


def _sort_wedge(gens: list[Gen]) -> tuple[int, tuple[Gen, ...]] | None:
    """Sort wedge factors into the fixed total order.

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
            swap = (a > b) if not _REVERSED_GEN_ORDER else (a < b)
            if swap:
                arr[j - 1], arr[j] = b, a
                sign = -sign
                j -= 1
            else:
                break
    return sign, tuple(arr)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Names the space W(n; k, a, b); the group is the permutations of n+1."""

    n: int
    k: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.a < 0 or self.b < 0:
            raise ValueError(f"invalid descriptor {self}")

    @property
    def validated_legs(self) -> bool:
        """Leg counts above 1 are permitted but outside the validated paths."""
        return self.a <= 1 and self.b <= 1


def space_dim(s: SpaceDescriptor) -> int:
    """C(2n, k) * n^(a+b); zero when k exceeds 2n."""
    return math.comb(2 * s.n, s.k) * s.n ** (s.a + s.b)


@dataclass(frozen=True)
class Monomial:
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
            letter, idx = item[0], int(item[1:])
            if letter not in ("u", "v") or idx < 1:
                raise ValueError(f"bad wedge factor {item!r}")
            wedge.append((letter, idx))
    duals = []
    legs = []
    for item in parts[1:]:
        kind, idx = item[0], int(item[1:])
        if kind == "d":
            duals.append(idx)
        elif kind == "e":
            legs.append(idx)
        else:
            raise ValueError(f"bad leg {item!r}")
    return Monomial(tuple(wedge), tuple(duals), tuple(legs))


@dataclass(frozen=True)
class SparseVector:
    """Exact rational combination of monomials from one space."""

    space: SpaceDescriptor
    terms: dict[Monomial, Fraction]

    def __post_init__(self):
        for m, c in self.terms.items():
            if c == 0:
                raise ValueError(f"stored zero coefficient at {m.render()}")

    @classmethod
    def make(cls, space: SpaceDescriptor, terms) -> "SparseVector":
        clean = {m: Fraction(c) for m, c in dict(terms).items() if c}
        return cls(space, clean)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def coeff_of(self, rendered: str) -> Fraction:
        return self.coeff(parse_monomial(rendered))

    def scaled(self, factor) -> "SparseVector":
        f = Fraction(factor)
        if f == 0:
            return SparseVector.make(self.space, {})
        return SparseVector(self.space, {m: c * f for m, c in self.terms.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if other.space != self.space:
            raise ValueError("space mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nv = terms.get(m, Fraction(0)) + c
            if nv:
                terms[m] = nv
            else:
                terms.pop(m, None)
        return SparseVector(self.space, terms)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scaled(-1)

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


_MONOMIAL_CACHE: dict[tuple, tuple[Monomial, ...]] = {}


def monomials(s: SpaceDescriptor) -> tuple[Monomial, ...]:
    """All basis monomials of W(n; k, a, b) in the fixed enumeration order."""
    key = (s, _REVERSED_GEN_ORDER)
    hit = _MONOMIAL_CACHE.get(key)
    if hit is not None:
        return hit
    gens = _gen_list(s.n)
    leg_range = range(1, s.n + 1)
    out = []
    for wedge in itertools.combinations(gens, s.k):
        for duals in itertools.product(leg_range, repeat=s.a):
            for legs in itertools.product(leg_range, repeat=s.b):
                out.append(Monomial(tuple(wedge), duals, legs))
    result = tuple(out)
    _MONOMIAL_CACHE[key] = result
    return result


def _expand_index(j: int, n: int) -> tuple[tuple[int, int], ...]:
    """Index j in 1..n+1 as ((coeff, index), ...) with every index <= n.

    Index n+1 is eliminated through e_{n+1} = -(e_1 + ... + e_n).
    """
    if j <= n:
        return ((1, j),)
    return tuple((-1, t) for t in range(1, n + 1))


def act_monomial(sigma: Permutation, m: Monomial, n: int) -> dict[Monomial, Fraction]:
    wedge_options = [
        tuple((c, (letter, t)) for c, t in _expand_index(sigma(idx), n))
        for letter, idx in m.wedge
    ]
    dual_options = [_expand_index(sigma(i), n) for i in m.duals]
    leg_options = [_expand_index(sigma(i), n) for i in m.legs]
    out: dict[Monomial, Fraction] = {}
    for wedge_pick in itertools.product(*wedge_options):
        wsign = 1
        gens = []
        for c, g in wedge_pick:
            wsign *= c
            gens.append(g)
        sorted_w = _sort_wedge(gens)
        if sorted_w is None:
            continue
        ssign, wedge = sorted_w
        base = wsign * ssign
        for dual_pick in itertools.product(*dual_options):
            dsign = base
            duals = []
            for c, t in dual_pick:
                dsign *= c
                duals.append(t)
            for leg_pick in itertools.product(*leg_options):
                sign = dsign
                legs = []
                for c, t in leg_pick:
                    sign *= c
                    legs.append(t)
                mono = Monomial(wedge, tuple(duals), tuple(legs))
                nv = out.get(mono, 0) + sign
                if nv:
                    out[mono] = Fraction(nv)
                else:
                    out.pop(mono, None)
    return out


def act(sigma: Permutation, x: SparseVector) -> SparseVector:
    """Left action of ``sigma``; indices hitting n+1 are expanded eagerly."""
    n = x.space.n
    if sigma.degree != n + 1:
        raise ValueError(f"permutation degree {sigma.degree} does not match n={n}")
    terms: dict[Monomial, Fraction] = {}
    for m, c in x.terms.items():
        for mono, d in act_monomial(sigma, m, n).items():
            nv = terms.get(mono, Fraction(0)) + c * d
            if nv:
                terms[mono] = nv
            else:
                terms.pop(mono, None)
    return SparseVector(x.space, terms)


def unit_vector(n: int) -> SparseVector:
    """The empty monomial of W(n; 0, 0, 0)."""
    s = SpaceDescriptor(n, 0, 0, 0)
    return SparseVector(s, {Monomial((), (), ()): _ONE})


@dataclass(frozen=True)
class InvariantBasis:
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
        residual = x
        for c, vec in zip(coords, self.vectors):
            if c:
                residual = residual - vec.scaled(c)
        if not residual.is_zero():
            raise ValueError("vector is not in the invariant subspace")
        return coords


def _wedge_letter_counts(m: Monomial) -> tuple[int, int]:
    p = sum(1 for letter, _ in m.wedge if letter == "u")
    return p, len(m.wedge) - p


def _kernel_vectors_stacked(
    monos: tuple[Monomial, ...], perms, n: int
) -> list[dict[int, Fraction]]:
    """Common kernel of the stacked (M_sigma - I) over the given monomials."""
    index_of = {m: i for i, m in enumerate(monos)}
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for g, sigma in enumerate(perms):
        for col, m in enumerate(monos):
            image = act_monomial(sigma, m, n)
            image[m] = image.get(m, Fraction(0)) - 1
            for target, coeff in image.items():
                if coeff:
                    rows.setdefault((g, index_of[target]), {})[col] = coeff
    row_list = [rows[key] for key in sorted(rows)]
    return kernel_of_rows(row_list, len(monos))


def _signed_orbit_columns(
    monos: tuple[Monomial, ...], perms: list[Permutation], n: int
) -> list[list[tuple[int, Fraction]]]:
    """Explicit basis of the common fixed space of signed permutations.

    Every permutation in ``perms`` must send each monomial to a signed
    single monomial (true for transpositions not touching index n, since
    no index ever lands on n+1). The fixed space is then spanned by the
    consistent signed orbit sums; an orbit with a sign conflict
    contributes nothing.
    """
    index_of = {m: i for i, m in enumerate(monos)}
    sign_of: dict[int, Fraction] = {}
    basis: list[list[tuple[int, Fraction]]] = []
    for start, m in enumerate(monos):
        if start in sign_of:
            continue
        orbit = {start: _ONE}
        queue = [start]
        consistent = True
        while queue:
            i = queue.pop()
            for sigma in perms:
                image = act_monomial(sigma, monos[i], n)
                ((m2, s),) = image.items()
                j = index_of[m2]
                value = orbit[i] * s
                if j in orbit:
                    if orbit[j] != value:
                        consistent = False
                else:
                    orbit[j] = value
                    queue.append(j)
        sign_of.update(orbit)
        if consistent:
            basis.append(sorted(orbit.items()))
    return basis


def _invariant_vectors_block(
    monos: tuple[Monomial, ...], n: int
) -> list[dict[int, Fraction]]:
    gens = generators(n)
    if n < 2 or len(gens) < 2:
        return _kernel_vectors_stacked(monos, gens, n)
    cycle = gens[1]
    index_of = {m: i for i, m in enumerate(monos)}
    adjacents = [transposition(n + 1, i, i + 1) for i in range(1, n)]
    fixed = _signed_orbit_columns(monos, adjacents, n)
    # Columns of (M_cycle - I) restricted to the fixed space of tau.
    rows: dict[int, dict[int, Fraction]] = {}
    for j, combo in enumerate(fixed):
        accum: dict[int, Fraction] = {}
        for i, coeff in combo:
            image = act_monomial(cycle, monos[i], n)
            image[monos[i]] = image.get(monos[i], Fraction(0)) - 1
            for target, d in image.items():
                if not d:
                    continue
                t = index_of[target]
                nv = accum.get(t, Fraction(0)) + coeff * d
                if nv:
                    accum[t] = nv
                else:
                    accum.pop(t, None)
        for t, v in accum.items():
            rows.setdefault(t, {})[j] = v
    row_list = [rows[t] for t in sorted(rows)]
    out = []
    for coords in kernel_of_rows(row_list, len(fixed)):
        vec: dict[int, Fraction] = {}
        for j, cj in coords.items():
            for i, coeff in fixed[j]:
                nv = vec.get(i, Fraction(0)) + cj * coeff
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)
        out.append(vec)
    return out


_INVARIANT_CACHE: dict[tuple, InvariantBasis] = {}


def invariant_basis(s: SpaceDescriptor) -> InvariantBasis:
    """Basis of the common fixed space of the two group generators.

    Equal to the fixed space of the whole group, i.e. the kernel of the
    stacked (M_sigma - I) matrices over the monomial basis. The action
    preserves the number of u-factors and v-factors of the wedge part,
    so the kernel is assembled blockwise and then echelonized globally;
    reduced echelon bases are unique, so the output is identical to the
    one computed from the full stacked matrix.
    """
    key = (s, _REVERSED_GEN_ORDER)
    hit = _INVARIANT_CACHE.get(key)
    if hit is not None:
        return hit
    monos = monomials(s)
    index_of = {m: i for i, m in enumerate(monos)}
    blocks: dict[tuple[int, int], list[Monomial]] = {}
    for m in monos:
        blocks.setdefault(_wedge_letter_counts(m), []).append(m)
    raw_vectors: list[dict[int, Fraction]] = []
    for pq in sorted(blocks):
        block = tuple(blocks[pq])
        local = _invariant_vectors_block(block, s.n)
        for vec in local:
            raw_vectors.append({index_of[block[i]]: c for i, c in vec.items()})
    canonical = rref_vectors(raw_vectors, len(monos))
    vectors = []
    pivots = []
    for vec in canonical:
        terms = {monos[i]: c for i, c in vec.items()}
        vectors.append(SparseVector(s, terms))
        pivots.append(monos[min(vec)])
    basis = InvariantBasis(s, tuple(vectors), tuple(pivots))
    for sigma in generators(s.n):
        for v in basis.vectors:
            if act(sigma, v) != v:
                raise RuntimeError(f"computed vector not invariant in {s}")
    _INVARIANT_CACHE[key] = basis
    return basis


def invariant_basis_stacked(s: SpaceDescriptor, perms=None) -> InvariantBasis:
    """Reference computation from the full stacked matrix.

    ``perms`` defaults to the two generators; passing all group elements
    gives the brute-force fixed space used as a cross-check for small n.
    """
    monos = monomials(s)
    if perms is None:
        perms = generators(s.n)
    kernel = _kernel_vectors_stacked(monos, perms, s.n)
    vectors = []
    pivots = []
    for vec in kernel:
        vectors.append(SparseVector(s, {monos[i]: c for i, c in vec.items()}))
        pivots.append(monos[min(vec)])
    return InvariantBasis(s, tuple(vectors), tuple(pivots))


def clear_caches() -> None:
    _MONOMIAL_CACHE.clear()
    _INVARIANT_CACHE.clear()
