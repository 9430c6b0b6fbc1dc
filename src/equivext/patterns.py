"""Invariants from orbit patterns, without enumerating monomials.

The permutations of {1, ..., n} (the stabilizer of n+1) permute the
indices of a monomial and keep the u/v split of its wedge part, so an
orbit of monomials is named by its *pattern*: the multiset of the
nonempty index types, where the type of an index says whether it carries
a u-factor, a v-factor and which leg slots. A pattern has at most n
types. Its signed orbit sum is consistent, and so spans a line of
S_n-invariants, unless its stabilizer contains an odd wedge permutation,
which happens exactly when two leg-free types are both u-only or both
v-only. These are the set-partition orbit bases of Halverson and Ram
("Partition algebras", 2005) and Benkart and Halverson (2019); their
number stops growing once n reaches the number of slots.

The whole group is generated by S_n and tau = (n n+1). For an
S_n-invariant v, (tau - I)v is fixed by the permutations of {1..n-1},
so it vanishes iff it vanishes at one representative monomial of each
of their consistent orbits. Each such row is a sum over the preimages
of the representative, the monomials that put index n on a set S of its
slots (at most one u-slot and one v-slot, every slot holding index n
among them), signed by (-1)^|S|, by the wedge re-sort and by the
canonical sign of the preimage in its orbit sum. Both are read as type
sequences, the types of their indices in index order: a preimage moves
S's bits onto the position of index n, and only the order of the
positions enters a row, never n. The dimension is the number of
consistent patterns minus the rank of these rows.

The kernel is solved on the rows at representatives whose index n
holds an odd number s of slots (u-, v- and leg slots), about half of
them. As tau^2 = 1, w = (tau - I)v has tau w = -w; and tau sends a
monomial to (-1)^s times itself plus monomials with fewer slots at n.
So w at each even s is fixed by w at larger s, and w = 0 once it
vanishes at every odd s.

A row need not visit every preimage. In a consistent pattern only
u|v types (a u- and a v-factor, no leg) repeat, and indices of equal
type that no moved slot came from are interchangeable: swapping two of
them fixes the representative and commutes with tau, so it maps the
preimages onto each other with equal signed terms. A row therefore
takes one preimage per group of such indices, weighted by the group's
size.

Every kernel vector, scaled to integers, must then vanish on the rows
at every representative, odd and even, else the computation raises.
The even rows took no part in the elimination, so they check the
reduction to odd rows at run time, and the odd rows check the
elimination; S_n and tau generate the whole group, so a vector that
passes is invariant.

Dual and plain legs are acted on alike, so a block's kernel depends on
(n, p, q, a + b) only and is memoised on that key. The kernel is the one
source of invariants: :func:`pattern_dim` counts it,
:func:`equivext.spaces.checked_dim` compares the count with the
character oracle, :func:`equivext.spaces.invariant_basis` expands it
to monomials and checks the result on its integer action tables, and
:func:`read_orbits` reads an image back in orbit-sum coordinates from
its coefficients at two monomials per orbit (:func:`orbit_readings`),
checking the readings against each other and the result against the
kernel. A monomial's block, pattern and orbit-sum sign are read through
:func:`pattern_of`.

>>> from equivext.spaces import SpaceDescriptor
>>> [pattern_dim(SpaceDescriptor(n=4, k=k, a=1, b=1)) for k in range(9)]
[1, 2, 6, 6, 7, 6, 6, 2, 1]
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from .linalg import _add_into, integer_scaled, kernel_of_rows

if TYPE_CHECKING:
    from .spaces import Monomial, SpaceDescriptor

# A type is an int: bit 1 marks a u-factor, bit 0 a v-factor, bit 2 + s leg slot s.
_U, _V, _LEG = 2, 1, 4


def _canonical(types) -> tuple[tuple[int, ...], int]:
    """Pattern of a type sequence and its coefficient in the pattern's orbit sum.

    ``types`` lists the types of a monomial's indices in index order, 0
    for an index that holds nothing; only that order matters. The
    pattern is the sorted nonzero types, the coefficient
    :func:`_orbit_sign` of them.
    """
    types = [t for t in types if t]
    return tuple(sorted(types)), _orbit_sign(types)


def _orbit_sign(types: list[int]) -> int:
    """Coefficient in its orbit sum of a monomial whose nonzero types, in index order, are ``types``.

    The orbit sum is sigma applied to the representative that numbers
    the types 1, 2, ... in sorted order, so the coefficient is the sign
    of re-sorting the u-indices, and the v-indices, listed in that type
    order: each pair of indices i < j whose types t_i > t_j share a
    u-factor, or a v-factor, is one inversion. Indices of equal type
    keep their index order; for a consistent pattern they carry both a
    u- and a v-factor, and the two signs agree whatever their order.
    """
    odd = 0
    for i, x in enumerate(types):
        for y in types[i + 1 :]:
            if x > y:
                odd ^= (x & y & (_U | _V)).bit_count()
    return -1 if odd & 1 else 1


def pattern_of(m: Monomial, n: int) -> tuple[int, tuple[int, ...], int]:
    """A monomial's number p of u-factors, its pattern and its sign in the pattern's orbit sum.

    The one reading of a monomial as a type sequence (:func:`_canonical`),
    over the indices 0..n with 0 unused.
    """
    types = [0] * (n + 1)
    for letter, i in m.wedge:
        types[i] |= _U if letter == "u" else _V
    for slot, i in enumerate(m.duals + m.legs):
        types[i] |= _LEG << slot
    pattern, sign = _canonical(types)
    return sum(letter == "u" for letter, _ in m.wedge), pattern, sign


def _set_partitions(mask: int):
    """Every partition of the set bits of ``mask``, as lists of masks."""
    if not mask:
        yield []
        return
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        for tail in _set_partitions(rest ^ sub):
            yield [low | sub, *tail]
        if not sub:
            return
        sub = (sub - 1) & rest


@lru_cache(maxsize=None)
def _patterns(p: int, q: int, legs: int, most: int) -> tuple[tuple[int, ...], ...]:
    """The consistent patterns of :func:`_orbits`, in its order: a kernel's columns. Memoised."""
    return tuple(pattern for pattern, consistent in _orbits(p, q, legs, most) if consistent)


def _orbits(p: int, q: int, legs: int, most: int):
    """Every pattern with p u-factors, q v-factors and the leg bits ``legs``, and its consistency.

    Each leg block of a set partition of the slots becomes one type, with
    or without a u- and a v-factor; leg-free u|v, u-only and v-only types
    fill the remaining factors, the u|v ones from the most down. At most
    ``most`` types. A pattern is consistent unless it has two u-only or
    two v-only types. Yields (pattern, consistent).
    """
    for blocks in _set_partitions(legs):
        for flags in product(range(4), repeat=len(blocks)):
            typed = [block | f for block, f in zip(blocks, flags)]
            rp = p - sum(f >> 1 for f in flags)
            rq = q - sum(f & 1 for f in flags)
            for both in range(min(rp, rq), -1, -1):
                x, y = rp - both, rq - both
                if len(typed) + x + y + both <= most:
                    pattern = sorted(typed + [_U] * x + [_V] * y + [_U | _V] * both)
                    yield tuple(pattern), x < 2 and y < 2


def _representatives(p: int, q: int, legs: int, n: int):
    """One representative per consistent orbit of the permutations fixing n (and n+1).

    Index n takes any type (or none); the types of a consistent pattern
    on at most n - 1 types fill indices 1, 2, ... in ascending order.
    Yields the types of the indices used, in index order, as
    :func:`_canonical` reads them, with n's type (0 if it holds nothing)
    last.
    """
    sub = legs
    while True:
        for flag in range(4):
            tp, tq = flag >> 1, flag & 1
            if tp <= p and tq <= q:
                for rest in _patterns(p - tp, q - tq, legs ^ sub, n - 1):
                    yield (*rest, sub | flag)
        if not sub:
            return
        sub = (sub - 1) & legs


def _row(types: tuple[int, ...], width: int, column_of: dict, seen: dict) -> dict[int, int]:
    """Row of (tau - I) at one representative, read from its type sequence.

    ``types`` is as :func:`_representatives` yields it. The coefficient
    of the representative r in tau v sums over the preimages of r: the
    set S of r's slots that came from index n, whose image n+1 expands
    to -(e_1 + ... + e_n), holds every slot at n, and every other slot
    came from its own index. A preimage is r with S's bits moved onto
    the last position, n's. A slot already at n is forced and gives -1.
    A slot moved from position j gives -(-1)^m, where m counts the slots
    of the same kind (u-factors, v-factors, or that leg slot) after j:
    the wedge re-sort. The u|v indices other than n are interchangeable
    (module docstring): a slot moved from one of them not yet moved from
    stands for all of them, weighted by their number. Each preimage also
    gives its sign in its orbit sum.

    A type sequence is packed into one int, ``width`` bits per position,
    so a move is one addition. ``seen`` memoises each packed preimage's
    (column, sign), read by :func:`_packed_pattern`. n does not enter.
    """
    at = len(types) - 1
    ft = types[at]
    base = 0
    for j, t in enumerate(types):
        base |= t << width * j
    # (coefficient, preimage - base, how many u|v indices it moved slots from)
    partial = [(-1 if ft.bit_count() & 1 else 1, 0, 0)]
    for bit in (_U, _V):
        where = [] if ft & bit else [j for j, t in enumerate(types) if t & bit]
        if not where:
            continue
        moves, grouped = [], []
        for k, j in enumerate(where):
            between = len(where) - k - 1
            move = (1 if between & 1 else -1, (bit << width * at) - (bit << width * j))
            (grouped if types[j] == _U | _V else moves).append(move)
        step = []
        for c, d, used in partial:
            step.append((c, d, used))
            step += [(c * s, d + e, used) for s, e in moves]
            step += [(c * s, d + e, used) for s, e in grouped[:used]]
            if used < len(grouped):
                s, e = grouped[used]
                step.append((c * s * (len(grouped) - used), d + e, used + 1))
        partial = step
    # Every leg slot not at n is at one other index, alone of its kind.
    for slot in range(width - 2):
        bit = _LEG << slot
        if not ft & bit:
            j = next(j for j, t in enumerate(types) if t & bit)
            e = (bit << width * at) - (bit << width * j)
            partial += [(-c, d + e, used) for c, d, used in partial]
    partial.append((-1, 0, 0))  # the -I part, at the representative
    row: dict[int, int] = {}
    for c, d, _ in partial:
        key = base + d
        hit = seen.get(key)
        if hit is None:
            hit = seen[key] = _packed_pattern(key, width, column_of)
        col, sign = hit
        if col is not None:
            row[col] = row.get(col, 0) + c * sign
    return {c: v for c, v in row.items() if v}


def _packed_pattern(key: int, width: int, column_of: dict) -> tuple[int | None, int]:
    """Column and orbit-sum sign of a type sequence packed ``width`` bits per position.

    As :func:`_canonical`, but the sign is read only for a pattern that
    has a column: nearly a third of the preimages have none.
    """
    mask = (1 << width) - 1
    types = []
    while key:
        if key & mask:
            types.append(key & mask)
        key >>= width
    col = column_of.get(tuple(sorted(types)))
    return (None, 0) if col is None else (col, _orbit_sign(types))


def _rows(p: int, q: int, legs: int, n: int, column_of: dict) -> tuple[list[dict], list[dict]]:
    """Rows of (tau - I) on the consistent orbit sums: the odd ones and the even ones.

    (tau - I)v is fixed by the permutations of 1..n-1, so it is read at
    one representative of each consistent orbit of those, by
    :func:`_row`. A row is odd if its representative's index n holds an
    odd number of slots; the odd rows suffice to solve for the kernel,
    and the even ones check it (module docstring). Empty rows are dropped.
    """
    width = (legs | _U | _V).bit_length()
    seen: dict[int, tuple[int | None, int]] = {}  # packed preimage -> (column, sign)
    odd, even = [], []
    for types in _representatives(p, q, legs, n):
        row = _row(types, width, column_of, seen)
        if row:
            (odd if types[-1].bit_count() & 1 else even).append(row)
    return odd, even


Kernel = list[dict[tuple[int, ...], Fraction]]


def block_kernel(s: SpaceDescriptor, p: int) -> Kernel:
    """Invariants of the block of ``s`` with p u-factors, as combinations of orbit sums.

    The block's monomials have p u- and q = k - p v-factors. Each vector
    maps a consistent pattern to its coefficient; the orbit sum of a
    pattern has coefficient ``sign`` on each monomial for which
    :func:`pattern_of` gives that pattern and ``sign``. Every vector is
    checked against every row of tau, odd and even (module docstring).

    A vector's first key is its free pattern, as
    :func:`equivext.linalg.kernel_of_rows` states for its free columns;
    :func:`read_orbits` reduces at it.
    """
    return _kernel(s.n, p, s.k - p, s.a + s.b)


@lru_cache(maxsize=None)
def _kernel(n: int, p: int, q: int, slots: int) -> Kernel:
    """:func:`block_kernel` of every space with n and ``slots`` = a + b leg slots."""
    legs = ((1 << slots) - 1) * _LEG
    columns = _patterns(p, q, legs, n)
    column_of = {pattern: j for j, pattern in enumerate(columns)}
    odd, even = _rows(p, q, legs, n, column_of)
    # Sparse rows first: elimination then fills in far less.
    kernel = kernel_of_rows(sorted(odd, key=len), len(columns))
    for vec in kernel:
        _, ints = integer_scaled(vec)
        if any(sum(c * ints.get(j, 0) for j, c in row.items()) for row in odd + even):
            raise RuntimeError(
                f"pattern kernel vector not invariant for n={n}, "
                f"(p, q) = ({p}, {q}), a + b = {slots}"
            )
    return [{columns[j]: c for j, c in vec.items()} for vec in kernel]


def _representative(types: tuple[int, ...], a: int, b: int) -> tuple[tuple, tuple, tuple]:
    """The monomial whose index j holds ``types[j - 1]``, as (wedge, duals, legs).

    The inverse of :func:`pattern_of`'s reading; of the a + b leg slots,
    the first ``a`` are dual legs.
    """
    at = list(enumerate(types, 1))
    wedge = tuple(("u", j) for j, t in at if t & _U) + tuple(("v", j) for j, t in at if t & _V)
    slots = [j for s in range(a + b) for j, t in at if t & _LEG << s]
    return wedge, tuple(slots[:a]), tuple(slots[a:])


def orbit_readings(s: SpaceDescriptor, p: int) -> list[tuple[tuple[int, ...], tuple, tuple, int]]:
    """Two representative monomials of each orbit of the block of ``s`` with p u-factors.

    One (pattern, forward, reverse, sign) per orbit. ``forward`` numbers
    the pattern's types 1, 2, ... in sorted order, so its coefficient in
    the orbit sum is 1; ``reverse`` numbers them the other way round, and
    ``sign`` is its coefficient there (:func:`_canonical`). An
    inconsistent orbit has ``sign`` 0: every invariant vanishes on it.
    The monomials are (wedge, duals, legs), as
    :class:`equivext.spaces.Monomial` takes them.

    >>> from equivext.spaces import SpaceDescriptor
    >>> for pattern, forward, reverse, sign in orbit_readings(SpaceDescriptor(2, 2, 0, 0), 1):
    ...     print(pattern, forward[0], reverse[0], sign)  # types: 1 = v only, 2 = u only, 3 = both
    (3,) (('u', 1), ('v', 1)) (('u', 1), ('v', 1)) 1
    (1, 2) (('u', 2), ('v', 1)) (('u', 1), ('v', 2)) 1
    """
    out = []
    for pattern, consistent in _orbits(p, s.k - p, ((1 << (s.a + s.b)) - 1) * _LEG, s.n):
        reverse = pattern[::-1]
        sign = _canonical(reverse)[1] if consistent else 0
        forward_m, reverse_m = (_representative(t, s.a, s.b) for t in (pattern, reverse))
        out.append((pattern, forward_m, reverse_m, sign))
    return out


def read_orbits(s: SpaceDescriptor, p: int, readings, terms: dict) -> dict[tuple, Fraction]:
    """An invariant of the block of ``s`` with p u-factors in orbit-sum coordinates, checked.

    ``readings`` are the block's :func:`orbit_readings`, with each
    monomial keyed as in ``terms``, which maps monomials to coefficients
    (absent means 0). A consistent pattern's coordinate is the
    coefficient at its forward monomial. Raises ``ValueError`` unless:

    * each consistent orbit's reverse coefficient is ``sign`` times its
      forward one, and both coefficients of an inconsistent orbit are 0;
    * the coordinates reduce to zero against the block's pattern kernel,
      each vector at its first key (:func:`block_kernel`), so they lie in
      the invariants.

    Only the two monomials of each orbit are read, so these checks do not
    prove ``terms`` invariant; they catch a wrong image of a map that is
    equivariant by construction.
    """
    coords: dict[tuple[int, ...], Fraction] = {}
    for pattern, forward, reverse, sign in readings:
        x, y = terms.get(forward, 0), terms.get(reverse, 0)
        if not sign and (x or y):
            raise ValueError(f"nonzero coefficient on an inconsistent orbit of {s}")
        if y != (x if sign > 0 else -x):
            raise ValueError(f"coefficients vary on an orbit of {s}")
        if x:
            coords[pattern] = x
    residue = dict(coords)
    for vec in block_kernel(s, p):
        coord = residue.get(next(iter(vec)))
        if coord:
            _add_into(residue, vec.items(), -coord)
    if residue:
        raise ValueError(f"orbit combination outside the invariants of {s}")
    return coords


def pattern_dim(s: SpaceDescriptor) -> int:
    """Dimension of the subspace of W(n; k, a, b) fixed by the whole group.

    Sums the kernel sizes of the (p, q) blocks of the wedge part.
    Exchanging u and v maps the (p, q) block onto the (q, p) block, up
    to one sign, and commutes with the action, so only blocks with
    p >= q are solved.
    """
    total = 0
    for p in range((s.k + 1) // 2, min(s.k, s.n) + 1):
        dim = len(block_kernel(s, p))
        total += dim if 2 * p == s.k else 2 * dim
    return total
