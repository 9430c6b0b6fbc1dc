"""The pattern row built from every preimage, a reference for the grouped one.

:func:`reference_row` is the row builder as it was before the u|v
indices were grouped: it lists every preimage of a representative, one
per choice of the position each slot moved from, and reads each
preimage's pattern and sign with :func:`equivext.patterns._canonical`.
:func:`equivext.patterns._row` lists one preimage per group of
untouched equal-type indices instead, so the tests compare the two.
"""

from itertools import product

from equivext.patterns import _LEG, _U, _V, _canonical, _representatives


def reference_row(types: tuple[int, ...], column_of: dict, seen: dict) -> dict[int, int]:
    """Row of (tau - I) at one representative, read from its type sequence.

    ``types`` is as :func:`_representatives` yields it, index n's type
    last, at position ``at``. The coefficient of the representative r in
    tau v sums over the preimages of r: the set S of r's slots that came
    from index n, whose image n+1 expands to -(e_1 + ... + e_n), holds
    every slot at n, and every other slot came from its own index. A
    preimage is r with S's bits moved onto position ``at``. A slot
    already at n is forced and gives -1. A slot moved from position j
    gives -(-1)^m, where m counts the slots of the same kind (u-factors,
    v-factors, or that leg slot) strictly between j and ``at``: the
    wedge re-sort. Each preimage also gives its sign in its orbit sum;
    ``seen`` memoises its (column, sign) on its nonzero types in order,
    which fix both. n does not enter.
    """
    at = len(types) - 1
    # The largest type holds the highest leg bit, so this lists every leg slot.
    bits = (_U, _V, *(_LEG << s for s in range(max(types).bit_length() - 2)))
    choices = []  # per bit: (sign, position the slot moves from, or None)
    for bit in bits:
        where = [j for j, t in enumerate(types) if t & bit]
        below = sum(j < at for j in where)
        moves = [(1, None)]
        for k, j in enumerate(where):
            between = below - k - 1 if j < at else k - below
            moves.append((-1 if between % 2 == 0 else 1, j))
        choices.append([(-1, None)] if types[at] & bit else moves)
    terms = {tuple(t for t in types if t): -1}  # the -I part, at the representative
    for combo in product(*choices):
        pre = list(types)
        coeff = 1
        for bit, (c, j) in zip(bits, combo):
            coeff *= c
            if j is not None:
                pre[j] ^= bit
                pre[at] |= bit
        key = tuple(t for t in pre if t)
        terms[key] = terms.get(key, 0) + coeff
    row: dict[int, int] = {}
    for key, coeff in terms.items():
        hit = seen.get(key)
        if hit is None:
            pattern, sign = _canonical(key)
            hit = seen[key] = (column_of.get(pattern), sign)
        col, sign = hit
        if col is not None:
            row[col] = row.get(col, 0) + coeff * sign
    return {c: v for c, v in row.items() if v}


def reference_rows(p: int, q: int, legs: int, n: int, column_of: dict) -> tuple[list, list]:
    """:func:`equivext.patterns._rows`, each row by :func:`reference_row`: the odd rows, the even ones."""
    seen: dict = {}
    out: tuple[list, list] = ([], [])
    for types in _representatives(p, q, legs, n):
        row = reference_row(types, column_of, seen)
        if row:
            out[types[-1].bit_count() % 2 == 0].append(row)
    return out
