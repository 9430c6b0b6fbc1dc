"""Exact sparse linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values throughout and no float is ever
created, so every rank and kernel computed here is exact. Elimination is
plain rational Gaussian elimination with immediate reduction, and pivoting
is deterministic: lowest column index first, then lowest row index among
the rows not yet used as pivots. Repeated runs therefore produce
bit-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

_ONE = Fraction(1)


def _add_into(acc: dict, items, scale=1) -> dict:
    """Add ``scale * c`` to ``acc[key]`` for each (key, c) of ``items``; drop zeros."""
    for key, c in items:
        nv = acc.get(key, 0) + scale * c
        if nv:
            acc[key] = nv
        else:
            acc.pop(key, None)
    return acc


def integer_scaled(vec: dict) -> tuple[int, dict]:
    """The lcm ``d`` of the denominators of ``vec``, and ``d * vec`` in ints."""
    scale = math.lcm(*(c.denominator for c in vec.values()))
    return scale, {key: c.numerator * (scale // c.denominator) for key, c in vec.items()}


class _SparseMatrix(NamedTuple):
    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction]


class SparseMatrix(_SparseMatrix):
    """Immutable sparse matrix; only nonzero rational entries are stored."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]):
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v == 0:
                raise ValueError(f"stored zero entry at ({r},{c})")
            if isinstance(v, float):
                raise TypeError(f"float entry {v!r} at ({r},{c}); entries must be exact")
        return super().__new__(cls, rows, cols, entries)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out


def _eliminate(rows: list[dict[int, Fraction]], ncols: int) -> dict[int, int]:
    """Reduce ``rows`` in place to reduced row echelon form.

    Returns the map pivot column -> pivot row index. Mutates ``rows``.
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    pivot_of_col: dict[int, int] = {}
    pivot_rows: set[int] = set()
    for col in range(ncols):
        holders = col_rows.get(col)
        if not holders:
            continue
        candidates = [r for r in holders if r not in pivot_rows]
        if not candidates:
            continue
        p = min(candidates)
        prow = rows[p]
        pval = prow[col]
        # Normalizing by the exact inverse also turns int entries into Fractions.
        if pval != _ONE or not all(type(v) is Fraction for v in prow.values()):
            inv = _ONE / pval
            for c in prow:
                prow[c] *= inv
        for r in sorted(holders - {p}):
            row = rows[r]
            f = row[col]
            for c, pv in prow.items():
                nv = row.get(c, 0) - f * pv
                if nv:
                    row[c] = nv
                    col_rows.setdefault(c, set()).add(r)
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
        pivot_of_col[col] = p
        pivot_rows.add(p)
    return pivot_of_col


def rref_vectors(vectors, ncols: int) -> list[dict[int, Fraction]]:
    """Canonical reduced echelon basis of the span of ``vectors``.

    Output rows have leading coefficient 1 and are ordered by leading
    column. The result depends only on the span, not on the input order.
    """
    rows = [dict(v) for v in vectors]
    pivot_of_col = _eliminate(rows, ncols)
    return [rows[p] for _, p in sorted(pivot_of_col.items())]


def rank_of_rows(rows, ncols: int) -> int:
    work = [dict(r) for r in rows]
    return len(_eliminate(work, ncols))


def kernel_of_rows(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Canonical basis of the right kernel of the matrix given by ``rows``.

    One vector per free column f, ascending: e_f minus the reduced pivot
    rows' entries at f. It depends only on the row space, and it is the
    kernel's reduced echelon form in descending column order: each
    vector's last nonzero column is its f, and no other vector touches f.
    Each vector's first key is its f, with coefficient 1; callers reduce
    against the kernel at that key.
    """
    work = [dict(r) for r in rows]
    pivot_of_col = _eliminate(work, ncols)
    return [
        {f: _ONE, **{c: -work[p][f] for c, p in pivot_of_col.items() if f in work[p]}}
        for f in range(ncols)
        if f not in pivot_of_col
    ]


def rank(m: SparseMatrix) -> int:
    """Rank of ``m`` over the rationals."""
    return rank_of_rows(m.row_dicts(), m.cols)
