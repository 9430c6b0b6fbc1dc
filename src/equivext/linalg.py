"""Exact sparse linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values throughout and no float is ever
created, so every rank and kernel computed here is exact. Elimination is
plain rational Gaussian elimination with immediate reduction, and pivoting
is deterministic: lowest column index first, then lowest row index among
the rows not yet used as pivots. Repeated runs therefore produce
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational scalar, rejecting floats."""
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; only nonzero rational entries are stored."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
            if v == 0:
                raise ValueError(f"stored zero entry at ({r},{c})")
            if isinstance(v, float):
                raise TypeError(f"float entry {v!r} at ({r},{c}); entries must be exact")

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "SparseMatrix":
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in dict(entries).items():
            v = as_rational(v)
            if v:
                clean[(r, c)] = v
        return cls(rows, cols, clean)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense input")
            for c, v in enumerate(row):
                v = as_rational(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

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
    """Canonical basis of the right kernel of the matrix given by ``rows``."""
    work = [dict(r) for r in rows]
    pivot_of_col = _eliminate(work, ncols)
    basis = []
    for f in range(ncols):
        if f in pivot_of_col:
            continue
        vec = {f: _ONE}
        for c, p in pivot_of_col.items():
            coeff = work[p].get(f)
            if coeff:
                vec[c] = -coeff
        basis.append(vec)
    return rref_vectors(basis, ncols)


def rank(m: SparseMatrix) -> int:
    """Rank of ``m`` over the rationals."""
    return rank_of_rows(m.row_dicts(), m.cols)


def nullspace_basis(m: SparseMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of ``m`` in reduced echelon normal form.

    Each basis vector is a map column index -> coefficient with leading
    coefficient 1; vectors are ordered by leading column.
    """
    return kernel_of_rows(m.row_dicts(), m.cols)
