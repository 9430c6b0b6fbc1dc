"""The stacked-matrix invariant basis, the reference the engine is tested against.

It builds the full stacked matrix of (M_sigma - I) one monomial at a
time with :func:`equivext.spaces.act_monomial`, so it shares neither the
pattern kernels, the blocks nor the action tables of
:func:`equivext.spaces.invariant_basis`.
"""

from fractions import Fraction

from equivext.linalg import _add_into, kernel_of_rows, rref_vectors
from equivext.spaces import (
    InvariantBasis,
    Monomial,
    SpaceDescriptor,
    SparseVector,
    act_monomial,
)
from equivext.symgroup import generators

from support import monomials

_ONE = Fraction(1)


def _kernel_vectors_stacked(
    monos: tuple[Monomial, ...], perms, n: int
) -> list[dict[int, Fraction]]:
    """Common kernel of the stacked (M_sigma - I) over the given monomials, reduced.

    Built from :func:`act_monomial` per monomial, not from the action tables.
    """
    index_of = {m: i for i, m in enumerate(monos)}
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for g, sigma in enumerate(perms):
        for col, m in enumerate(monos):
            image = _add_into(act_monomial(sigma, m, n), [(m, -_ONE)])
            for target, coeff in image.items():
                rows.setdefault((g, index_of[target]), {})[col] = coeff
    row_list = [rows[key] for key in sorted(rows)]
    return rref_vectors(kernel_of_rows(row_list, len(monos)), len(monos))


def invariant_basis_stacked(s: SpaceDescriptor, perms=None) -> InvariantBasis:
    """Reference computation from the full stacked matrix.

    Each column is built with :func:`act_monomial`, one monomial at a
    time, so this reference shares neither the Kronecker action tables
    nor the blocks of :func:`invariant_basis` that tests compare it with.
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
