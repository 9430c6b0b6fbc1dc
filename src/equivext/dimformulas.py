"""Closed-form graded dimension vectors.

The building block is the graded tensor product (Kuenneth-style
convolution) of small dimension vectors. The degree vector of the
cohomology of the structure sheaf of the underlying abelian surface is
hard-coded as (1, 2, 1): the middle entry is the 2-dimensional
multiplicity space, the ends are the exterior powers of it.

All four derived families are palindromes, and each entry must agree
with the dimension of the corresponding raw invariant subspace; those
agreements are asserted by the verification pipeline, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

H_SURFACE = (1, 2, 1)


@dataclass(frozen=True)
class GradedDimVector:
    """Non-negative dimensions indexed by cohomological degree 0..top."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative entry in {self.dims}")

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)

    def reversed_(self) -> "GradedDimVector":
        return GradedDimVector(tuple(reversed(self.dims)))

    def is_palindrome(self) -> bool:
        return self.dims == tuple(reversed(self.dims))

    def minus(self, other: "GradedDimVector") -> "GradedDimVector":
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return GradedDimVector(tuple(a - b for a, b in zip(self.dims, other.dims)))

    def render(self) -> str:
        return "(" + ",".join(str(d) for d in self.dims) + ")"


def graded_tensor(*vectors) -> GradedDimVector:
    """Convolution out[d] = sum_i x[i] * y[d - i], extended to any arity."""
    result = (1,)
    for vec in vectors:
        dims = vec.dims if isinstance(vec, GradedDimVector) else tuple(vec)
        out = [0] * (len(result) + len(dims) - 1)
        for i, x in enumerate(result):
            if x:
                for j, y in enumerate(dims):
                    out[i + j] += x * y
        result = tuple(out)
    return GradedDimVector(result)


def h_OP(n: int) -> GradedDimVector:
    """(1, 0, 1, 0, ..., 1) of length 2n+1: one line in every even degree."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return GradedDimVector(tuple(1 if d % 2 == 0 else 0 for d in range(2 * n + 1)))


def h_G(n: int) -> GradedDimVector:
    """(0, 2, 1, 2, 1, ..., 2, 1, 2, 0); in particular the degree-1 entry is 2.

    Computed as conv((1,2,1), h_OP(n-1)) minus h_OP(n); a negative entry
    anywhere would mean an internal inconsistency and raises.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return graded_tensor(H_SURFACE, h_OP(n - 1)).minus(h_OP(n))


def ext_G_OP(n: int) -> GradedDimVector:
    """Reverse of h_G(n) (graded duality on a 2n-dimensional space)."""
    return h_G(n).reversed_()


def d_vector(n: int) -> GradedDimVector:
    """conv((1,2,1), (1,2,1), h_OP(n-2)); the two-leg family plus its dual."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return graded_tensor(H_SURFACE, H_SURFACE, h_OP(n - 2))


def ext_G_G(n: int) -> GradedDimVector:
    """d_vector(n) minus ext_G_OP(n), entrywise; raises on a negative entry."""
    return d_vector(n).minus(ext_G_OP(n))


# Degrees (a, b) of dual legs / plain legs whose raw invariant dimensions
# reproduce each closed-form family degree by degree.
TABLE_FAMILIES: dict[str, tuple[int, int]] = {
    "h_OP": (0, 0),
    "h_G": (0, 1),
    "ext_G_OP": (1, 0),
    "ext_G_G": (1, 1),
}


FORMULAS = {"h_OP": h_OP, "h_G": h_G, "ext_G_OP": ext_G_OP, "ext_G_G": ext_G_G, "d": d_vector}


def formula_table(family: str, n: int) -> GradedDimVector:
    try:
        formula = FORMULAS[family]
    except KeyError:
        raise ValueError(f"unknown table {family!r}") from None
    return formula(n)


# Tail of the n >= 3 vector for d as listed in the published reference
# table; exact convolution gives the palindromic tail (..., 8, 7, 4, 1).
PUBLISHED_D_TAIL = "(1,4,7,8,...,8,7,2,1)"
COMPUTED_D_TAIL = "(1,4,7,8,...,8,7,4,1)"
