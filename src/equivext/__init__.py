"""Exact-arithmetic verification of equivariant extension dimension tables.

The package builds symmetric-group-equivariant wedge/tensor spaces over
exact rationals, extracts invariant bases, computes composition-product
ranks, and replays long-exact-sequence dimension chases, certifying that
the space of degree-1 self-extensions of the distinguished extension is
2-dimensional for every n in the configured range.
"""

from .chase import ChaseProblem, ChaseReport, TheoremFailure, solve, verify_theorem
from .characters import invariant_dim
from .dimformulas import (
    GradedDimVector,
    d_vector,
    ext_G_G,
    ext_G_OP,
    graded_tensor,
    h_G,
    h_OP,
)
from .linalg import Rational, SparseMatrix, nullspace_basis, rank
from .spaces import (
    InvariantBasis,
    Monomial,
    SpaceDescriptor,
    SparseVector,
    act,
    invariant_basis,
    parse_monomial,
    space_dim,
)
from .symgroup import ConjugacyClass, Permutation, conjugacy_classes, generators
from .yoneda import (
    DistinguishedClass,
    MapOnInvariants,
    PairingTable,
    build_class,
    compose,
    map_on_invariants,
    theta_of,
)

__all__ = [
    "ChaseProblem",
    "ChaseReport",
    "ConjugacyClass",
    "DistinguishedClass",
    "GradedDimVector",
    "InvariantBasis",
    "MapOnInvariants",
    "Monomial",
    "PairingTable",
    "Permutation",
    "Rational",
    "SpaceDescriptor",
    "SparseMatrix",
    "SparseVector",
    "TheoremFailure",
    "act",
    "build_class",
    "compose",
    "conjugacy_classes",
    "d_vector",
    "ext_G_G",
    "ext_G_OP",
    "generators",
    "graded_tensor",
    "h_G",
    "h_OP",
    "invariant_basis",
    "invariant_dim",
    "map_on_invariants",
    "nullspace_basis",
    "parse_monomial",
    "rank",
    "solve",
    "space_dim",
    "theta_of",
    "verify_theorem",
]
