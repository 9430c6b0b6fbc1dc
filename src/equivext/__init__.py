"""Exact-arithmetic verification of equivariant extension dimension tables.

The package builds symmetric-group-equivariant wedge/tensor spaces over
exact rationals, extracts invariant bases, computes composition-product
ranks, and replays long-exact-sequence dimension chases, certifying that
the space of degree-1 self-extensions of the distinguished extension is
2-dimensional for every n in the configured range.

The names below are loaded on first access (PEP 562), each from its
home module, so importing the package or :mod:`equivext.cli` loads no
engine layer until one is used. Each home module is an attribute too
(``equivext.spaces``), imported on first access.
"""

import importlib

# Home module -> the public names it defines.
_HOMES = {
    "chase": "ChaseProblem ChaseReport TheoremFailure solve verify_theorem",
    "characters": "conjugacy_classes invariant_dim",
    "dimformulas": "GradedDimVector d_vector ext_G_G ext_G_OP graded_tensor h_G h_OP",
    "linalg": "SparseMatrix rank",
    "spaces": "InvariantBasis Monomial SpaceDescriptor SparseVector act invariant_basis "
    "parse_monomial space_dim",
    "symgroup": "Permutation generators",
    "yoneda": "DistinguishedClass MapOnInvariants PairingTable build_class compose "
    "map_on_invariants theta_of",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
