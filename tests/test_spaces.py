from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equivext.spaces import (
    Monomial,
    SpaceDescriptor,
    SparseVector,
    act,
    invariant_basis,
    invariant_basis_stacked,
    monomials,
    parse_monomial,
    space_dim,
    unit_vector,
)
from equivext.symgroup import Permutation, all_elements


def vec(n, k, a, b, text_terms):
    s = SpaceDescriptor(n, k, a, b)
    return SparseVector.make(s, {parse_monomial(t): c for t, c in text_terms.items()})


def test_space_dims():
    assert space_dim(SpaceDescriptor(2, 1, 0, 0)) == 4
    assert space_dim(SpaceDescriptor(2, 2, 1, 1)) == 24
    assert space_dim(SpaceDescriptor(5, 3, 0, 1)) == 600
    assert space_dim(SpaceDescriptor(2, 5, 0, 0)) == 0


def test_monomial_render_and_parse_roundtrip():
    m = Monomial((("u", 1), ("v", 1), ("v", 2)), (1,), (2,))
    assert m.render() == "u1^v1^v2|d1|e2"
    assert parse_monomial("u1^v1^v2|d1|e2") == m
    assert parse_monomial("1|e2") == Monomial((), (), (2,))


def test_act_identity_fixes_everything():
    x = vec(2, 1, 0, 1, {"u1|e2": 3, "v2|e1": -1})
    assert act(Permutation.identity(3), x) == x


def test_act_transposition_moves_indices():
    x = vec(2, 1, 0, 0, {"u1": 1})
    assert act(Permutation((2, 1, 3)), x) == vec(2, 1, 0, 0, {"u2": 1})


def test_act_cycle_expands_top_index():
    # the 3-cycle sends index 2 to 3, which expands to -(1) - (2)
    x = vec(2, 1, 0, 0, {"u2": 1})
    assert act(Permutation((2, 3, 1)), x) == vec(2, 1, 0, 0, {"u1": -1, "u2": -1})


def test_act_rejects_mismatched_degree():
    x = vec(2, 1, 0, 0, {"u1": 1})
    with pytest.raises(ValueError):
        act(Permutation.identity(4), x)


@st.composite
def vectors_and_two_perms(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, 2))
    a = draw(st.integers(0, 1))
    b = draw(st.integers(0, 1))
    s = SpaceDescriptor(n, k, a, b)
    basis = monomials(s)
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(basis) - 1), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        )
    )
    terms: dict[Monomial, Fraction] = {}
    for idx, c in picks:
        if c:
            terms[basis[idx]] = terms.get(basis[idx], Fraction(0)) + c
    x = SparseVector.make(s, terms)
    sigma = Permutation(tuple(draw(st.permutations(list(range(1, n + 2))))))
    tau = Permutation(tuple(draw(st.permutations(list(range(1, n + 2))))))
    return x, sigma, tau


@given(vectors_and_two_perms())
def test_act_is_a_left_action(data):
    x, sigma, tau = data
    assert act(sigma.compose(tau), x) == act(sigma, act(tau, x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constants_are_invariant(n):
    basis = invariant_basis(SpaceDescriptor(n, 0, 0, 0))
    assert basis.dim == 1
    assert basis.vectors[0] == unit_vector(n)


def test_one_leg_space_has_two_invariants_n3():
    assert invariant_basis(SpaceDescriptor(3, 1, 0, 1)).dim == 2


def test_odd_wedge_has_no_invariants_n2():
    assert invariant_basis(SpaceDescriptor(2, 1, 0, 0)).dim == 0


def test_degree_two_invariant_is_the_symplectic_sum_n2():
    basis = invariant_basis(SpaceDescriptor(2, 2, 0, 0))
    assert basis.dim == 1
    omega = vec(2, 2, 0, 0, {"u1^v1": 2, "u1^v2": 1, "u2^v1": 1, "u2^v2": 2})
    coords = basis.coordinates(omega)
    assert coords == [Fraction(2)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_wedge_lines_odd_wedge_zeros(n):
    dims = [invariant_basis(SpaceDescriptor(n, k, 0, 0)).dim for k in range(2 * n + 1)]
    assert dims == [1 if k % 2 == 0 else 0 for k in range(2 * n + 1)]


@pytest.mark.parametrize(
    "s",
    [
        SpaceDescriptor(2, 2, 0, 0),
        SpaceDescriptor(2, 1, 1, 1),
        SpaceDescriptor(2, 2, 1, 1),
        SpaceDescriptor(3, 1, 0, 1),
        SpaceDescriptor(3, 2, 1, 1),
        SpaceDescriptor(1, 0, 0, 0),
        SpaceDescriptor(1, 1, 0, 1),
        SpaceDescriptor(1, 1, 1, 0),
        SpaceDescriptor(1, 1, 1, 1),
        SpaceDescriptor(1, 2, 0, 0),
        SpaceDescriptor(1, 2, 1, 1),
    ],
)
def test_generator_fixed_space_equals_full_group_fixed_space(s):
    from_generators = invariant_basis(s)
    from_whole_group = invariant_basis_stacked(s, all_elements(s.n + 1))
    assert from_generators.vectors == from_whole_group.vectors


@pytest.mark.parametrize(
    "s",
    [
        SpaceDescriptor(2, 3, 1, 1),
        SpaceDescriptor(3, 2, 0, 1),
        SpaceDescriptor(3, 3, 1, 1),
        SpaceDescriptor(4, 2, 1, 1),
        SpaceDescriptor(2, 2, 2, 1),
    ],
)
def test_blockwise_path_matches_stacked_reference(s):
    assert invariant_basis(s).vectors == invariant_basis_stacked(s).vectors


def test_coordinates_reject_outside_vectors():
    basis = invariant_basis(SpaceDescriptor(2, 2, 0, 0))
    with pytest.raises(ValueError):
        basis.coordinates(vec(2, 2, 0, 0, {"u1^v1": 1}))
