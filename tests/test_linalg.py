from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equivext.linalg import (
    SparseMatrix,
    integer_scaled,
    kernel_of_rows,
    rank,
    rank_of_rows,
    rref_vectors,
)

small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def dense_matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(small_ints, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return data


def dense(data) -> SparseMatrix:
    """The matrix with the given rows, as exact rationals."""
    entries = {(r, c): Fraction(v) for r, row in enumerate(data) for c, v in enumerate(row) if v}
    return SparseMatrix(len(data), len(data[0]), entries)


def test_zero_matrix_has_rank_zero():
    assert rank(SparseMatrix(3, 3, {})) == 0


def test_identity_has_full_rank():
    m = SparseMatrix(4, 4, {(i, i): Fraction(1) for i in range(4)})
    assert rank(m) == 4


def test_nullspace_of_identity_is_empty():
    assert kernel_of_rows([{i: Fraction(1)} for i in range(3)], 3) == []


def test_nullspace_of_zero_matrix_is_unit_vectors():
    basis = kernel_of_rows([{}, {}], 5)
    assert basis == [{i: Fraction(1)} for i in range(5)]


def test_theta_push_matrix_on_dual_leg_line_has_rank_two():
    # the 2-column connecting-map matrix in degree 1 is injective
    from equivext.spaces import SpaceDescriptor
    from equivext.yoneda import build_class, map_on_invariants

    m = map_on_invariants(build_class("theta(v)", 2), "push", SpaceDescriptor(2, 1, 1, 0))
    assert m.matrix.cols == 2
    assert m.rank == 2


def test_stacked_generator_kernel_on_one_leg_space_n3():
    from equivext.spaces import SpaceDescriptor
    from stacked_reference import invariant_basis_stacked

    basis = invariant_basis_stacked(SpaceDescriptor(3, 1, 0, 1))
    assert len(basis.vectors) == 2


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): 0.5})


@pytest.mark.parametrize("c", [0.1, 0.5, 0.0, -2.0])
def test_floats_are_rejected_at_the_vector_entry_points(c):
    from equivext.spaces import SpaceDescriptor, SparseVector, parse_monomial
    from equivext.yoneda import theta_of

    with pytest.raises(TypeError, match="float"):
        SparseVector.make(SpaceDescriptor(2, 2, 0, 0), {parse_monomial("u1^v1"): c})
    with pytest.raises(TypeError, match="float"):
        theta_of(2, c, 0)
    with pytest.raises(TypeError, match="float"):
        theta_of(2, Fraction(1, 2), c)
    exact = SparseVector.make(SpaceDescriptor(2, 2, 0, 0), {parse_monomial("u1^v1"): Fraction(1, 10)})
    assert exact.render() == "1/10*u1^v1"
    assert theta_of(2, Fraction(1, 2), 0) == theta_of(2, Fraction(1, 2), Fraction(0))


def test_int_input_gives_fraction_output():
    # 1.0 == 1, so only a type check catches a float leaking out
    outputs = (
        kernel_of_rows([{0: 2, 1: 1}], 2)
        + rref_vectors([{0: 2, 1: 1}], 2)
        + rref_vectors([{0: 1, 1: -1}, {0: 1, 2: 1}], 3)
        + kernel_of_rows([{0: 1, 1: 3}], 2)
    )
    assert outputs
    assert all(type(v) is Fraction for vec in outputs for v in vec.values())


def test_out_of_bounds_entry_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(0, 2): Fraction(1)})


def test_echelon_normal_form_leading_ones():
    # rref_vectors of the kernel of (1 1 1) has leading coefficient 1
    rows = dense([[1, 1, 1]]).row_dicts()
    basis = rref_vectors(kernel_of_rows(rows, 3), 3)
    assert basis == [
        {0: Fraction(1), 2: Fraction(-1)},
        {1: Fraction(1), 2: Fraction(-1)},
    ]


@given(dense_matrices())
def test_rank_plus_nullity_is_column_count(data):
    m = dense(data)
    assert rank(m) + len(kernel_of_rows(m.row_dicts(), m.cols)) == m.cols


@given(dense_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutations(data, rng):
    m = dense(data)
    rows = list(range(m.rows))
    cols = list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = SparseMatrix(
        m.rows, m.cols, {(rows[r], cols[c]): v for (r, c), v in m.entries.items()}
    )
    assert rank(permuted) == rank(m)


def _span_contains(rows, ncols, vector) -> bool:
    base = rank_of_rows(rows, ncols)
    return rank_of_rows(rows + [vector], ncols) == base


@given(dense_matrices())
def test_reversed_rows_same_rank_and_kernel_span(data):
    m = dense(data)
    reversed_m = dense(list(reversed(data)))
    assert rank(m) == rank(reversed_m)
    k1 = kernel_of_rows(m.row_dicts(), m.cols)
    k2 = kernel_of_rows(reversed_m.row_dicts(), m.cols)
    assert all(_span_contains(k2, m.cols, v) for v in k1)
    assert all(_span_contains(k1, m.cols, v) for v in k2)


@given(dense_matrices())
def test_kernel_vectors_are_killed_by_the_matrix(data):
    m = dense(data)
    rows = m.row_dicts()
    for vec in kernel_of_rows(rows, m.cols):
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0


@given(dense_matrices())
def test_kernel_basis_is_reduced_in_descending_column_order(data):
    m = dense(data)
    rows = m.row_dicts()
    basis = kernel_of_rows(rows, m.cols)
    assert len(basis) == m.cols - rank_of_rows(rows, m.cols)
    lasts = [max(vec) for vec in basis]
    assert lasts == sorted(set(lasts))
    for vec, last in zip(basis, lasts):
        assert vec[last] == 1
        assert all(sum(row.get(c, 0) * v for c, v in vec.items()) == 0 for row in rows)
        assert all(last not in other for other in basis if other is not vec)


@given(dense_matrices())
def test_rref_vectors_is_reduced_in_ascending_column_order(data):
    m = dense(data)
    basis = rref_vectors(m.row_dicts(), m.cols)
    assert len(basis) == rank(m)
    firsts = [min(vec) for vec in basis]
    assert firsts == sorted(set(firsts))
    for vec, first in zip(basis, firsts):
        assert vec[first] == 1
        assert all(first not in other for other in basis if other is not vec)


def test_pattern_dim_eliminates_each_kernel_once(monkeypatch):
    from equivext import linalg, patterns
    from equivext.cli import _family_spaces

    calls = []
    eliminate = linalg._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    patterns._kernel.cache_clear()
    monkeypatch.setattr(linalg, "_eliminate", counted)
    dims = [patterns.pattern_dim(s) for s in _family_spaces("ext_G_G", 4)]
    assert dims == [1, 2, 6, 6, 7, 6, 6, 2, 1]
    misses = patterns._kernel.cache_info().misses
    assert misses > 0
    assert len(calls) == misses


def test_integer_scaled_clears_denominators_by_their_lcm():
    assert integer_scaled({0: Fraction(1, 2), 3: Fraction(-2, 3), 5: Fraction(4)}) == (
        6,
        {0: 3, 3: -4, 5: 24},
    )
    assert integer_scaled({}) == (1, {})
