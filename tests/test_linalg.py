from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equivext.linalg import (
    SparseMatrix,
    as_rational,
    kernel_of_rows,
    nullspace_basis,
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


def test_zero_matrix_has_rank_zero():
    assert rank(SparseMatrix.from_entries(3, 3, {})) == 0


def test_identity_has_full_rank():
    m = SparseMatrix.from_entries(4, 4, {(i, i): 1 for i in range(4)})
    assert rank(m) == 4


def test_nullspace_of_identity_is_empty():
    m = SparseMatrix.from_entries(3, 3, {(i, i): 1 for i in range(3)})
    assert nullspace_basis(m) == []


def test_nullspace_of_zero_matrix_is_unit_vectors():
    basis = nullspace_basis(SparseMatrix.from_entries(2, 5, {}))
    assert basis == [{i: Fraction(1)} for i in range(5)]


def test_theta_push_matrix_on_dual_leg_line_has_rank_two():
    # the 2-column connecting-map matrix in degree 1 is injective
    from equivext.spaces import SpaceDescriptor
    from equivext.yoneda import build_class, map_on_invariants

    m = map_on_invariants(build_class("theta(v)", 2), "push", SpaceDescriptor(2, 1, 1, 0))
    assert m.matrix.cols == 2
    assert m.rank == 2


def test_stacked_generator_kernel_on_one_leg_space_n3():
    from equivext.spaces import SpaceDescriptor, invariant_basis_stacked

    basis = invariant_basis_stacked(SpaceDescriptor(3, 1, 0, 1))
    assert len(basis.vectors) == 2


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        SparseMatrix.from_entries(1, 1, {(0, 0): 1.5})
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): 0.5})


def test_int_input_gives_fraction_output():
    # 1.0 == 1, so only a type check catches a float leaking out
    outputs = (
        nullspace_basis(SparseMatrix(1, 2, {(0, 0): 2, (0, 1): 1}))
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
    # kernel of (1 1 1) is echelonized with leading coefficient 1
    m = SparseMatrix.from_dense([[1, 1, 1]])
    basis = nullspace_basis(m)
    assert basis == [
        {0: Fraction(1), 2: Fraction(-1)},
        {1: Fraction(1), 2: Fraction(-1)},
    ]


@given(dense_matrices())
def test_rank_plus_nullity_is_column_count(data):
    m = SparseMatrix.from_dense(data)
    assert rank(m) + len(nullspace_basis(m)) == m.cols


@given(dense_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutations(data, rng):
    m = SparseMatrix.from_dense(data)
    rows = list(range(m.rows))
    cols = list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = SparseMatrix.from_entries(
        m.rows, m.cols, {(rows[r], cols[c]): v for (r, c), v in m.entries.items()}
    )
    assert rank(permuted) == rank(m)


def _span_contains(rows, ncols, vector) -> bool:
    base = rank_of_rows(rows, ncols)
    return rank_of_rows(rows + [vector], ncols) == base


@given(dense_matrices())
def test_reversed_rows_same_rank_and_kernel_span(data):
    m = SparseMatrix.from_dense(data)
    reversed_m = SparseMatrix.from_dense(list(reversed(data)))
    assert rank(m) == rank(reversed_m)
    k1 = nullspace_basis(m)
    k2 = nullspace_basis(reversed_m)
    assert all(_span_contains(k2, m.cols, v) for v in k1)
    assert all(_span_contains(k1, m.cols, v) for v in k2)


@given(dense_matrices())
def test_kernel_vectors_are_killed_by_the_matrix(data):
    m = SparseMatrix.from_dense(data)
    rows = m.row_dicts()
    for vec in kernel_of_rows(rows, m.cols):
        for row in rows:
            assert sum(row.get(c, 0) * v for c, v in vec.items()) == 0
