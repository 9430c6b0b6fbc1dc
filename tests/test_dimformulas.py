import pytest

from equivext.dimformulas import (
    TABLE_FAMILIES,
    GradedDimVector,
    d_vector,
    ext_G_G,
    ext_G_OP,
    formula_table,
    graded_tensor,
    h_G,
    h_OP,
)
from equivext.spaces import SpaceDescriptor, invariant_basis


def conv(x, y):
    # independent convolution used to freeze expected values
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return tuple(out)


def test_graded_tensor_unit():
    v = GradedDimVector((3, 1, 4))
    assert graded_tensor(GradedDimVector((1,)), v).dims == (3, 1, 4)


def test_graded_tensor_published_products():
    assert graded_tensor((1, 2, 1), (1, 0, 1)).dims == (1, 2, 2, 2, 1)
    assert graded_tensor((1, 2, 1), (1, 2, 1)).dims == (1, 4, 6, 4, 1)


def test_graded_tensor_matches_independent_convolution():
    assert graded_tensor((1, 2, 1), (1, 0, 1, 0, 1)).dims == conv((1, 2, 1), (1, 0, 1, 0, 1))


def test_h_OP_patterns():
    assert h_OP(0).dims == (1,)
    assert h_OP(2).dims == (1, 0, 1, 0, 1)
    assert h_OP(4).dims == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_h_G_values():
    assert h_G(2).dims == (0, 2, 1, 2, 0)
    assert h_G(3).dims == (0, 2, 1, 2, 1, 2, 0)
    for n in range(2, 7):
        assert h_G(n)[1] == 2


def test_ext_G_OP_is_reverse_of_h_G():
    assert ext_G_OP(2).dims == (0, 2, 1, 2, 0)
    assert ext_G_OP(3).dims == (0, 2, 1, 2, 1, 2, 0)
    for n in range(2, 7):
        assert ext_G_OP(n).reversed_() == h_G(n)


def test_ext_G_G_values():
    assert ext_G_G(2).dims == (1, 2, 5, 2, 1)
    assert ext_G_G(3).dims == (1, 2, 6, 6, 6, 2, 1)
    assert ext_G_G(4).dims == (1, 2, 6, 6, 7, 6, 6, 2, 1)
    # frozen from the independent convolution minus the reversed vector
    d5 = conv(conv((1, 2, 1), (1, 2, 1)), (1, 0, 1, 0, 1, 0, 1))
    expected5 = tuple(a - b for a, b in zip(d5, reversed(h_G(5).dims)))
    assert expected5 == (1, 2, 6, 6, 7, 6, 7, 6, 6, 2, 1)
    assert ext_G_G(5).dims == expected5


def test_cancellation_identity():
    for n in range(2, 7):
        total = [x + y for x, y in zip(ext_G_OP(n).dims, ext_G_G(n).dims)]
        assert total == list(d_vector(n).dims)


def test_all_families_are_palindromes():
    for n in range(2, 7):
        for family in TABLE_FAMILIES:
            assert formula_table(family, n).is_palindrome(), (family, n)


def test_euler_characteristics():
    # the convolution family has vanishing Euler characteristic (one
    # factor already does); the one-leg family alternates to -(n+1)
    def euler(v):
        return sum((-1) ** i * d for i, d in enumerate(v.dims))

    for n in range(2, 7):
        assert euler(d_vector(n)) == 0
        assert euler(h_G(n)) == -(n + 1)


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        GradedDimVector((1, -1))
    with pytest.raises(ValueError):
        GradedDimVector((1, 0)).minus(GradedDimVector((0, 1)))


def test_d_vector_tail_differs_from_published_tail():
    d3 = d_vector(3)
    assert d3.dims == (1, 4, 7, 8, 7, 4, 1)
    assert d3.dims[-3:] == (7, 4, 1)
    assert d3.dims[-3:] != (7, 2, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_formula_vs_raw_all_degrees(n):
    for family, (a, b) in TABLE_FAMILIES.items():
        raw = [invariant_basis(SpaceDescriptor(n, k, a, b)).dim for k in range(2 * n + 1)]
        assert raw == list(formula_table(family, n).dims), (family, n)


def test_formula_vs_raw_all_degrees_n5():
    n = 5
    for family, (a, b) in TABLE_FAMILIES.items():
        raw = [invariant_basis(SpaceDescriptor(n, k, a, b)).dim for k in range(2 * n + 1)]
        assert raw == list(formula_table(family, n).dims), family


def test_raw_cancellation_identity():
    for n in (2, 3):
        raw_sum = [
            invariant_basis(SpaceDescriptor(n, k, 1, 0)).dim
            + invariant_basis(SpaceDescriptor(n, k, 1, 1)).dim
            for k in range(2 * n + 1)
        ]
        assert raw_sum == list(d_vector(n).dims)
