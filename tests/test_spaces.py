import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import equivext.spaces as spaces_mod
from equivext.spaces import (
    Monomial,
    SpaceDescriptor,
    SparseVector,
    act,
    act_monomial,
    invariant_basis,
    parse_monomial,
    space_dim,
)
from equivext.symgroup import Permutation, full_cycle, generators, transposition

from stacked_reference import invariant_basis_stacked
from support import after, all_elements, clear_caches, combination, identity, monomials


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


@pytest.mark.parametrize("text", ["1|d0", "1|e0", "1|e-1", "u0", "u1|x1", "1|", "u1^", ""])
def test_parse_rejects_malformed_factors_and_indices_below_one(text):
    with pytest.raises(ValueError):
        parse_monomial(text)


@pytest.mark.parametrize(
    "wedge, duals, legs, error",
    [
        ((("u", 1), ("v", 3)), (1,), (1,), "outside 1..2"),
        ((("u", 0), ("v", 1)), (1,), (1,), "outside 1..2"),
        ((("u", 1), ("v", 1)), (3,), (1,), "outside 1..2"),
        ((("u", 1), ("v", 1)), (1,), (0,), "outside 1..2"),
        ((("v", 1), ("u", 2)), (1,), (1,), "not strictly increasing"),
        ((("u", 1), ("u", 1)), (1,), (1,), "not strictly increasing"),
        ((("u", 1), ("w", 2)), (1,), (1,), "not strictly increasing"),
        ((("u", 1),), (1,), (1,), "wedge length"),
        ((("u", 1), ("v", 1)), (), (1,), "leg counts"),
        ((("u", 1), ("v", 1)), (1, 2), (1,), "leg counts"),
        ((("u", 1), ("v", 1)), (1,), (), "leg counts"),
    ],
)
def test_make_rejects_monomials_outside_the_space(wedge, duals, legs, error):
    s = SpaceDescriptor(2, 2, 1, 1)
    with pytest.raises(ValueError, match=error):
        SparseVector.make(s, {Monomial(wedge, duals, legs): 1})


def test_make_accepts_every_basis_monomial():
    s = SpaceDescriptor(2, 2, 1, 1)
    x = SparseVector.make(s, {m: 1 for m in monomials(s)})
    assert len(x.terms) == len(monomials(s))


def test_act_identity_fixes_everything():
    x = vec(2, 1, 0, 1, {"u1|e2": 3, "v2|e1": -1})
    assert act(identity(3), x) == x


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
        act(identity(4), x)


def test_act_rejects_an_index_below_one():
    # A raw-constructed vector skips make's checks; index 0 must not wrap to n+1.
    x = SparseVector(SpaceDescriptor(2, 1, 0, 0), {Monomial((("u", 0),), (), ()): Fraction(1)})
    with pytest.raises(ValueError):
        act(transposition(3, 1, 2), x)


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
    assert act(after(sigma, tau), x) == act(sigma, act(tau, x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constants_are_invariant(n):
    basis = invariant_basis(SpaceDescriptor(n, 0, 0, 0))
    assert basis.dim == 1
    assert basis.vectors[0] == vec(n, 0, 0, 0, {"1": 1})


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


# The n <= 3 shapes of test_patterns.SHAPES (every split with a + b <= 3), every k.
SMALL_SPACES = [
    pytest.param(SpaceDescriptor(n, k, a, b), id=f"n{n}-k{k}-a{a}-b{b}")
    for n in (1, 2, 3)
    for a in range(4)
    for b in range(4 - a)
    for k in range(2 * n + 2)
]


@pytest.mark.parametrize(
    "s",
    [
        SpaceDescriptor(2, 3, 1, 1),
        SpaceDescriptor(3, 2, 0, 1),
        SpaceDescriptor(3, 3, 1, 1),
        SpaceDescriptor(4, 2, 1, 1),
        SpaceDescriptor(2, 2, 2, 1),
        SpaceDescriptor(3, 2, 2, 2),
        *SMALL_SPACES,
    ],
)
def test_blockwise_path_matches_stacked_reference(s):
    # The stacked reference shares no kernel with the pattern engine.
    basis, reference = invariant_basis(s), invariant_basis_stacked(s)
    assert [v.render() for v in basis.vectors] == [v.render() for v in reference.vectors]
    assert [m.render() for m in basis.pivots] == [m.render() for m in reference.pivots]


def test_coordinates_reject_outside_vectors():
    basis = invariant_basis(SpaceDescriptor(2, 2, 0, 0))
    with pytest.raises(ValueError):
        basis.coordinates(vec(2, 2, 0, 0, {"u1^v1": 1}))


@st.composite
def block_monomials_and_perm(draw):
    n = draw(st.integers(1, 4))
    s = SpaceDescriptor(n, draw(st.integers(0, 2 * n)), draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    m = draw(st.sampled_from(monomials(s)))
    sigma = Permutation(tuple(draw(st.permutations(list(range(1, n + 2))))))
    return s, m, sigma


@given(block_monomials_and_perm())
def test_action_table_rows_match_act_monomial(data):
    s, m, sigma = data
    block = spaces_mod._block(s, sum(letter == "u" for letter, _ in m.wedge))
    index_of = {x: i for i, x in enumerate(block)}
    table = spaces_mod._ActionTable(block, sigma, s.n)
    row = list(table.row(index_of[m]))
    expected = {index_of[target]: c for target, c in act_monomial(sigma, m, s.n).items()}
    assert len(row) == len(expected) and dict(row) == expected
    assert all(type(j) is int and type(c) is int for j, c in row)


# n = 1, the empty wedge, the full wedge, no legs, three legs, and n = 5.
TABLE_SHAPES = [(1, 1, 1, 1), (2, 0, 1, 1), (3, 6, 0, 0), (4, 2, 2, 1), (3, 3, 2, 2), (5, 5, 1, 1)]


def letter_blocks(s):
    return [block for p in range(s.k + 1) if (block := spaces_mod._block(s, p))]


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_action_tables_equal_act_monomial_on_every_row(shape):
    s = SpaceDescriptor(*shape)
    n = s.n
    perms = [full_cycle(n + 1)] + [transposition(n + 1, i, i + 1) for i in range(1, n)]
    for block in letter_blocks(s):
        index_of = {x: i for i, x in enumerate(block)}
        for sigma in perms:
            table = spaces_mod._ActionTable(block, sigma, n)
            for i, m in enumerate(block):
                row = list(table.row(i))
                expected = {index_of[t]: c for t, c in act_monomial(sigma, m, n).items()}
                assert len(row) == len(expected) and dict(row) == expected, (m.render(), sigma)


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_blocks_are_wedge_major_with_legs_in_product_order(shape):
    # _ActionTable reads block position w * n^(a+b) + l as (w-th wedge, l-th leg tuple).
    s = SpaceDescriptor(*shape)
    leg_tuples = list(itertools.product(range(1, s.n + 1), repeat=s.a + s.b))
    blocks = {p: spaces_mod._block(s, p) for p in range(s.k + 1)}
    # The blocks partition the space, block p holding the monomials with p u-factors.
    listed = [m for block in blocks.values() for m in block]
    assert len(listed) == len(set(listed)) and set(listed) == set(monomials(s))
    for p, block in blocks.items():
        assert all(sum(letter == "u" for letter, _ in m.wedge) == p for m in block)
        runs = [block[i : i + len(leg_tuples)] for i in range(0, len(block), len(leg_tuples))]
        assert len(block) == len(runs) * len(leg_tuples)
        assert len({run[0].wedge for run in runs}) == len(runs)
        assert [run[0].wedge for run in runs] == sorted(run[0].wedge for run in runs)
        for run in runs:
            assert all(m.wedge == run[0].wedge for m in run)
            assert [m.duals + m.legs for m in run] == leg_tuples


def test_blocks_without_invariants_are_not_listed(monkeypatch):
    listed = []
    block = spaces_mod._block

    def recording(s, p):
        listed.append((s, p))
        return block(s, p)

    clear_caches()
    monkeypatch.setattr(spaces_mod, "_block", recording)
    wedge_only, legged = SpaceDescriptor(6, 6, 0, 0), SpaceDescriptor(5, 5, 1, 1)
    assert invariant_basis(wedge_only).dim == 1
    assert invariant_basis(legged).dim > 0
    assert listed == [(wedge_only, 3), (legged, 2), (legged, 3)]


def test_invariance_self_check_fires(monkeypatch):
    # Flip the sign of u1|e1 in the expansion of the pattern kernel to monomials.
    pattern_of = spaces_mod.pattern_of

    def flipped(m, n):
        p, pattern, sign = pattern_of(m, n)
        if m.render() == "u1|e1":
            sign = -sign
        return p, pattern, sign

    clear_caches()
    monkeypatch.setattr(spaces_mod, "pattern_of", flipped)
    s = SpaceDescriptor(3, 1, 0, 1)
    with pytest.raises(RuntimeError, match=re.escape(f"computed vector not invariant in {s}")):
        invariant_basis(s)


def test_invariance_self_check_covers_the_transposition(monkeypatch):
    # A vector fixed by the cycle alone must be rejected by the (1 2) table.
    s = SpaceDescriptor(3, 0, 1, 1)  # one block: every monomial has an empty wedge
    swap, cycle = generators(s.n)
    x = total = vec(3, 0, 1, 1, {"1|d1|e2": 1})
    for _ in range(s.n):
        x = act(cycle, x)
        total = combination((1, total), (1, x))
    assert act(cycle, total) == total and act(swap, total) != total
    index_of = {m: i for i, m in enumerate(monomials(s))}
    supplied = {index_of[m]: c for m, c in total.terms.items()}

    clear_caches()
    monkeypatch.setattr(spaces_mod, "rref_vectors", lambda vectors, ncols: [supplied])
    with pytest.raises(RuntimeError, match=re.escape(f"computed vector not invariant in {s}")):
        invariant_basis(s)


def test_every_call_checks_the_basis_against_the_oracle(monkeypatch):
    # No memo may hand out a basis the oracle has not just confirmed.
    s = SpaceDescriptor(3, 2, 1, 1)
    invariant_basis(s)
    oracle = spaces_mod.invariant_dim
    monkeypatch.setattr(spaces_mod, "invariant_dim", lambda t: oracle(t) + 1)
    with pytest.raises(RuntimeError, match=re.escape(f"invariant basis of {s} has dimension")):
        invariant_basis(s)


def test_tables_are_built_only_for_the_generators(monkeypatch):
    built = []

    class Recording(spaces_mod._ActionTable):
        def __init__(self, block, sigma, n):
            built.append(sigma)
            super().__init__(block, sigma, n)

    clear_caches()
    monkeypatch.setattr(spaces_mod, "_ActionTable", Recording)
    invariant_basis(SpaceDescriptor(4, 2, 1, 1))
    assert set(built) == set(generators(4))


def test_only_the_wedges_of_checked_vectors_are_normalised(monkeypatch):
    # W(7; 6, 0, 0) has one invariant block, (3, 3), of 35 * 35 = 1,225 wedges,
    # and its one vector touches 455 of them.
    calls: list[int] = []
    normal_form = spaces_mod._normal_form

    class Recording(spaces_mod._ActionTable):
        def __init__(self, block, sigma, n):
            calls.append(0)
            super().__init__(block, sigma, n)

    def counting(*args):
        calls[-1] += 1
        return normal_form(*args)

    clear_caches()
    monkeypatch.setattr(spaces_mod, "_ActionTable", Recording)
    monkeypatch.setattr(spaces_mod, "_normal_form", counting)
    basis = invariant_basis(SpaceDescriptor(7, 6, 0, 0))
    assert basis.dim == 1 and len({m.wedge for m in basis.vectors[0].terms}) == 455
    assert len(calls) == len(generators(7)) and all(0 < c <= 455 for c in calls)
