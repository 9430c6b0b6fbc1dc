import re
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

import equivext.patterns as patterns_mod
from equivext.characters import invariant_dim
from equivext.dimformulas import TABLE_FAMILIES, formula_table
from equivext.patterns import pattern_dim, pattern_of
from equivext.spaces import (
    Monomial,
    SparseVector,
    SpaceDescriptor,
    _block,
    act,
    act_monomial,
    invariant_basis,
)
from equivext.linalg import integer_scaled
from equivext.symgroup import Permutation, transposition

from row_reference import reference_rows
from support import clear_caches


@pytest.fixture(autouse=True)
def fresh_pattern_cache():
    clear_caches()
    yield
    clear_caches()


LEG_SPLITS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
SHAPES = [(n, a, b) for n in (1, 2, 3, 4) for a, b in LEG_SPLITS]
SHAPES += [(n, a, 3 - a) for n in (1, 2, 3) for a in range(4)]


@pytest.mark.parametrize("n,a,b", SHAPES, ids=lambda x: str(x))
def test_pattern_dim_equals_engine_and_oracle(n, a, b):
    # Every k, n = 1 included: the n = 1 shapes of the generator test are all here.
    for k in range(2 * n + 2):
        s = SpaceDescriptor(n, k, a, b)
        assert pattern_dim(s) == invariant_basis(s).dim == invariant_dim(s), s


@st.composite
def monomials_and_perms(draw):
    n = draw(st.integers(1, 5))
    letters = [(x, i) for x in "uv" for i in range(1, n + 1)]
    gens = draw(st.lists(st.sampled_from(letters), unique=True))
    duals = draw(st.lists(st.integers(1, n), max_size=2))
    legs = draw(st.lists(st.integers(1, n), max_size=2))
    perm = draw(st.permutations(range(1, n + 1)))
    m = Monomial(tuple(sorted(gens)), tuple(duals), tuple(legs))
    return n, m, Permutation((*perm, n + 1))


def _pattern_and_sign(m: Monomial, n: int):
    _, pattern, sign = pattern_of(m, n)
    return pattern, sign


@given(monomials_and_perms())
def test_canonical_sign_follows_act_monomial(case):
    n, m, sigma = case
    pattern, sign = _pattern_and_sign(m, n)
    ((image, coeff),) = act_monomial(sigma, m, n).items()
    image_pattern, image_sign = _pattern_and_sign(image, n)
    assert image_pattern == pattern
    consistent = pattern.count(patterns_mod._U) <= 1 and pattern.count(patterns_mod._V) <= 1
    if consistent:
        # The orbit sum is invariant: sigma(sign * m) = sign * coeff * image.
        assert image_sign == sign * coeff


def test_flipped_tau_coefficient_fails_the_cycle_check(monkeypatch):
    # Flipping one entry of one tau row only shrank the kernel in every
    # block tried (n <= 4, a + b <= 2): most rows are redundant, even the
    # odd ones alone, and a lost invariant is the oracle's to catch.
    # Flipping the tau coefficient of one orbit sum in every odd row turns
    # the kernel, and the even rows, left as they are, catch it.
    rows = patterns_mod._rows

    def flipped(*args):
        odd, even = rows(*args)
        for row in odd:
            if 0 in row:
                row[0] = -row[0]
        return odd, even

    monkeypatch.setattr(patterns_mod, "_rows", flipped)
    named = re.escape("not invariant for n=3, (p, q) = (1, 0), a + b = 1")
    with pytest.raises(RuntimeError, match=named):
        pattern_dim(SpaceDescriptor(3, 1, 0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_are_the_monomial_action_at_each_representative(n):
    # _rows reads preimages off patterns; act expands index n+1 on monomials.
    # Every row of tau = (n n+1), odd and even, is compared with its action.
    tau = transposition(n + 1, n, n + 1)
    for slots, p, q in product(range(3), range(n + 1), range(n + 1)):
        s = SpaceDescriptor(n, p + q, slots, 0)
        legs = ((1 << slots) - 1) * patterns_mod._LEG
        columns = patterns_mod._patterns(p, q, legs, n)
        column_of = {pattern: j for j, pattern in enumerate(columns)}
        orbit_sums: list[dict] = [{} for _ in columns]
        for m in _block(s, p):
            _, pattern, sign = pattern_of(m, n)
            if pattern in column_of:
                orbit_sums[column_of[pattern]][m] = sign
        moved = [act(tau, SparseVector.make(s, terms)) for terms in orbit_sums]
        expected: tuple[list, list] = ([], [])  # odd, even
        for types in patterns_mod._representatives(p, q, legs, n):
            index = [*range(1, len(types)), n]
            us = [index[j] for j, t in enumerate(types) if t & patterns_mod._U]
            vs = [index[j] for j, t in enumerate(types) if t & patterns_mod._V]
            leg_at = [index[j] for s in range(slots) for j, t in enumerate(types)
                      if t & patterns_mod._LEG << s]
            wedge = tuple(("u", i) for i in us) + tuple(("v", i) for i in vs)
            r = Monomial(wedge, tuple(leg_at), ())
            row = {j: x.coeff(r) - orbit_sums[j].get(r, 0) for j, x in enumerate(moved)}
            row = {j: c for j, c in row.items() if c}
            if row:
                expected[types[-1].bit_count() % 2 == 0].append(row)
        rows = patterns_mod._rows(p, q, legs, n, column_of)
        assert rows == expected, (n, slots, p, q)


def _assert_rows_match_the_reference(n: int, p: int, q: int, slots: int):
    # The odd rows, as the kernel is solved, and the even ones, as it is checked.
    legs = ((1 << slots) - 1) * patterns_mod._LEG
    column_of = {pattern: j for j, pattern in enumerate(patterns_mod._patterns(p, q, legs, n))}
    rows = patterns_mod._rows(p, q, legs, n, column_of)
    assert rows == reference_rows(p, q, legs, n, column_of), (n, p, q, slots)


@pytest.mark.parametrize("n", range(1, 7))
def test_grouped_rows_equal_the_rows_of_every_preimage(n):
    # The grouped preimages, weighted by group size, give the same row
    # lists as one preimage per choice of the index each slot came from.
    for slots, p, q in product(range(4), range(n + 1), range(n + 1)):
        _assert_rows_match_the_reference(n, p, q, slots)


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n), st.integers(0, 3))
))
def test_grouped_rows_equal_the_reference_on_samples(case):
    _assert_rows_match_the_reference(*case)


def _tau_rows(n: int, p: int, q: int, slots: int):
    """The odd and the even rows of (tau - I), and each pattern's column."""
    legs = ((1 << slots) - 1) * patterns_mod._LEG
    column_of = {pattern: j for j, pattern in enumerate(patterns_mod._patterns(p, q, legs, n))}
    return *patterns_mod._rows(p, q, legs, n, column_of), column_of


# Every (n, a + b) up to n = 5 and a + b = 4 was checked once this way; the
# n = 4, 5 blocks with four leg slots take 85 s of Fraction elimination.
PARITY_SHAPES = [(n, slots) for n in range(1, 6) for slots in range(4)]
PARITY_SHAPES += [(n, 4) for n in range(1, 4)]


@pytest.mark.parametrize("n,slots", PARITY_SHAPES, ids=lambda x: str(x))
def test_odd_tau_rows_give_the_all_row_kernel(n, slots):
    # The odd rows are some of the rows, so their kernel contains the
    # all-row kernel; it is no larger if every row vanishes on it. Both
    # bases are reduced, so they are then equal.
    for p in range(n + 1):
        for q in range(n + 1):
            odd, even, column_of = _tau_rows(n, p, q, slots)
            for vec in patterns_mod._kernel(n, p, q, slots):
                _, ints = integer_scaled({column_of[pattern]: c for pattern, c in vec.items()})
                assert not any(
                    sum(c * ints.get(j, 0) for j, c in row.items()) for row in odd + even
                ), (n, p, q, slots)


def test_tau_rows_at_even_representatives_fail_the_cycle_check(monkeypatch):
    # Only the odd rows of tau suffice; the even ones alone leave
    # non-invariants in the kernel of some blocks, and the odd rows, then
    # only checked, catch them.
    rows = patterns_mod._rows

    def swapped(*args):
        odd, even = rows(*args)
        return even, odd

    monkeypatch.setattr(patterns_mod, "_rows", swapped)
    named = re.escape("not invariant for n=4, (p, q) = (2, 1), a + b = 2")
    with pytest.raises(RuntimeError, match=named):
        pattern_dim(SpaceDescriptor(4, 3, 1, 1))


def _block_rows(n: int, p: int, q: int, slots: int):
    """A block's columns, its odd tau rows and its even tau rows, keyed by pattern."""
    legs = ((1 << slots) - 1) * patterns_mod._LEG
    columns = patterns_mod._patterns(p, q, legs, n)
    column_of = {pattern: j for j, pattern in enumerate(columns)}
    odd, even = patterns_mod._rows(p, q, legs, n, column_of)
    keyed = [[{columns[j]: c for j, c in row.items()} for row in rows] for rows in (odd, even)]
    return columns, *keyed


def test_block_rows_are_the_same_for_every_n_past_the_slot_count():
    # From n = p + q + a + b + 1 on, every pattern fits in n - 1 types, and
    # a row moves slots only between its representative's own indices and
    # n, so no further index enters: the rows are the same lists for all n.
    compared = 0
    for p, q, slots in product(range(5), range(5), range(3)):
        if p + q > 4:
            continue
        for n in range(p + q + slots + 1, 9):
            assert _block_rows(n, p, q, slots) == _block_rows(n + 1, p, q, slots), (n, p, q, slots)
            compared += 1
    assert compared == 195


def test_every_table_family_at_n7_matches_the_closed_form():
    start = time.perf_counter()
    for family, (a, b) in TABLE_FAMILIES.items():
        dims = [pattern_dim(SpaceDescriptor(7, k, a, b)) for k in range(15)]
        assert dims == list(formula_table(family, 7).dims), family
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_kernel_vector_leads_with_its_own_last_pattern(n):
    # read_orbits reduces each vector at its first key: the free pattern, last
    # in column order, with coefficient 1, and absent from every other vector.
    checked = 0
    for a, b in sorted(set(TABLE_FAMILIES.values())):
        legs = ((1 << (a + b)) - 1) * patterns_mod._LEG
        for k in range(2 * n + 1):
            for p in range(max(0, k - n), min(k, n) + 1):
                columns = patterns_mod._patterns(p, k - p, legs, n)
                kernel = patterns_mod.block_kernel(SpaceDescriptor(n, k, a, b), p)
                for vec in kernel:
                    first = next(iter(vec))
                    assert vec[first] == 1
                    assert first == max(vec, key=columns.index)
                    assert sum(first in other for other in kernel) == 1
                    checked += 1
    assert checked


def test_pattern_columns_list_the_u_v_types_from_the_most_down():
    # The column order of every kernel: two u|v types, then one with a
    # u-only and a v-only type; two of each is inconsistent.
    assert patterns_mod._patterns(2, 2, 0, 4) == ((3, 3), (1, 2, 3))


def test_pattern_lists_are_memoised_until_the_caches_are_cleared():
    legs = 0b11 * patterns_mod._LEG  # two leg slots
    first = patterns_mod._patterns(2, 1, legs, 3)
    assert first and patterns_mod._patterns(2, 1, legs, 3) is first
    clear_caches()
    again = patterns_mod._patterns(2, 1, legs, 3)
    assert again == first and again is not first


READING_SPACES = [(2, 2, 0, 0), (3, 3, 0, 1), (3, 2, 1, 1), (4, 3, 1, 0), (3, 2, 2, 0)]


@pytest.mark.parametrize("n,k,a,b", READING_SPACES)
def test_orbit_readings_name_every_orbit_by_two_of_its_monomials(n, k, a, b):
    s = SpaceDescriptor(n, k, a, b)
    for p in range(max(0, k - n), min(k, n) + 1):
        readings = patterns_mod.orbit_readings(s, p)
        consistent = set(patterns_mod._patterns(p, k - p, ((1 << (a + b)) - 1) * 4, n))
        assert {pattern_of(m, n)[1] for m in _block(s, p)} == {t for t, *_ in readings}
        for pattern, forward, reverse, sign in readings:
            assert pattern_of(Monomial(*forward), n) == (p, pattern, 1)
            if pattern in consistent:
                assert pattern_of(Monomial(*reverse), n) == (p, pattern, sign)
            else:
                assert sign == 0 and pattern_of(Monomial(*reverse), n)[1] == pattern
