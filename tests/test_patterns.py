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
from equivext.symgroup import Permutation, full_cycle, transposition

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
    # Flipping the tau coefficient of one orbit sum in every row turns
    # the kernel.
    rows = patterns_mod._rows

    def flipped(f, p, q, legs, n, *args, **kwargs):
        out = rows(f, p, q, legs, n, *args, **kwargs)
        if f == n:
            for row in out:
                if 0 in row:
                    row[0] = -row[0]
        return out

    monkeypatch.setattr(patterns_mod, "_rows", flipped)
    named = re.escape("not invariant for n=3, (p, q) = (1, 0), a + b = 1")
    with pytest.raises(RuntimeError, match=named):
        pattern_dim(SpaceDescriptor(3, 1, 0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_are_the_monomial_action_at_each_representative(n):
    # _rows reads preimages off patterns; act expands index n+1 on monomials.
    # The rows of (1 n+1) are compared with the (n+1)-cycle's action, which
    # they stand in for, and the rows of (n n+1) with its own.
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
        for f, g in ((1, full_cycle(n + 1)), (n, transposition(n + 1, n, n + 1))):
            moved = [act(g, SparseVector.make(s, terms)) for terms in orbit_sums]
            expected = []
            others = [i for i in range(1, n + 1) if i != f]
            for types, at in patterns_mod._representatives(p, q, legs, n, f):
                index = others[:at] + [f] + others[at:]
                us = [index[j] for j, t in enumerate(types) if t & patterns_mod._U]
                vs = [index[j] for j, t in enumerate(types) if t & patterns_mod._V]
                leg_at = [index[j] for s in range(slots) for j, t in enumerate(types)
                          if t & patterns_mod._LEG << s]
                wedge = tuple(("u", i) for i in us) + tuple(("v", i) for i in vs)
                r = Monomial(wedge, tuple(leg_at), ())
                row = {j: x.coeff(r) - orbit_sums[j].get(r, 0) for j, x in enumerate(moved)}
                row = {j: c for j, c in row.items() if c}
                if row:
                    expected.append(row)
            rows = patterns_mod._rows(f, p, q, legs, n, column_of, {})
            assert rows == expected, (n, slots, p, q, f)


def _tau_rows(n: int, p: int, q: int, slots: int, odd: bool = False):
    """Rows of (tau - I) at every representative (or the odd ones), and each pattern's column."""
    legs = ((1 << slots) - 1) * patterns_mod._LEG
    column_of = {pattern: j for j, pattern in enumerate(patterns_mod._patterns(p, q, legs, n))}
    return patterns_mod._rows(n, p, q, legs, n, column_of, {}, odd), column_of


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
            rows, column_of = _tau_rows(n, p, q, slots)
            odd, _ = _tau_rows(n, p, q, slots, odd=True)
            every = {frozenset(row.items()) for row in rows}
            assert all(frozenset(row.items()) in every for row in odd)
            for vec in patterns_mod._kernel(n, p, q, slots):
                _, ints = integer_scaled({column_of[pattern]: c for pattern, c in vec.items()})
                assert not any(
                    sum(c * ints.get(j, 0) for j, c in row.items()) for row in rows
                ), (n, p, q, slots)


def test_tau_rows_at_even_representatives_fail_the_cycle_check(monkeypatch):
    # Only the odd rows of tau suffice; the even ones alone leave
    # non-invariants in the kernel of some blocks, and the rows of (1 n+1),
    # which are the cycle's, catch them.
    representatives = patterns_mod._representatives

    def even(p, q, legs, n, f, odd=False):
        for types, at in representatives(p, q, legs, n, f):
            if not odd or types[at].bit_count() % 2 == 0:
                yield types, at

    monkeypatch.setattr(patterns_mod, "_representatives", even)
    named = re.escape("not invariant for n=4, (p, q) = (2, 1), a + b = 2")
    with pytest.raises(RuntimeError, match=named):
        pattern_dim(SpaceDescriptor(4, 3, 1, 1))


def _block_rows(n: int, p: int, q: int, slots: int):
    """A block's columns, its odd (n n+1) rows and its (1 n+1) rows, keyed by pattern."""
    legs = ((1 << slots) - 1) * patterns_mod._LEG
    columns = patterns_mod._patterns(p, q, legs, n)
    column_of = {pattern: j for j, pattern in enumerate(columns)}

    def keyed(f: int, odd: bool):
        rows = patterns_mod._rows(f, p, q, legs, n, column_of, {}, odd)
        return [{columns[j]: c for j, c in row.items()} for row in rows]

    return columns, keyed(n, True), keyed(1, False)


def test_block_rows_are_the_same_for_every_n_past_the_slot_count():
    # From n = p + q + a + b + 1 on, every pattern fits in n - 1 types, and
    # a row moves slots only between its representative's own indices and
    # f, so no further index enters: the rows are the same lists for all n.
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


def test_pattern_lists_are_memoised_until_the_caches_are_cleared():
    legs = 0b11 * patterns_mod._LEG  # two leg slots
    first = patterns_mod._patterns(2, 1, legs, 3)
    assert first and patterns_mod._patterns(2, 1, legs, 3) is first
    clear_caches()
    again = patterns_mod._patterns(2, 1, legs, 3)
    assert again == first and again is not first
