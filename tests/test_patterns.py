import re
import time

import pytest
from hypothesis import given, strategies as st

import equivext.patterns as patterns_mod
from equivext.characters import invariant_dim
from equivext.dimformulas import TABLE_FAMILIES, formula_table
from equivext.patterns import pattern_dim, pattern_of
from equivext.spaces import (
    Monomial,
    SpaceDescriptor,
    act_monomial,
    invariant_basis,
)
from equivext.symgroup import Permutation

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
    # One entry of the tau rows alone only ever shrinks the kernel, since
    # the rows are redundant (the oracle catches that); flipping the tau
    # coefficient of one orbit sum in every row turns the kernel.
    rows = patterns_mod._rows

    def flipped(g, p, q, legs, n, column_of):
        out = rows(g, p, q, legs, n, column_of)
        if g(n + 1) == n:
            for row in out:
                if 0 in row:
                    row[0] = -row[0]
        return out

    monkeypatch.setattr(patterns_mod, "_rows", flipped)
    named = re.escape("not invariant for n=3, (p, q) = (1, 0), a + b = 1")
    with pytest.raises(RuntimeError, match=named):
        pattern_dim(SpaceDescriptor(3, 1, 0, 1))


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
