# The symmetric group S_{n+1}: the permutations the engine runs
# (`symgroup`) and the conjugacy classes the oracle lists (`characters`).
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from equivext.characters import conjugacy_classes, wedge_character
from equivext.symgroup import Permutation, full_cycle, generators, transposition

from support import after, all_elements, cycle_type, identity


def test_generators_smallest_group_deduplicates():
    gens = generators(1)
    assert gens == [Permutation((2, 1))]


def test_generators_standard_pair():
    assert generators(2) == [Permutation((2, 1, 3)), Permutation((2, 3, 1))]
    gens4 = generators(4)
    assert gens4[0] == transposition(5, 1, 2)
    assert gens4[1] == full_cycle(5)


def test_transposition_and_full_cycle_images():
    assert transposition(5, 2, 4).images == (1, 4, 3, 2, 5)
    assert transposition(3, 2, 2).images == (1, 2, 3)
    assert full_cycle(4).images == (2, 3, 4, 1)
    assert full_cycle(1).images == (1,)


def test_generators_reject_n_zero():
    with pytest.raises(ValueError):
        generators(0)


def test_classes_of_smallest_groups():
    assert conjugacy_classes(1) == (((2,), 1), ((1, 1), 1))
    assert conjugacy_classes(2) == (((3,), 2), ((2, 1), 3), ((1, 1, 1), 1))


def test_classes_against_brute_force_enumeration_n4():
    classes = conjugacy_classes(4)
    assert len(classes) == 7
    assert sum(size for _, size in classes) == 120
    buckets: dict[tuple[int, ...], int] = {}
    for images in itertools.permutations(range(1, 6)):
        lam = cycle_type(Permutation(images))
        buckets[lam] = buckets.get(lam, 0) + 1
    assert dict(classes) == buckets


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_sizes_sum_to_group_order(n):
    assert sum(size for _, size in conjugacy_classes(n)) == math.factorial(n + 1)


def test_classes_reject_n_zero():
    with pytest.raises(ValueError):
        conjugacy_classes(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_representative_fixed_points_count_ones(n):
    # The classes list cycle types only; pick a permutation of each type and
    # check that the oracle's degree-1 character, 2(fix - 1), is its own.
    for lam, _ in conjugacy_classes(n):
        rep = next(p for p in all_elements(n + 1) if cycle_type(p) == lam)
        fixed = sum(1 for i in range(1, n + 2) if rep(i) == i)
        assert fixed == lam.count(1)
        assert wedge_character(lam)[1] == 2 * (fixed - 1)


def test_partitions_descending_lex_order():
    # The cycle types are the partitions of n+1; the identity comes last.
    cycle_types = [lam for lam, _ in conjugacy_classes(3)]
    assert cycle_types == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generators_generate_the_full_group(n):
    gens = generators(n)
    seen = {identity(n + 1)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = after(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(seen) == math.factorial(n + 1)


@pytest.mark.parametrize("i", [0, -1, 4])
def test_permutation_rejects_an_index_outside_its_degree(i):
    # images[i - 1] would silently read images[-1] at i = 0.
    with pytest.raises(ValueError):
        transposition(3, 1, 2)(i)


@given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
def test_compose(p_images, q_images):
    p = Permutation(tuple(p_images))
    q = Permutation(tuple(q_images))
    pq = after(p, q)
    for i in range(1, 5):
        assert pq(i) == p(q(i))
