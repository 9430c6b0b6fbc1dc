import itertools
import math

import pytest
from hypothesis import given, strategies as st

from equivext.symgroup import (
    Permutation,
    conjugacy_classes,
    full_cycle,
    generators,
    partitions,
    transposition,
)

from support import after, cycle_type, identity


def test_generators_smallest_group_deduplicates():
    gens = generators(1)
    assert gens == [Permutation((2, 1))]


def test_generators_standard_pair():
    assert generators(2) == [Permutation((2, 1, 3)), Permutation((2, 3, 1))]
    gens4 = generators(4)
    assert gens4[0] == transposition(5, 1, 2)
    assert gens4[1] == full_cycle(5)


def test_generators_reject_n_zero():
    with pytest.raises(ValueError):
        generators(0)


def test_classes_of_smallest_groups():
    c1 = conjugacy_classes(1)
    assert [c.cycle_type for c in c1] == [(2,), (1, 1)]
    assert [c.class_size for c in c1] == [1, 1]
    c2 = conjugacy_classes(2)
    assert [c.cycle_type for c in c2] == [(3,), (2, 1), (1, 1, 1)]
    assert [c.class_size for c in c2] == [2, 3, 1]


def test_classes_against_brute_force_enumeration_n4():
    classes = conjugacy_classes(4)
    assert len(classes) == 7
    assert sum(c.class_size for c in classes) == 120
    buckets: dict[tuple[int, ...], int] = {}
    for images in itertools.permutations(range(1, 6)):
        lam = cycle_type(Permutation(images))
        buckets[lam] = buckets.get(lam, 0) + 1
    assert {c.cycle_type: c.class_size for c in classes} == buckets


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_sizes_sum_to_group_order(n):
    assert sum(c.class_size for c in conjugacy_classes(n)) == math.factorial(n + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_representative_fixed_points_count_ones(n):
    for c in conjugacy_classes(n):
        ones = sum(1 for part in c.cycle_type if part == 1)
        rep = c.representative
        assert sum(1 for i in range(1, n + 2) if rep(i) == i) == ones
        assert cycle_type(rep) == c.cycle_type


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


def test_partitions_descending_lex_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


@given(st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
def test_compose_and_inverse(p_images, q_images):
    p = Permutation(tuple(p_images))
    q = Permutation(tuple(q_images))
    pq = after(p, q)
    for i in range(1, 5):
        assert pq(i) == p(q(i))
    assert after(p, p.inverse()) == identity(4)
