from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import equivext.spaces as spaces_mod
import equivext.yoneda as yoneda_mod
from equivext.linalg import _add_into
from equivext.patterns import invariant_pattern_vector
from equivext.spaces import (
    Monomial,
    SpaceDescriptor,
    SparseVector,
    _sort_wedge,
    act,
    invariant_basis,
    parse_monomial,
)
from equivext.symgroup import Permutation, generators
from equivext.yoneda import (
    CLASS_NAMES,
    DistinguishedClass,
    PairingTable,
    build_class,
    compose,
    equivariant_pair,
    map_on_invariants,
    map_rank,
    theta_of,
)

from support import clear_caches, combination, monomials


def test_theta_expansion_n2():
    theta = build_class("theta(v)", 2)
    assert theta.value.coeff_of("v1|e1") == 2
    expected = {"v1|e1": 2, "v1|e2": 1, "v2|e1": 1, "v2|e2": 2}
    assert theta.value.terms == {
        parse_monomial(t): Fraction(c) for t, c in expected.items()
    }


def test_omega_spans_the_degree_two_invariants():
    omega = build_class("omega", 2)
    basis = invariant_basis(SpaceDescriptor(2, 2, 0, 0))
    assert basis.dim == 1
    assert basis.coordinates(omega.value) == [Fraction(2)]


def test_zero_direction_gives_zero_class():
    assert not theta_of(3, 0, 0).terms


def test_theta_is_linear_in_the_direction():
    n = 3
    combo = theta_of(n, 2, -3)
    by_hand = combination((2, theta_of(n, 1, 0)), (-3, theta_of(n, 0, 1)))
    assert combo == by_hand


def test_unknown_class_name_rejected():
    with pytest.raises(ValueError):
        build_class("sigma", 2)
    with pytest.raises(ValueError):
        build_class("theta(v)", 1)


def test_all_classes_are_invariant():
    for n in (2, 3):
        for name in ("theta(u)", "theta(v)", "omega", "phi(u)", "phi(v)", "xi"):
            cls = build_class(name, n)
            for sigma in generators(n):
                assert act(sigma, cls.value) == cls.value


def test_pairing_table_values():
    for n in (2, 3, 5):
        table = PairingTable(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert table.pair(i, j) == (1 if i == j else 0)
            assert table.pair(n + 1, i) == -1
            assert table.pair(i, n + 1) == -1
        assert table.pair(n + 1, n + 1) == n
        with pytest.raises(ValueError):
            table.pair(0, 1)


def test_equivariant_pairing_values_and_relation_consistency():
    for n in (2, 3, 4):
        for j in range(1, n + 2):
            for i in range(1, n + 2):
                base = 1 if i == j else 0
                assert equivariant_pair(n, j, i) == base - Fraction(1, n + 1)
            # index n+1 stands for minus the sum of the others
            total = -sum(equivariant_pair(n, c, j) for c in range(1, n + 1))
            assert equivariant_pair(n, n + 1, j) == total


def test_compose_with_the_unit_is_identity():
    theta = build_class("theta(v)", 3)
    unit = SparseVector.make(SpaceDescriptor(3, 0, 0, 0), {parse_monomial("1"): 1})
    assert compose(theta.value, unit) == theta.value


def test_compose_rejects_incompatible_legs():
    theta = build_class("theta(v)", 2)
    with pytest.raises(ValueError):
        compose(theta.value, theta.value)  # 0 dual legs vs 1 plain leg
    with pytest.raises(ValueError):
        compose(theta.value, build_class("theta(v)", 3).value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_published_coefficients(n):
    theta = build_class("theta(v)", n)
    omega = build_class("omega", n)
    phi_v = build_class("phi(v)", n)
    phi_u = build_class("phi(u)", n)
    xi = build_class("xi", n)
    assert compose(theta.value, omega.value).coeff_of("u1^v1^v2|e2") == 3
    assert compose(theta.value, phi_v.value).coeff_of("v1^v2|d1|e2") == 3
    assert compose(theta.value, phi_u.value).coeff_of("u1^v1|d1|e1") == 4
    table_pull = compose(xi.value, theta.value, pairing="table")
    assert table_pull.coeff_of("u1^v1|e1") == 1 - n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equivariant_pull_witness(n):
    # the equivariant contraction moves the nonvanishing witness: the
    # image is a nonzero invariant whose u1^v1|e1 coefficient vanishes
    theta = build_class("theta(v)", n)
    xi = build_class("xi", n)
    image = compose(xi.value, theta.value)
    assert image.terms
    assert image.coeff_of("u1^v1|e1") == 0
    assert image.coeff_of("u1^v1|e2") == -1
    for sigma in generators(n):
        assert act(sigma, image) == image


def test_table_contraction_image_is_not_invariant():
    theta = build_class("theta(v)", 2)
    xi = build_class("xi", 2)
    image = compose(xi.value, theta.value, pairing="table")
    cycle = generators(2)[1]
    assert act(cycle, image) != image


def test_compose_rejects_contracted_indices_out_of_range():
    x = SparseVector.make(SpaceDescriptor(2, 0, 1, 0), {parse_monomial("1|d1"): 1})
    y = SparseVector.make(SpaceDescriptor(2, 0, 0, 1), {parse_monomial("1|e1"): 1})
    # SparseVector.make and parse_monomial reject these indices, so the
    # vectors are built directly to reach compose's own check.
    far_x = SparseVector(x.space, {Monomial((), (9,), ()): Fraction(1)})
    far_y = SparseVector(y.space, {Monomial((), (), (0,)): Fraction(1)})
    for pairing in ("equivariant", "table"):
        for left, right in ((far_x, y), (x, far_y)):
            with pytest.raises(ValueError, match="pairing index out of range"):
                compose(left, right, pairing=pairing)


def _compose_reference(x: SparseVector, y: SparseVector, pairing: str) -> SparseVector:
    """compose in Fraction arithmetic, one wedge sort and contraction per term pair."""
    sx, sy = x.space, y.space
    n = sx.n
    if pairing == "equivariant":
        pair = lambda d, l: equivariant_pair(n, d, l)
    else:
        pair = PairingTable(n).pair
    sign0 = Fraction(-1 if sx.a % 2 else 1)
    terms: dict[Monomial, Fraction] = {}
    for mx, cx in x.terms.items():
        products = []
        for my, cy in y.terms.items():
            contraction = Fraction(1)
            for dual, leg in zip(mx.duals, my.legs):
                contraction *= pair(dual, leg)
                if not contraction:
                    break
            if not contraction:
                continue
            sorted_w = _sort_wedge(list(my.wedge) + list(mx.wedge))
            if sorted_w is None:
                continue
            ssign, wedge = sorted_w
            products.append((Monomial(wedge, my.duals, mx.legs), ssign * contraction * cy))
        _add_into(terms, products, sign0 * cx)
    return SparseVector(SpaceDescriptor(n, sx.k + sy.k, sy.a, sx.b), terms)


def _random_vector(draw, s: SpaceDescriptor, denominators=(1,)) -> SparseVector:
    basis = monomials(s)
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(basis) - 1),
                st.integers(-2, 2),
                st.sampled_from(denominators),
            ),
            min_size=1,
            max_size=3,
        )
    )
    terms: dict[Monomial, Fraction] = {}
    for idx, c, d in picks:
        if c:
            terms[basis[idx]] = terms.get(basis[idx], Fraction(0)) + Fraction(c, d)
    return SparseVector.make(s, terms)


@st.composite
def composable_pairs(draw):
    n = draw(st.integers(2, 3))
    kx = draw(st.integers(0, 2))
    ky = draw(st.integers(0, 2))
    contractions = draw(st.integers(0, 1))
    a_y = draw(st.integers(0, 1))
    b_x = draw(st.integers(0, 1))
    x = _random_vector(draw, SpaceDescriptor(n, kx, contractions, b_x))
    y = _random_vector(draw, SpaceDescriptor(n, ky, a_y, contractions))
    return x, y


@given(composable_pairs(), st.data())
def test_compose_is_bilinear(pair, data):
    x, y = pair
    lam = data.draw(st.integers(-3, 3))
    y2 = _random_vector(data.draw, y.space)
    assert compose(x, combination((1, y), (lam, y2))) == combination(
        (1, compose(x, y)), (lam, compose(x, y2))
    )
    x2 = _random_vector(data.draw, x.space)
    assert compose(combination((1, x), (lam, x2)), y) == combination(
        (1, compose(x, y)), (lam, compose(x2, y))
    )


@given(composable_pairs(), st.data())
def test_compose_is_equivariant(pair, data):
    x, y = pair
    n = x.space.n
    sigma = Permutation(tuple(data.draw(st.permutations(list(range(1, n + 2))))))
    assert act(sigma, compose(x, y)) == compose(act(sigma, x), act(sigma, y))


@st.composite
def composable_triples(draw):
    n = draw(st.integers(2, 3))
    a_x = draw(st.integers(0, 1))
    a_y = draw(st.integers(0, 1))
    a_z = draw(st.integers(0, 1))
    b_x = draw(st.integers(0, 1))
    x = _random_vector(draw, SpaceDescriptor(n, draw(st.integers(0, 1)), a_x, b_x))
    y = _random_vector(draw, SpaceDescriptor(n, draw(st.integers(0, 1)), a_y, a_x))
    z = _random_vector(draw, SpaceDescriptor(n, draw(st.integers(0, 1)), a_z, a_y))
    return x, y, z


@st.composite
def rational_composable_pairs(draw):
    n = draw(st.integers(2, 3))
    contractions = draw(st.integers(0, 2))
    denominators = range(1, 7)
    x_space = SpaceDescriptor(n, draw(st.integers(0, 2)), contractions, draw(st.integers(0, 1)))
    y_space = SpaceDescriptor(n, draw(st.integers(0, 2)), draw(st.integers(0, 1)), contractions)
    return _random_vector(draw, x_space, denominators), _random_vector(draw, y_space, denominators)


@given(rational_composable_pairs(), st.sampled_from(["equivariant", "table"]))
def test_compose_matches_the_fraction_reference(pair, pairing):
    x, y = pair
    assert compose(x, y, pairing=pairing) == _compose_reference(x, y, pairing)


@pytest.mark.parametrize("n", [2, 3])
def test_multi_leg_compositions_of_invariants_are_invariant(n):
    # Two contracted legs: x in W(n; k, 2, b) after y in W(n; k', a, 2).
    count = 0
    for k, k2 in ((0, 0), (0, 1), (1, 0)):
        for a in (0, 1):
            for b in (0, 1):
                xs = invariant_basis(SpaceDescriptor(n, k, 2, b)).vectors
                ys = invariant_basis(SpaceDescriptor(n, k2, a, 2)).vectors
                target = invariant_basis(SpaceDescriptor(n, k + k2, a, b))
                for x in xs:
                    for y in ys:
                        target.coordinates(compose(x, y))  # raises if not invariant
                        count += 1
    assert count == {2: 36, 3: 44}[n]


@given(composable_triples())
def test_compose_is_associative(triple):
    x, y, z = triple
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


@given(composable_triples())
def test_compose_is_associative_with_table_pairing(triple):
    x, y, z = triple
    lhs = compose(compose(x, y, pairing="table"), z, pairing="table")
    rhs = compose(x, compose(y, z, pairing="table"), pairing="table")
    assert lhs == rhs


@st.composite
def pure_wedge_pairs(draw):
    n = draw(st.integers(2, 3))
    x = _random_vector(draw, SpaceDescriptor(n, draw(st.integers(0, 3)), 0, 0))
    y = _random_vector(draw, SpaceDescriptor(n, draw(st.integers(0, 3)), 0, 0))
    return x, y


@given(pure_wedge_pairs())
def test_graded_skew_commutativity_on_pure_wedges(pair):
    x, y = pair
    k, l = x.space.k, y.space.k
    sign = -1 if (k * l) % 2 else 1
    assert compose(x, y) == combination((sign, compose(y, x)))


def test_wedge_overflow_composes_to_zero():
    x = _fixed_vector(2, 3, "u1^u2^v1")
    y = _fixed_vector(2, 2, "u1^v2")
    assert not compose(x, y).terms


def _fixed_vector(n, k, text):
    s = SpaceDescriptor(n, k, 0, 0)
    return SparseVector.make(s, {parse_monomial(text): 1})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_battery(n):
    theta = build_class("theta(v)", n)
    assert map_on_invariants(theta, "push", SpaceDescriptor(n, 0, 0, 0)).rank == 1
    assert map_on_invariants(theta, "push", SpaceDescriptor(n, 2, 0, 0)).rank == 1
    assert map_on_invariants(theta, "push", SpaceDescriptor(n, 1, 1, 0)).rank == 2
    assert map_on_invariants(theta, "pull", SpaceDescriptor(n, 1, 1, 1)).rank >= 1


def test_zero_class_pushes_to_rank_zero():
    zero = DistinguishedClass("theta(0)", theta_of(2, 0, 0), SpaceDescriptor(2, 1, 0, 1))
    assert map_on_invariants(zero, "push", SpaceDescriptor(2, 0, 0, 0)).rank == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_injectivity_battery_every_even_degree(n):
    theta = build_class("theta(v)", n)
    for i in range(n):
        m = map_on_invariants(theta, "push", SpaceDescriptor(n, 2 * i, 0, 0))
        assert m.source.dim == 1
        assert m.rank == 1


@pytest.mark.parametrize("n", [2, 3])
def test_swapping_the_multiplicity_directions_preserves_ranks(n):
    plain = build_class("theta(v)", n)
    swapped = build_class("theta(u)", n)
    for side, source in [
        ("push", SpaceDescriptor(n, 0, 0, 0)),
        ("push", SpaceDescriptor(n, 2, 0, 0)),
        ("push", SpaceDescriptor(n, 1, 1, 0)),
        ("pull", SpaceDescriptor(n, 1, 1, 1)),
    ]:
        assert (
            map_on_invariants(plain, side, source).rank
            == map_on_invariants(swapped, side, source).rank
        )


def test_map_matrix_shape_matches_bases():
    m = map_on_invariants(build_class("theta(v)", 2), "push", SpaceDescriptor(2, 1, 1, 0))
    assert m.matrix.rows == m.target.dim
    assert m.matrix.cols == m.source.dim


@pytest.mark.parametrize("wrong", ["source", "target"])
def test_map_bases_are_checked_against_the_oracle(monkeypatch, wrong):
    theta = build_class("theta(v)", 2)
    source = SpaceDescriptor(2, 1, 1, 0)
    bad = source if wrong == "source" else SpaceDescriptor(2, 2, 1, 1)
    oracle = spaces_mod.invariant_dim
    monkeypatch.setattr(spaces_mod, "invariant_dim", lambda s: oracle(s) + (s == bad))
    with pytest.raises(RuntimeError, match="has dimension"):
        map_on_invariants(theta, "push", source)


@pytest.mark.parametrize("n", [2, 3])
def test_returned_coefficients_are_fractions(n):
    # The monomial layer counts in ints; every vector handed out is exact rational.
    classes = [build_class(name, n) for name in CLASS_NAMES]
    theta, omega, xi = (c.value for c in classes if c.name in ("theta(v)", "omega", "xi"))
    bases = [
        invariant_basis(SpaceDescriptor(n, k, a, b))
        for k, a, b in ((0, 0, 0), (2, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1))
    ]
    vectors = [c.value for c in classes] + [v for basis in bases for v in basis.vectors]
    vectors += [act(sigma, x) for sigma in generators(n) for x in vectors]
    vectors += [compose(theta, omega), compose(xi, theta, pairing="table")]
    vectors += [compose(theta, v) for v in bases[1].vectors]
    vectors += [compose(v, theta) for v in bases[3].vectors]
    for x in vectors:
        assert all(type(c) is Fraction for c in x.terms.values()), x.render()



def _battery_maps(n):
    """(side, source) of every map the rank battery and the chase run, remark maps included."""
    maps = [
        ("push", SpaceDescriptor(n, 0, 0, 0)),
        ("push", SpaceDescriptor(n, 2, 0, 0)),
        ("push", SpaceDescriptor(n, 1, 1, 0)),
        ("pull", SpaceDescriptor(n, 1, 1, 1)),
    ]
    return maps + [("push", SpaceDescriptor(n, 2 * i, 0, 0)) for i in range(2, n)]


def _battery_classes(n):
    theta = build_class("theta(v)", n)
    zero = DistinguishedClass("theta(0)", theta_of(n, 0, 0), theta.space)
    return [theta, build_class("theta(u)", n), zero]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_map_rank_equals_the_materialised_reference_on_the_battery(n):
    for cls in _battery_classes(n):
        for side, source in _battery_maps(n):
            assert map_rank(cls, side, source) == map_on_invariants(cls, side, source).rank


@st.composite
def class_maps(draw):
    n = draw(st.integers(2, 4))
    cls = build_class(draw(st.sampled_from(CLASS_NAMES)), n)
    scale = draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
    cls = DistinguishedClass(cls.name, combination((scale, cls.value)), cls.space)
    side = draw(st.sampled_from(["push", "pull"]))
    free = draw(st.integers(0, 1))
    k = draw(st.integers(0, 2 * n - cls.space.k))
    if side == "push":
        source = SpaceDescriptor(n, k, free, cls.space.a)
    else:
        source = SpaceDescriptor(n, k, cls.space.b, free)
    return cls, side, source


@given(class_maps())
def test_map_rank_equals_the_materialised_reference_on_a_sample(case):
    cls, side, source = case
    assert map_rank(cls, side, source) == map_on_invariants(cls, side, source).rank


def _image(n=3):
    # theta after the degree-2 invariant: 18 monomials in W(3; 3, 0, 1), orbits of 6.
    vec = invariant_basis(SpaceDescriptor(n, 2, 0, 0)).vectors[0]
    return compose(build_class("theta(v)", n).value, vec)


def test_pattern_reading_rejects_a_perturbed_coefficient():
    image = _image()
    terms = dict(image.terms)
    first = image.sorted_terms()[0][0]
    terms[first] += 1
    with pytest.raises(ValueError, match="vary on an orbit"):
        invariant_pattern_vector(image.space, terms)


def test_pattern_reading_rejects_a_dropped_monomial():
    image = _image()
    terms = dict(image.terms)
    del terms[image.sorted_terms()[0][0]]
    with pytest.raises(ValueError, match="incomplete orbit"):
        invariant_pattern_vector(image.space, terms)


def test_pattern_reading_rejects_an_inconsistent_orbit():
    # u1^u2 has two leg-free u-only indices: its signed orbit sum is zero.
    s = SpaceDescriptor(2, 2, 0, 0)
    with pytest.raises(ValueError, match="inconsistent orbit"):
        invariant_pattern_vector(s, {parse_monomial("u1^u2"): Fraction(1)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pattern_reading_rejects_a_table_contraction(n):
    # S_n-invariant, so it passes the orbit checks, but not fixed by (n n+1).
    image = compose(build_class("xi", n).value, build_class("theta(v)", n).value, pairing="table")
    with pytest.raises(ValueError, match="outside the invariants"):
        invariant_pattern_vector(image.space, image.terms)


@pytest.mark.parametrize("wrong", ["source", "target"])
def test_map_rank_checks_both_spaces_against_the_oracle(monkeypatch, wrong):
    theta = build_class("theta(v)", 2)
    source = SpaceDescriptor(2, 1, 1, 0)
    bad = source if wrong == "source" else SpaceDescriptor(2, 2, 1, 1)
    # The source basis is checked where it is built, the target dimension in yoneda.
    module = spaces_mod if wrong == "source" else yoneda_mod
    oracle = module.invariant_dim
    clear_caches()
    monkeypatch.setattr(module, "invariant_dim", lambda s: oracle(s) + (s == bad))
    with pytest.raises(RuntimeError, match="has dimension"):
        map_rank(theta, "push", source)


def test_cleared_caches_rerun_the_oracle_check(monkeypatch):
    # A memoised rank or dimension would skip the check; no memo may outlive the helper.
    theta = build_class("theta(v)", 2)
    source = SpaceDescriptor(2, 1, 1, 0)
    map_rank(theta, "push", source)
    clear_caches()
    oracle = yoneda_mod.invariant_dim
    monkeypatch.setattr(yoneda_mod, "invariant_dim", lambda s: oracle(s) + 1)
    with pytest.raises(RuntimeError, match="has dimension"):
        map_rank(theta, "push", source)


def test_map_rank_memo_keys_on_the_value_not_the_name():
    theta = build_class("theta(v)", 3)
    impostor = DistinguishedClass(theta.name, theta_of(3, 0, 0), theta.space)
    source = SpaceDescriptor(3, 0, 0, 0)
    assert map_rank(theta, "push", source) == 1
    assert map_rank(impostor, "push", source) == 0
    assert map_rank(theta, "push", source) == 1
