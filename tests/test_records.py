"""The engine's record classes: repr text, validation, immutability and hashing.

Error messages show these reprs (``SpaceDescriptor(n=3, k=1, a=0, b=1)``),
so each is pinned as written out field by field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from equivext.chase import ChaseProblem, ChaseReport, Node, TheoremReport, TheoremStep
from equivext.dimformulas import GradedDimVector
from equivext.linalg import SparseMatrix
from equivext.spaces import InvariantBasis, Monomial, SpaceDescriptor, SparseVector
from equivext.symgroup import Permutation
from equivext.yoneda import DistinguishedClass, MapOnInvariants, PairingTable

S = SpaceDescriptor(3, 1, 0, 1)
S_TEXT = "SpaceDescriptor(n=3, k=1, a=0, b=1)"
M = Monomial((("u", 1),), (), (2,))
M_TEXT = "Monomial(wedge=(('u', 1),), duals=(), legs=(2,))"
V = SparseVector(S, {M: Fraction(2)})
V_TEXT = f"SparseVector(space={S_TEXT}, terms={{{M_TEXT}: Fraction(2, 1)}})"
B = InvariantBasis(S, (V,), (M,))
B_TEXT = f"InvariantBasis(space={S_TEXT}, vectors=({V_TEXT},), pivots=({M_TEXT},))"
A = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
A_TEXT = "SparseMatrix(rows=1, cols=1, entries={(0, 0): Fraction(1, 1)})"

RECORDS = [
    (S, S_TEXT),
    (M, M_TEXT),
    (V, V_TEXT),
    (B, B_TEXT),
    (A, A_TEXT),
    (Permutation((2, 1, 3)), "Permutation(images=(2, 1, 3))"),
    (GradedDimVector((1, 2, 1)), "GradedDimVector(dims=(1, 2, 1))"),
    (PairingTable(3), "PairingTable(n=3)"),
    (DistinguishedClass("c", V, S), f"DistinguishedClass(name='c', value={V_TEXT}, space={S_TEXT})"),
    (MapOnInvariants(B, B, A, 1), f"MapOnInvariants(source={B_TEXT}, target={B_TEXT}, "
                                  f"matrix={A_TEXT}, rank=1)"),
    (Node("a", None), "Node(name='a', dim=None)"),
    (ChaseProblem([Node("a", 1)], [0, 1]), "ChaseProblem(nodes=[Node(name='a', dim=1)], ranks=[0, 1])"),
    (ChaseReport(["a"], [1], [0, 1], [], None),
     "ChaseReport(names=['a'], dims=[1], ranks=[0, 1], unknowns=[], contradiction=None)"),
    (TheoremStep("s", "claim", {"x": 1}, True),
     "TheoremStep(step_id='s', claim='claim', value={'x': 1}, passed=True)"),
    (TheoremReport(2, 2, 1, (0, 1)), "TheoremReport(n=2, ext1_MM=2, hom_MM=1, h_M=(0, 1), steps=[])"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]
FROZEN = RECORDS[:10]
HASHABLE = {"SpaceDescriptor", "Monomial", "Permutation", "GradedDimVector", "PairingTable"}


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_writes_out_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_compare_by_value_and_hash_only_without_mutable_fields(record, text):
    name = type(record).__name__
    assert record == eval(text) and not record != eval(text)
    if name in HASHABLE:
        assert hash(record) == hash(eval(text))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("record, text", FROZEN, ids=IDS[:10])
def test_frozen_records_reject_assignment(record, text):
    field = text[len(type(record).__name__) + 1 :].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_copy_and_pickle(record, text):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


def test_chase_records_stay_mutable():
    node = Node("a", None)
    node.dim = 3
    assert node == Node("a", 3) and node != Node("b", 3)
    report = TheoremReport(2, 2, 1, (0, 1))
    assert report.steps == [] and report.steps is not TheoremReport(2, 2, 1, (0, 1)).steps


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SpaceDescriptor(0, 1, 0, 0), ValueError,
         "invalid descriptor SpaceDescriptor(n=0, k=1, a=0, b=0)"),
        (lambda: SpaceDescriptor(n=2, k=-1, a=0, b=0), ValueError, "invalid descriptor"),
        (lambda: SparseVector(S, {M: Fraction(0)}), ValueError, "stored zero coefficient at u1|e2"),
        (lambda: SparseMatrix(2, 2, {(2, 0): Fraction(1)}), ValueError, "entry (2,0) outside 2x2"),
        (lambda: SparseMatrix(2, 2, {(0, 1): Fraction(0)}), ValueError, "stored zero entry at (0,1)"),
        (lambda: SparseMatrix(2, 2, {(0, 1): 0.5}), TypeError, "float entry 0.5 at (0,1)"),
        (lambda: Permutation((1, 1, 3)), ValueError, "not a bijection of 1..3: (1, 1, 3)"),
        (lambda: GradedDimVector((1, -1)), ValueError, "negative entry in (1, -1)"),
        (lambda: ChaseProblem([Node("a", 1)], [0]), ValueError, "need exactly len(nodes) + 1"),
    ],
)
def test_records_keep_their_validation_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value).startswith(message)


def test_graded_dim_vector_indexes_measures_and_iterates_over_its_dims():
    vec = GradedDimVector((0, 2, 1, 2, 0))
    assert vec[1] == 2 and vec[-1] == 0 and vec[1:3] == (2, 1)
    assert len(vec) == 5
    assert list(vec) == [0, 2, 1, 2, 0] and tuple(reversed(vec)) == vec.dims
    assert vec != (0, 2, 1, 2, 0) and vec == GradedDimVector((0, 2, 1, 2, 0))


def test_keyword_construction_and_field_access():
    assert SpaceDescriptor(n=3, k=1, a=0, b=1) is not S and SpaceDescriptor(n=3, k=1, a=0, b=1) == S
    assert (S.n, S.k, S.a, S.b) == (3, 1, 0, 1) and S.validated_legs
    assert Permutation(images=(2, 1, 3)).degree == 3
    assert SparseMatrix(rows=1, cols=1, entries={}).row_dicts() == [{}]
