import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from equivext.chase import (
    ChaseProblem,
    Node,
    TheoremFailure,
    replay,
    solve,
    top_row_problem,
    verify_theorem,
)

# The closed-form tables at n=2, in degrees 0..4.
N2_DIMS = {
    "h_OP": [1, 0, 1, 0, 1],
    "h_G": [0, 2, 1, 2, 0],
    "ext_G_OP": [0, 2, 1, 2, 0],
    "ext_G_G": [1, 2, 5, 2, 1],
}
N2_RANKS = {"push-H0": 1, "push-H2": 1, "push-ext1-G-OP": 2, "pull-ext1-G-G": 1}


def closed_problem(dims, known_ranks=None):
    nodes = [Node(f"node{i}", d) for i, d in enumerate(dims)]
    ranks = [0] + [None] * (len(dims) - 1) + [0]
    for i, r in (known_ranks or {}).items():
        ranks[i] = r
    return ChaseProblem(nodes, ranks)


def test_isomorphism_window():
    report = solve(closed_problem([5, None]))
    assert report.dims == [5, 5]
    assert report.solved


def test_contradiction_is_flagged_not_raised():
    report = solve(closed_problem([1, 3]))
    assert report.contradiction is not None
    assert not report.solved


def test_unknowns_are_listed():
    problem = ChaseProblem([Node("a", None), Node("b", None)], [0, None, 0])
    report = solve(problem)
    assert "a" in report.unknowns and "b" in report.unknowns


def test_arrow_count_validated():
    with pytest.raises(ValueError):
        ChaseProblem([Node("a", 1)], [0])


def test_top_row_window_n2():
    # connecting ranks 1 in degrees 0 and 2 pin the first four dimensions
    report = solve(top_row_problem(N2_DIMS["h_G"], N2_DIMS["h_OP"], {0: 1, 2: 1}, degrees=4))
    middles = [report.dims[3 * d + 1] for d in range(4)]
    assert middles == [0, 1, 1, 1]


def test_bottom_row_window_n2():
    problem = ChaseProblem(
        nodes=[
            Node("hom(G,G)", 1),
            Node("hom(G,M)", None),
            Node("hom(G,OP)", 0),
            Node("ext1(G,G)", 2),
            Node("ext1(G,M)", None),
            Node("ext1(G,OP)", 2),
        ],
        ranks=[0, None, None, None, None, None, 2],
    )
    report = solve(problem)
    assert report.dim_of("hom(G,M)") == 1
    assert report.dim_of("ext1(G,M)") == 2


@st.composite
def solved_closed_sequences(draw):
    length = draw(st.integers(1, 7))
    inner = draw(st.lists(st.integers(0, 5), min_size=length - 1, max_size=length - 1))
    ranks = [0] + inner + [0]
    dims = [ranks[i] + ranks[i + 1] for i in range(length)]
    return dims, ranks


@given(solved_closed_sequences(), st.data())
def test_solve_recovers_blanked_entries_and_is_idempotent(seq, data):
    dims, ranks = seq
    blank_dim = data.draw(st.sets(st.integers(0, len(dims) - 1)))
    if len(dims) > 1:
        blank_rank = data.draw(st.sets(st.integers(1, len(dims) - 1)))
    else:
        blank_rank = set()
    nodes = [
        Node(f"n{i}", None if i in blank_dim else d) for i, d in enumerate(dims)
    ]
    given_ranks: list[int | None] = list(ranks)
    for i in blank_rank:
        given_ranks[i] = None
    report = solve(ChaseProblem(nodes, given_ranks))
    assert report.contradiction is None
    if report.solved:
        assert report.dims == dims
        assert report.ranks == ranks
        assert sum(d if i % 2 == 0 else -d for i, d in enumerate(report.dims)) == 0
        again = solve(
            ChaseProblem(
                [Node(name, d) for name, d in zip(report.names, report.dims)],
                list(report.ranks),
            )
        )
        assert again.dims == report.dims
        assert again.ranks == report.ranks


@given(solved_closed_sequences())
def test_alternating_sum_of_solved_sequence_vanishes(seq):
    dims, _ = seq
    assert sum(d if i % 2 == 0 else -d for i, d in enumerate(dims)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_theorem_replay_certifies_two(n):
    report = verify_theorem(n)
    assert report.ext1_MM == 2
    assert report.hom_MM == 1
    assert report.passed
    assert report.h_M[:4] == (0, 1, 1, 1)
    assert all(step.passed for step in report.steps)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_remark_extension_all_ones(n):
    report = verify_theorem(n, check_remark=True)
    assert report.h_M == (0,) + (1,) * (2 * n)
    assert len(report.h_M) == 2 * n + 1


def test_theorem_replay_with_swapped_directions():
    report = verify_theorem(2, swap_uv=True)
    assert report.ext1_MM == 2


def test_failing_step_aborts_with_its_id():
    with pytest.raises(TheoremFailure) as err:
        replay(2, N2_DIMS, dict.fromkeys(N2_RANKS, 0))
    assert err.value.step.step_id == "push-even-0"
    assert err.value.steps[-1] is err.value.step


def test_rejects_small_n():
    with pytest.raises(ValueError):
        verify_theorem(1)


def test_replay_reads_only_the_numbers_it_is_given():
    report = replay(2, N2_DIMS, N2_RANKS)
    assert report.steps == verify_theorem(2).steps
    assert (report.ext1_MM, report.hom_MM, report.h_M) == (2, 1, (0, 1, 1, 1))
    # A wrong table entry is read, not recomputed: it moves the solved h_M.
    with pytest.raises(TheoremFailure) as err:
        replay(2, {**N2_DIMS, "h_G": [0, 2, 2, 2, 0]}, N2_RANKS)
    assert err.value.step.step_id == "h-M-prefix"


def test_the_chase_loads_no_engine_module():
    code = "import sys, equivext.chase; print(*sorted(m for m in sys.modules if 'equivext' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["equivext", "equivext.chase"]
