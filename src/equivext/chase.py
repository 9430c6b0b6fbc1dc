"""Exact-sequence dimension chasing and the end-to-end rank certificate.

A ChaseProblem is a single long exact sequence: an ordered list of nodes
with optionally known dimensions and a rank for each arrow, including the
two boundary arrows (rank 0 for a closed end, None for an open window).
Exactness means dim(node_i) = rank(arrow into i) + rank(arrow out of i)
at every node; ``solve`` propagates this relation to a fixpoint and flags
contradictions instead of raising.

``replay`` re-runs the full argument that pins the dimension of the
degree-1 self-extension space of the distinguished extension to 2, on
numbers certified elsewhere: verify's closed-form tables and the ranks
of its rank battery. It chases the three relevant long exact sequences
and records every step in a log. The two commuting-square transfers are
consumed as documented logical steps with machine-checked numeric
inputs, exactly where the argument needs them. ``verify_theorem``
computes those numbers and calls ``replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    name: str
    dim: int | None


@dataclass
class ChaseProblem:
    """Nodes of one exact sequence plus ranks of all arrows.

    ``ranks`` has length len(nodes) + 1: ranks[i] is the rank of the
    arrow into node i, ranks[-1] the rank of the arrow out of the last
    node. Use 0 at the ends for a closed sequence, None for an open
    window whose boundary rank is unknown.
    """

    nodes: list[Node]
    ranks: list[int | None]

    def __post_init__(self):
        if len(self.ranks) != len(self.nodes) + 1:
            raise ValueError("need exactly len(nodes) + 1 arrow ranks")


@dataclass
class ChaseReport:
    names: list[str]
    dims: list[int | None]
    ranks: list[int | None]
    unknowns: list[str]
    contradiction: str | None

    @property
    def solved(self) -> bool:
        return not self.unknowns and self.contradiction is None

    def dim_of(self, name: str) -> int | None:
        return self.dims[self.names.index(name)]


def solve(p: ChaseProblem) -> ChaseReport:
    """Fixpoint propagation of dim_i = rank_i + rank_{i+1} over the sequence."""
    dims: list[int | None] = [node.dim for node in p.nodes]
    ranks: list[int | None] = list(p.ranks)
    contradiction: str | None = None

    def set_rank(i: int, value: int) -> bool:
        nonlocal contradiction
        if value < 0:
            contradiction = f"arrow {i} would need negative rank {value}"
            return False
        if ranks[i] is None:
            ranks[i] = value
            return True
        if ranks[i] != value:
            contradiction = f"arrow {i} has rank {ranks[i]} but exactness forces {value}"
        return False

    def set_dim(i: int, value: int) -> bool:
        nonlocal contradiction
        if dims[i] is None:
            dims[i] = value
            return True
        if dims[i] != value:
            contradiction = (
                f"node {p.nodes[i].name} has dimension {dims[i]} "
                f"but exactness forces {value}"
            )
        return False

    changed = True
    while changed and contradiction is None:
        changed = False
        for i, dim in enumerate(dims):
            rin, rout = ranks[i], ranks[i + 1]
            if dim == 0:
                if rin not in (0, None) or rout not in (0, None):
                    contradiction = f"node {p.nodes[i].name} is zero but an adjacent rank is not"
                    break
                if rin is None:
                    changed |= set_rank(i, 0)
                if rout is None:
                    changed |= set_rank(i + 1, 0)
                continue
            if dim is not None and rin is not None and rout is None:
                changed |= set_rank(i + 1, dim - rin)
            elif dim is not None and rout is not None and rin is None:
                changed |= set_rank(i, dim - rout)
            elif dim is None and rin is not None and rout is not None:
                changed |= set_dim(i, rin + rout)
            elif dim is not None and rin is not None and rout is not None:
                if rin + rout != dim:
                    contradiction = (
                        f"node {p.nodes[i].name}: dimension {dim}"
                        f" != {rin} + {rout}"
                    )
                    break
    unknowns = [p.nodes[i].name for i, d in enumerate(dims) if d is None]
    unknowns += [f"arrow {i}" for i, r in enumerate(ranks) if r is None]
    return ChaseReport(
        names=[node.name for node in p.nodes],
        dims=dims,
        ranks=ranks,
        unknowns=unknowns,
        contradiction=contradiction,
    )


@dataclass
class TheoremStep:
    step_id: str
    claim: str
    value: object
    passed: bool

    def as_dict(self) -> dict:
        return {
            "id": self.step_id,
            "claim": self.claim,
            "value": self.value,
            "status": "PASS" if self.passed else "FAIL",
        }


class TheoremFailure(Exception):
    """Raised when a replay step fails; carries the failing step id."""

    def __init__(self, step: TheoremStep, steps: list[TheoremStep]):
        super().__init__(f"step {step.step_id} failed: {step.claim}")
        self.step = step
        self.steps = steps


@dataclass
class TheoremReport:
    n: int
    ext1_MM: int
    hom_MM: int
    h_M: tuple[int, ...]
    steps: list[TheoremStep] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def top_row_problem(h_G: list, h_OP: list, push_ranks: dict, degrees: int) -> ChaseProblem:
    """The long exact sequence linking the graded pieces of the extension
    to those of its two ends, whose tables in degrees 0..2n are ``h_G``
    and ``h_OP``, with the connecting ranks supplied."""
    nodes = [
        Node(f"deg{d}:{part}", dim)
        for d in range(degrees)
        for part, dim in (("first", h_G[d]), ("middle", None), ("last", h_OP[d]))
    ]
    # Per degree: first -> middle, middle -> last, then the connecting map of degree d.
    ranks: list[int | None] = [0]
    for d in range(degrees):
        ranks += [None, None, push_ranks.get(d)]
    if degrees == len(h_G):
        ranks[-1] = 0
    return ChaseProblem(nodes, ranks)


def verify_theorem(n: int, check_remark: bool = False, swap_uv: bool = False) -> TheoremReport:
    """:func:`replay` on the closed forms and on the ranks of the rank battery."""
    from .cli import TABLE_ORDER, _rank_checks
    from .dimformulas import formula_table

    dims = {family: list(formula_table(family, n).dims) for family in TABLE_ORDER}
    ranks = {c["id"]: c["got"] for c in _rank_checks(n, swap_uv, check_remark)}
    return replay(n, dims, ranks, check_remark)


def replay(n: int, dims: dict, ranks: dict, check_remark: bool = False) -> TheoremReport:
    """Replay of the rank and dimension bookkeeping certifying ext1 = 2.

    ``dims`` holds each table family in degrees 0..2n, ``ranks`` the rank
    battery's ranks by id. Raises :class:`TheoremFailure` on the first
    failing step; the failing step id and the log so far ride along on
    the exception.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    steps: list[TheoremStep] = []

    def record(step_id: str, claim: str, value, passed: bool):
        step = TheoremStep(step_id, claim, value, passed)
        steps.append(step)
        if not passed:
            raise TheoremFailure(step, steps)

    # Connecting ranks of the first row: even degrees carry the only
    # nonzero sources, and each must inject into the next graded piece.
    even_range = range(n) if check_remark else range(2)
    push_ranks: dict[int, int] = {}
    for i in even_range:
        push_rank = ranks[f"push-H{2 * i}"]
        push_ranks[2 * i] = push_rank
        record(
            f"push-even-{2 * i}",
            f"composition with theta is injective on the degree-{2 * i} line",
            push_rank,
            push_rank == 1,
        )

    degrees = 2 * n + 1 if check_remark else 4
    top = solve(top_row_problem(dims["h_G"], dims["h_OP"], push_ranks, degrees))
    record(
        "top-chase",
        "first-row chase solves the graded dimensions of the extension",
        {"contradiction": top.contradiction, "unknowns": top.unknowns},
        top.solved,
    )
    h_M = tuple(
        top.dims[3 * d + 1] for d in range(degrees)
    )
    expected_prefix = (0, 1, 1, 1)
    record(
        "h-M-prefix",
        "graded dimensions of the extension start (0, 1, 1, 1)",
        list(h_M[:4]),
        h_M[:4] == expected_prefix,
    )
    if check_remark:
        record(
            "h-M-remark",
            "all higher graded dimensions of the extension equal 1",
            list(h_M),
            h_M == (0,) + (1,) * (2 * n),
        )
    # Injectivity of the lower-left connecting map in degree 2, needed by
    # the square transfer below: full rank of first -> middle in degree 2.
    alpha2_rank = top.ranks[3 * 2 + 1]
    record(
        "alpha-H2-inj",
        "degree-2 inclusion map of the first row has full rank",
        alpha2_rank,
        alpha2_rank == dims["h_G"][2],
    )

    ext1_rank = ranks["push-ext1-G-OP"]
    record(
        "push-ext1",
        "composition with theta is injective on the 2-dimensional dual-leg line",
        ext1_rank,
        ext1_rank == 2,
    )

    egg, egop = dims["ext_G_G"], dims["ext_G_OP"]
    bottom = solve(
        ChaseProblem(
            nodes=[
                Node("hom(G,G)", egg[0]),
                Node("hom(G,M)", None),
                Node("hom(G,OP)", egop[0]),
                Node("ext1(G,G)", egg[1]),
                Node("ext1(G,M)", None),
                Node("ext1(G,OP)", egop[1]),
            ],
            ranks=[0, None, None, None, None, None, ext1_rank],
        )
    )
    record(
        "bottom-chase",
        "third-row chase solves hom(G,M) and ext1(G,M); the restriction "
        "map out of ext1(G,M) comes out with rank 0, derived, not assumed",
        {
            "hom(G,M)": bottom.dim_of("hom(G,M)"),
            "ext1(G,M)": bottom.dim_of("ext1(G,M)"),
            "beta_rank": bottom.ranks[5],
        },
        bottom.solved
        and bottom.dim_of("hom(G,M)") == 1
        and bottom.dim_of("ext1(G,M)") == 2,
    )
    alpha1_rank = bottom.ranks[4]
    record(
        "alpha-ext1-iso",
        "ext1(G,G) -> ext1(G,M) has full rank on both sides",
        alpha1_rank,
        alpha1_rank == egg[1] == bottom.dim_of("ext1(G,M)"),
    )

    pull_rank = ranks["pull-ext1-G-G"]
    record(
        "pull-nonzero",
        "precomposition with theta is nonzero on ext1(G,G)",
        pull_rank,
        pull_rank >= 1,
    )

    # Square transfer: precomposition with theta commutes with the
    # inclusion-induced maps. The inclusion is an isomorphism on
    # ext1(G,-) and injective on the degree-2 graded piece, so the rank
    # of precomposition on ext1(G,M) equals the rank computed above.
    h2_M = h_M[2]
    pull_rank_on_GM = pull_rank
    record(
        "square-transfer",
        "precomposition with theta on ext1(G,M) is surjective with 1-dim kernel",
        {"rank": pull_rank_on_GM, "target_dim": h2_M},
        pull_rank_on_GM == h2_M == 1,
    )

    # The identity endomorphism spans hom(M,M) at least 1-dimensionally,
    # and hom(G,M) is 1-dimensional, so the restriction map in degree 0
    # has rank exactly 1.
    record(
        "identity-endo",
        "restriction hom(M,M) -> hom(G,M) has rank 1",
        1,
        bottom.dim_of("hom(G,M)") == 1,
    )
    middle = solve(
        ChaseProblem(
            nodes=[
                Node("h0(M)", h_M[0]),
                Node("hom(M,M)", None),
                Node("hom(G,M)", bottom.dim_of("hom(G,M)")),
                Node("h1(M)", h_M[1]),
                Node("ext1(M,M)", None),
                Node("ext1(G,M)", bottom.dim_of("ext1(G,M)")),
            ],
            ranks=[0, None, 1, None, None, None, pull_rank_on_GM],
        )
    )
    ext1_MM = middle.dim_of("ext1(M,M)")
    hom_MM = middle.dim_of("hom(M,M)")
    record(
        "middle-chase",
        "middle-column chase solves the self-extension dimensions",
        {"hom(M,M)": hom_MM, "ext1(M,M)": ext1_MM},
        middle.solved and hom_MM == 1,
    )
    record(
        "conclusion",
        "the space of degree-1 self-extensions is 2-dimensional",
        ext1_MM,
        ext1_MM == 2,
    )
    return TheoremReport(n=n, ext1_MM=ext1_MM, hom_MM=hom_MM, h_M=h_M, steps=steps)
