import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equivext.characters import conjugacy_classes, invariant_dim, wedge_character
from equivext.cli import RANK_CASES, TABLE_ORDER, _family_spaces
from equivext.dimformulas import TABLE_FAMILIES, formula_table
from equivext.spaces import SpaceDescriptor, invariant_basis
from equivext.yoneda import _map_target

ROOT = Path(__file__).resolve().parents[1]


def test_standard_character_values_n2():
    # class order: (3), (2,1), (1,1,1); rho takes the values (-1, 0, 2)
    degree_one = [wedge_character(lam)[1] for lam, _ in conjugacy_classes(2)]
    assert degree_one == [2 * -1, 2 * 0, 2 * 2]


def test_wedge_character_trivial_degrees():
    for n in range(1, 7):
        for lam, _ in conjugacy_classes(n):
            chi = wedge_character(lam)
            assert len(chi) == 2 * n + 1
            assert chi[0] == 1
            assert chi[1] == 2 * (lam.count(1) - 1)


def test_wedge_square_average_is_one_n2():
    # degree-2 invariants of the doubled standard character
    total = sum(size * wedge_character(lam)[2] for lam, size in conjugacy_classes(2))
    assert total == math.factorial(3)
    assert invariant_dim(SpaceDescriptor(2, 2, 0, 0)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_character_dimension_at_identity(n):
    identity = (1,) * (n + 1)
    assert wedge_character(identity) == tuple(math.comb(2 * n, k) for k in range(2 * n + 1))


def test_invariant_dims_match_published_entries():
    assert invariant_dim(SpaceDescriptor(3, 1, 0, 1)) == 2
    assert invariant_dim(SpaceDescriptor(3, 2, 1, 1)) == 6


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        invariant_dim(SpaceDescriptor(2, -1, 0, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_matches_explicit_kernel_on_battery_spaces(n):
    # The battery's sources and their targets under theta, all of them table-family spaces.
    theta = SpaceDescriptor(n, 1, 0, 1)
    sources = [(side, SpaceDescriptor(n, *source)) for _, _, side, source, _, _ in RANK_CASES]
    battery = {s for side, source in sources for s in (source, _map_target(theta, side, source))}
    assert battery <= {s for family in TABLE_ORDER for s in _family_spaces(family, n)}
    for s in battery:
        assert invariant_dim(s) == invariant_basis(s).dim


def test_the_oracle_loads_no_engine_module():
    # The oracle shares no code with the engine it checks.
    script = "import json, sys, equivext.characters; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in json.loads(proc.stdout) if m.split(".")[0] == "equivext"}
    assert loaded == {"equivext", "equivext.characters"}


# Leg counts above 1: the character of each leg enters with exponent a + b.
MULTILEG_SPACES = [
    SpaceDescriptor(2, k, a, b)
    for a in range(3)
    for b in range(3)
    if 2 in (a, b)
    for k in range(5)
] + [SpaceDescriptor(3, k, a, 3 - a) for a in range(4) for k in range(7)]


@pytest.mark.parametrize(
    "s", MULTILEG_SPACES, ids=lambda s: f"n{s.n}-k{s.k}-a{s.a}-b{s.b}"
)
def test_oracle_matches_explicit_kernel_on_multileg_spaces(s):
    assert invariant_dim(s) == invariant_basis(s).dim


def test_oracle_scales_to_large_groups():
    # class averaging stays exact and integral far past the kernel engine
    for n in range(2, 13):
        for family, (a, b) in TABLE_FAMILIES.items():
            dims = [invariant_dim(SpaceDescriptor(n, k, a, b)) for k in range(2 * n + 1)]
            assert dims == list(formula_table(family, n).dims), (family, n)
