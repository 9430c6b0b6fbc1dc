"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

from equivext.chase import verify_theorem
from equivext.characters import invariant_dim
from equivext.cli import main
from equivext.dimformulas import TABLE_FAMILIES, d_vector, ext_G_G, formula_table, h_G
from equivext.spaces import SpaceDescriptor, invariant_basis
from equivext.yoneda import build_class, compose, map_on_invariants


def _verdict(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _raw(n, k, a, b):
    return invariant_basis(SpaceDescriptor(n, k, a, b)).dim


def test_criterion_1_dimension_tables():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        raw = {
            fam: [_raw(n, k, a, b) for k in range(2 * n + 1)]
            for fam, (a, b) in TABLE_FAMILIES.items()
        }
        ok &= raw["h_OP"] == [1 if k % 2 == 0 else 0 for k in range(2 * n + 1)]
        ok &= raw["h_G"][1] == 2
        ok &= raw["h_G"] == list(h_G(n).dims)
        cancellation = [
            x + y for x, y in zip(raw["ext_G_OP"], raw["ext_G_G"])
        ]
        ok &= cancellation == list(d_vector(n).dims)
    ok &= [_raw(3, k, 0, 1) for k in range(7)] == [0, 2, 1, 2, 1, 2, 0]
    ok &= [_raw(2, k, 1, 1) for k in range(5)] == [1, 2, 5, 2, 1]
    ok &= [_raw(3, k, 1, 1) for k in range(7)] == [1, 2, 6, 6, 6, 2, 1]
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _verdict(f"1 (tables n=2..4, {elapsed:.1f}s)", ok)


def test_criterion_2_coefficient_checks():
    ok = True
    for n in (2, 3, 4, 5):
        theta = build_class("theta(v)", n)
        ok &= compose(theta.value, build_class("omega", n).value).coeff_of(
            "u1^v1^v2|e2"
        ) == 3
        ok &= compose(theta.value, build_class("phi(v)", n).value).coeff_of(
            "v1^v2|d1|e2"
        ) == 3
        ok &= compose(theta.value, build_class("phi(u)", n).value).coeff_of(
            "u1^v1|d1|e1"
        ) == 4
        table_pull = compose(
            build_class("xi", n).value, theta.value, pairing="table"
        )
        ok &= table_pull.coeff_of("u1^v1|e1") == 1 - n
    _verdict("2 (coefficients 3/3/4/1-n, n=2..5)", ok)


def test_criterion_3_rank_battery():
    ok = True
    for n in (2, 3, 4, 5):
        theta = build_class("theta(v)", n)
        ok &= map_on_invariants(theta, "push", SpaceDescriptor(n, 0, 0, 0)).rank == 1
        ok &= map_on_invariants(theta, "push", SpaceDescriptor(n, 2, 0, 0)).rank == 1
        ok &= map_on_invariants(theta, "push", SpaceDescriptor(n, 1, 1, 0)).rank == 2
        ok &= map_on_invariants(theta, "pull", SpaceDescriptor(n, 1, 1, 1)).rank >= 1
    _verdict("3 (rank battery n=2..5)", ok)


def test_criterion_4_theorem_replay():
    ok = True
    for n in (2, 3, 4, 5):
        report = verify_theorem(n)
        ok &= report.ext1_MM == 2
        ok &= report.passed
        ok &= all(step.passed for step in report.steps)
    _verdict("4 (self-extension dimension = 2, n=2..5)", ok)


def test_criterion_5_remark_property():
    ok = True
    for n in (2, 3, 4):
        report = verify_theorem(n, check_remark=True)
        ok &= report.h_M == (0,) + (1,) * (2 * n)
        ok &= len(report.h_M) == 2 * n + 1
    _verdict("5 (graded extension dims all ones, n=2..4)", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    for n in (2, 3, 4, 5):
        descriptors = {
            SpaceDescriptor(n, k, a, b)
            for (a, b) in TABLE_FAMILIES.values()
            for k in range(2 * n + 1)
        }
        for s in sorted(descriptors, key=lambda s: (s.k, s.a, s.b)):
            ok &= invariant_dim(s) == invariant_basis(s).dim
    start = time.monotonic()
    for n in range(2, 9):
        for fam, (a, b) in TABLE_FAMILIES.items():
            dims = [invariant_dim(SpaceDescriptor(n, k, a, b)) for k in range(2 * n + 1)]
            ok &= dims == list(formula_table(fam, n).dims)
    oracle_elapsed = time.monotonic() - start
    ok &= oracle_elapsed < 60.0
    _verdict(f"6 (oracle equivalence; oracle tables to n=8 in {oracle_elapsed:.1f}s)", ok)


def test_criterion_7_discrepancy_surfacing(capsys):
    code = main(["verify", "--n-min", "3", "--n-max", "3", "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    tails = [w for w in report["warnings"] if w["code"] == "published-d-tail"]
    compact = tails[0]["message"].replace(" ", "") if tails else ""
    ok = (
        code == 0
        and report["verdict"] == "PASS"
        and len(tails) == 1
        and "8,7,2,1" in compact
        and "8,7,4,1" in compact
    )
    with capsys.disabled():
        _verdict("7 (published-tail warning at n=3, verdict PASS)", ok)


def test_criterion_8_determinism(capsys):
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--format", "json"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    ok = code1 == code2 == 0 and first == second and len(first) > 100
    with capsys.disabled():
        _verdict("8 (byte-identical reports)", ok)


def test_ext_g_g_published_vectors_recorded():
    # the three published branches next to the derived n=5 case
    assert ext_G_G(2).dims == (1, 2, 5, 2, 1)
    assert ext_G_G(3).dims == (1, 2, 6, 6, 6, 2, 1)
    assert ext_G_G(4).dims == (1, 2, 6, 6, 7, 6, 6, 2, 1)
    assert ext_G_G(5).dims == (1, 2, 6, 6, 7, 6, 7, 6, 6, 2, 1)
