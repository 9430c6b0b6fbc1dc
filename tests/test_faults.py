"""Fault injection: each certifying check is shown to fire.

Each fault below is a named, deliberately wrong piece of the engine,
injected with ``monkeypatch`` (cf. mutation analysis: DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 1978). With
any of them, ``verify --n-min 3 --n-max 3 --check-remark`` must exit 1
with a FAIL verdict, or exit 2 with an internal error that names the
stage. The pattern kernels and the oracle are memoised, so every engine
memo is cleared before and after each fault: no number computed without
the fault hides it, and none computed with it outlives it.
"""

import dataclasses
import json
import re

import pytest

import equivext.characters as characters_mod
import equivext.cli as cli_mod
import equivext.dimformulas as dimformulas_mod
import equivext.patterns as patterns_mod
import equivext.yoneda as yoneda_mod
from equivext.cli import main
from equivext.spaces import SpaceDescriptor

from support import clear_caches

VERIFY = ["verify", "--n-min", "3", "--n-max", "3", "--check-remark"]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def orbit_sum_missing_a_term(monkeypatch):
    orbit_sum = yoneda_mod._orbit_sum

    def faulty(*args):
        terms = orbit_sum(*args)
        del terms[next(iter(terms))]
        return terms

    monkeypatch.setattr(yoneda_mod, "_orbit_sum", faulty)


def class_size_off_by_one(monkeypatch):
    classes = characters_mod.conjugacy_classes

    def faulty(n):
        first, *rest = classes(n)
        return (dataclasses.replace(first, class_size=first.class_size + 1), *rest)

    monkeypatch.setattr(characters_mod, "conjugacy_classes", faulty)


def push_on_h2_rank_zero(monkeypatch):
    map_rank = yoneda_mod.map_rank

    def faulty(c, side, source):
        if (side, source) == ("push", SpaceDescriptor(3, 2, 0, 0)):
            return 0
        return map_rank(c, side, source)

    monkeypatch.setattr(yoneda_mod, "map_rank", faulty)


def h_G_degree_2_changed(monkeypatch):
    h_G = dimformulas_mod.FORMULAS["h_G"]

    def faulty(n):
        dims = list(h_G(n).dims)
        dims[2] += n == 3
        return dimformulas_mod.GradedDimVector(tuple(dims))

    monkeypatch.setitem(dimformulas_mod.FORMULAS, "h_G", faulty)


def rank_case_value_changed(monkeypatch):
    cases = tuple(c[:5] + (1,) if c[0] == "push-ext1-G-OP" else c for c in cli_mod.RANK_CASES)
    monkeypatch.setattr(cli_mod, "RANK_CASES", cases)


def compose_wedge_sign_flipped(monkeypatch):
    sort_wedge = yoneda_mod._sort_wedge

    def faulty(wedge):
        result = sort_wedge(wedge)
        return None if result is None else (-result[0], result[1])

    monkeypatch.setattr(yoneda_mod, "_sort_wedge", faulty)


def patterns_most_off_by_one(monkeypatch):
    patterns = patterns_mod._patterns

    def faulty(p, q, legs, most):
        return patterns(p, q, legs, most - 1)

    monkeypatch.setattr(patterns_mod, "_patterns", faulty)


FAULTS = {
    fault.__name__: fault
    for fault in (
        orbit_sum_missing_a_term,
        class_size_off_by_one,
        push_on_h2_rank_zero,
        h_G_degree_2_changed,
        rank_case_value_changed,
        compose_wedge_sign_flipped,
        patterns_most_off_by_one,
    )
}


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_catches_the_fault(monkeypatch, capsys, fault):
    FAULTS[fault](monkeypatch)
    code = main(VERIFY)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err.startswith("internal error: n=3, stage ")
    else:
        assert code == 1
        assert out.splitlines()[-1] == "verdict: FAIL"


def test_a_class_missing_an_orbit_term_fails_the_invariance_check(monkeypatch):
    orbit_sum_missing_a_term(monkeypatch)
    for name in yoneda_mod.CLASS_NAMES:
        with pytest.raises(RuntimeError, match=re.escape(f"class {name} failed the invariance")):
            yoneda_mod.build_class(name, 3)


def test_a_wrong_class_size_fails_the_integrality_check(monkeypatch):
    class_size_off_by_one(monkeypatch)
    with pytest.raises(RuntimeError, match="non-integral invariant average 7/6"):
        characters_mod.invariant_dim(SpaceDescriptor(2, 0, 0, 0))


def test_a_zero_push_rank_fails_the_battery_and_the_chase(monkeypatch, capsys):
    push_on_h2_rank_zero(monkeypatch)
    code = main([*VERIFY, "--format", "json"])
    result = json.loads(capsys.readouterr().out)["per_n"][0]
    assert code == 1
    assert [c["id"] for c in result["ranks"] if c["status"] == "FAIL"] == ["push-H2"]
    theorem = result["theorem"]
    assert (theorem["status"], theorem["steps"][-1]["id"]) == ("FAIL", "push-even-2")
    assert theorem["steps"][-1]["status"] == "FAIL"


def test_a_wrong_closed_form_entry_prints_no_pass(monkeypatch, capsys):
    h_G_degree_2_changed(monkeypatch)
    code = main(VERIFY)
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS" not in out
