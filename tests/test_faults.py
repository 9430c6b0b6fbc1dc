"""Fault injection: each certifying check is shown to fire.

Each fault below is a named, deliberately wrong piece of the engine,
injected with ``monkeypatch`` (cf. mutation analysis: DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 1978); a
fault inside a function body replaces the function with a copy whose
source has one substring changed (:func:`patch_source`). With
any of them, ``verify --n-min 3 --n-max 3 --check-remark`` must exit 1
with a FAIL verdict, or exit 2 with an internal error that names the
stage. The re-sort and oracle faults must also make a dimension-only
``invariants`` call exit 2. The pattern kernels and the oracle are
memoised, so every engine memo is cleared before and after each fault:
no number computed without the fault hides it, and none computed with
it outlives it.
"""

import __future__
import inspect
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


def patch_source(monkeypatch, module, name, old, new):
    """Patch in ``module.name`` with the one occurrence of ``old`` in its source made ``new``.

    The changed source is compiled in the module's namespace, with the
    postponed annotations every engine module declares, so it reads the
    module's names as the original does.
    """
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    defined: dict = {}
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags), vars(module), defined)
    monkeypatch.setattr(module, name, defined[name])


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
        (cycle_type, size), *rest = classes(n)
        return ((cycle_type, size + 1), *rest)

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


def row_forced_slot_plus_one(monkeypatch):
    patch_source(
        monkeypatch, patterns_mod, "_row",
        "partial = [(-1 if ft.bit_count() & 1 else 1, 0, 0)]", "partial = [(1, 0, 0)]",
    )


def row_without_the_identity_term(monkeypatch):
    patch_source(monkeypatch, patterns_mod, "_row", "partial.append((-1, 0, 0))", "None")


def row_resort_sign_flipped(monkeypatch):
    patch_source(
        monkeypatch, patterns_mod, "_row",
        "move = (1 if between & 1 else -1,", "move = (-1 if between & 1 else 1,",
    )


def row_group_weight_one(monkeypatch):
    patch_source(
        monkeypatch, patterns_mod, "_row",
        "c * s * (len(grouped) - used)", "c * s",
    )


def tau_rows_parity_swapped(monkeypatch):
    # The kernel is solved on the even tau rows and checked on the odd ones.
    patch_source(monkeypatch, patterns_mod, "_rows", "return odd, even", "return even, odd")


def compose_pairing_scale_n(monkeypatch):
    patch_source(monkeypatch, yoneda_mod, "compose", "scale = n + 1", "scale = n")


def omega_power_coefficient_changed(monkeypatch):
    patch_source(
        monkeypatch, yoneda_mod, "_omega_power",
        "math.factorial(i + 1)", "math.factorial(i + 2)",
    )


def reverse_reading_sign_flipped(monkeypatch):
    patch_source(
        monkeypatch, patterns_mod, "orbit_readings",
        "sign = _canonical(reverse)[1]", "sign = -_canonical(reverse)[1]",
    )
    # yoneda binds the name at import, so it gets the faulty copy too.
    monkeypatch.setattr(yoneda_mod, "orbit_readings", patterns_mod.orbit_readings)


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
        row_forced_slot_plus_one,
        row_without_the_identity_term,
        row_resort_sign_flipped,
        row_group_weight_one,
        tau_rows_parity_swapped,
        compose_pairing_scale_n,
        omega_power_coefficient_changed,
        reverse_reading_sign_flipped,
    )
}

# The stage that raises, for the faults inside a function body. The
# tau check reads its rows from the same `_row`, so a flipped
# re-sort sign passes it and is caught only in the ranks stage, where
# `map_rank` checks the pattern dimensions of its spaces against the
# oracle. A group weighted 1 changes the kernels, whose sizes the tables
# and oracle stages then report as MISMATCH: exit 1, no stage.
STAGES = {
    "row_forced_slot_plus_one": "tables",
    "row_without_the_identity_term": "tables",
    "row_resort_sign_flipped": "ranks",
    "tau_rows_parity_swapped": "tables",
    "compose_pairing_scale_n": "ranks",
    "omega_power_coefficient_changed": "ranks",
    "reverse_reading_sign_flipped": "ranks",
}


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_catches_the_fault(monkeypatch, capsys, fault):
    FAULTS[fault](monkeypatch)
    code = main(VERIFY)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err.startswith(f"internal error: n=3, stage {STAGES.get(fault, '')}")
    else:
        assert fault not in STAGES
        assert code == 1
        assert out.splitlines()[-1] == "verdict: FAIL"


# W(3; 2, 1, 1): the flipped re-sort sign passes the tau check but leaves a
# kernel of size 2, where the oracle counts 6; the wrong class size makes
# the oracle's character average non-integral.
DIMENSION_ONLY_FAULTS = {
    "row_resort_sign_flipped": "invariant subspace of SpaceDescriptor(n=3, k=2, a=1, b=1) "
    "has dimension 2, oracle 6",
    "class_size_off_by_one": "non-integral invariant average",
}


@pytest.mark.parametrize("fault", DIMENSION_ONLY_FAULTS)
def test_dimension_only_invariants_catches_the_fault(monkeypatch, capsys, fault):
    FAULTS[fault](monkeypatch)
    code = main(["invariants", "--n", "3", "--k", "2", "--dual", "1", "--rho", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: ") and DIMENSION_ONLY_FAULTS[fault] in err


def test_an_unchanged_source_copy_passes(monkeypatch, capsys):
    # The copies patch_source compiles behave as the originals, so each
    # fault above is caught for its one changed substring.
    originals = patterns_mod._row, patterns_mod._rows, yoneda_mod.compose, yoneda_mod._omega_power
    patch_source(monkeypatch, patterns_mod, "_row", "partial = [", "partial = [")
    patch_source(monkeypatch, patterns_mod, "_rows", "return odd, even", "return odd, even")
    patch_source(monkeypatch, yoneda_mod, "compose", "scale = n + 1", "scale = n + 1")
    patch_source(monkeypatch, yoneda_mod, "_omega_power", "(i + 1)", "(i + 1)")
    patch_source(monkeypatch, patterns_mod, "orbit_readings", "sign = ", "sign = ")
    monkeypatch.setattr(yoneda_mod, "orbit_readings", patterns_mod.orbit_readings)
    copies = patterns_mod._row, patterns_mod._rows, yoneda_mod.compose, yoneda_mod._omega_power
    assert all(copy is not original for copy, original in zip(copies, originals))
    assert main(VERIFY) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: PASS"


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
