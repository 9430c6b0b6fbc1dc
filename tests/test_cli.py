import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import equivext.spaces as spaces_mod
from equivext.cli import TABLE_ORDER, RunConfig, cmd_invariants, cmd_table, main, run_verify
from equivext.dimformulas import formula_table

from support import clear_caches


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_json_pass_and_exit_zero(capsys):
    code, out = run_cli(
        capsys, ["verify", "--n-min", "2", "--n-max", "2", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["per_n"][0]["theorem"]["ext1_MM"] == 2
    assert report["version"] == "1.0"
    assert set(report) == {
        "version",
        "config",
        "per_n",
        "oracle_tables",
        "warnings",
        "verdict",
    }


ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "perfbench" / "references.json"


@pytest.mark.parametrize(
    "command",
    [
        "verify --check-remark --format json",
        "verify --n-min 5 --n-max 5 --oracle-n-max 5 --check-remark --format json",
    ],
)
def test_verify_report_bytes_match_the_benchmark_references(capsys, command):
    expected = json.loads(REFERENCES.read_text())[command]
    code, out = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


# Full SHA-256 of outputs that perfbench/references.json does not pin.
@pytest.mark.parametrize(
    "command, expected",
    [
        (
            "table d --n 4",
            "0d4c25017490a19c3e4b52c673146474acf3d4dd19433f3b564aa1d1b377c072",
        ),
        (
            "table d --n 4 --format csv",
            "3da6b90e3875154bb10cae3708f89149a90179db2cf8738c8ba2b0ea95ba2c6f",
        ),
        (
            "table d --n 4 --format json",
            "5d04a266ca9ef98f0b1dce435d0c3e2ad02880a71a0a6150afcd76037a1148ce",
        ),
        (
            "verify --n-min 3 --n-max 4 --swap-uv --format csv",
            "6e56ff2178a20fbb634ceda9cb701cd6f630544889934340b453f81e282f053f",
        ),
        (
            "verify --n-min 2 --n-max 3 --print-bases",
            "3231d6806efaa056803ba6d5742eed2a1d4dca0234af477819a5625946ec81f0",
        ),
        (
            "verify --n-min 2 --n-max 3 --check-remark",
            "4f5080bd516d3ca6aab53906142800923d86984a6291c2c981980a1e77f465d6",
        ),
    ],
)
def test_output_bytes_are_pinned(capsys, command, expected):
    code, out = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_verify_reports_are_byte_identical(capsys):
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_verify_n3_carries_the_published_tail_warning(capsys):
    code, out = run_cli(
        capsys, ["verify", "--n-min", "3", "--n-max", "3", "--format", "json"]
    )
    report = json.loads(out)
    tails = [w for w in report["warnings"] if w["code"] == "published-d-tail"]
    assert len(tails) == 1 and tails[0]["n"] == 3
    assert "8,7,2,1" in tails[0]["message"].replace(" ", "")
    assert "8,7,4,1" in tails[0]["message"].replace(" ", "")
    assert report["verdict"] == "PASS"
    assert code == 0


def test_verify_with_remark_and_swap(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--n-min", "2", "--n-max", "2", "--check-remark", "--swap-uv"],
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_csv_shape(capsys):
    code, out = run_cli(
        capsys, ["verify", "--n-min", "2", "--n-max", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,n,id,expected,got,status"
    assert lines[-1].startswith("verdict,")
    assert all(len(line.split(",")) == 6 for line in lines)


def test_verify_print_bases(capsys):
    code, out = run_cli(
        capsys,
        ["verify", "--n-min", "2", "--n-max", "2", "--print-bases", "--format", "json"],
    )
    report = json.loads(out)
    bases = report["per_n"][0]["bases"]
    assert bases["h_OP[0]"] == ["1"]
    assert any("u1^v1" in v for v in bases["h_OP[2]"])
    assert code == 0


def test_verify_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        [
            "verify",
            "--n-min",
            "2",
            "--n-max",
            "2",
            "--format",
            "json",
            "--output",
            str(path),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["verdict"] == "PASS"


def test_exit_code_tracks_verdict(monkeypatch, capsys):
    import equivext.cli as cli_mod

    def fake_run(cfg):
        return {
            "version": "1.0",
            "config": {},
            "per_n": [],
            "oracle_tables": [],
            "warnings": [],
            "verdict": "FAIL",
        }

    monkeypatch.setattr(cli_mod, "run_verify", fake_run)
    code, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert code == 1


CSV_BASES = "--print-bases needs --format text or json; csv is a per-check summary"


@pytest.mark.parametrize(
    "fields, argv, message",
    [
        ({"n_min": 1, "n_max": 1}, "--n-min 1 --n-max 1", "need 2 <= n_min <= n_max"),
        ({"n_min": 3, "n_max": 2}, "--n-min 3 --n-max 2", "need 2 <= n_min <= n_max"),
        ({"oracle_n_max": 3}, "--oracle-n-max 3", "oracle_n_max must be at least n_max"),
        ({"format": "csv", "print_bases": True}, "--format csv --print-bases", CSV_BASES),
        # argparse's choices keep an unknown format from reaching main's config.
        ({"format": "xml"}, None, "unknown format 'xml'"),
    ],
)
def test_bad_verify_configs_are_rejected_before_any_work(
    monkeypatch, capsys, fields, argv, message
):
    import equivext.cli as cli_mod

    def forbidden(*args):
        raise AssertionError("_verify_one ran")

    monkeypatch.setattr(cli_mod, "_verify_one", forbidden)
    with pytest.raises(ValueError) as err:
        run_verify(RunConfig(**fields))
    assert str(err.value) == message
    if argv is not None:
        assert main(["verify", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["table", "nonsense", "--n", "2"])
    assert err.value.code == 2


def test_table_rendering(capsys):
    code, out = run_cli(capsys, ["table", "ext_G_G", "--n", "2"])
    assert code == 0
    assert "(1,2,5,2,1) | (1,2,5,2,1) | OK" in out
    _, out = run_cli(capsys, ["table", "h_OP", "--n", "3"])
    assert "(1,0,1,0,1,0,1)" in out
    _, out = run_cli(capsys, ["table", "h_G", "--n", "2"])
    assert "(0,2,1,2,0)" in out
    _, out = run_cli(capsys, ["table", "d", "--n", "3", "--format", "json"])
    payload = json.loads(out)
    assert payload["formula"] == [1, 4, 7, 8, 7, 4, 1]
    assert payload["match"] is True


def test_invariants_command(capsys):
    code, out = run_cli(capsys, ["invariants", "--n", "2", "--k", "2", "--print-bases"])
    assert code == 0
    assert out.splitlines()[0] == "dim 1"
    assert "u1^v1" in out
    _, out = run_cli(capsys, ["invariants", "--n", "3", "--k", "1", "--rho", "1"])
    assert out.splitlines()[0] == "dim 2"
    _, out = run_cli(capsys, ["invariants", "--n", "2", "--k", "1"])
    assert out.splitlines()[0] == "dim 0"


def test_invariants_rejects_csv(capsys):
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--n", "2", "--k", "2", "--format", "csv"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_invariants_untested_leg_note(capsys):
    code, out = run_cli(capsys, ["invariants", "--n", "2", "--k", "0", "--rho", "2"])
    assert code == 0
    assert "untested" in out


def test_run_verify_range_matches_single_n_runs():
    # Every n of a range shares the process's caches; no n may see another's results.
    report = run_verify(RunConfig(n_min=2, n_max=3, format="json"))
    assert report["verdict"] == "PASS"
    clear_caches()
    alone = {n: run_verify(RunConfig(n_min=n, n_max=n, format="json"))["per_n"] for n in (3, 2)}
    assert report["per_n"] == alone[2] + alone[3]


def test_table_families_are_listed_alike():
    # cli lists them for --help without loading dimformulas; a family in only
    # one list is never verified, or a KeyError in _family_spaces.
    import equivext.cli as cli_mod
    from equivext.dimformulas import TABLE_FAMILIES

    assert cli_mod.TABLE_ORDER == tuple(TABLE_FAMILIES)


def test_a_failed_theorem_step_fails_the_report(monkeypatch, capsys):
    import equivext.yoneda as yoneda_mod

    monkeypatch.setattr(yoneda_mod, "map_rank", lambda *args: 0)
    code, out = run_cli(capsys, ["verify", "--n-min", "2", "--n-max", "2", "--format", "json"])
    assert code == 1
    result = json.loads(out)["per_n"][0]
    theorem = result["theorem"]
    assert (theorem["ext1_MM"], theorem["hom_MM"], theorem["h_M"]) == (None, None, [])
    assert theorem["status"] == "FAIL"
    assert theorem["steps"][-1]["id"] == "push-even-0"
    assert theorem["steps"][-1]["status"] == "FAIL"
    # The chase reads the battery's ranks, so the battery fails with it.
    assert [c["status"] for c in result["ranks"]] == ["FAIL"] * 4 + ["PASS"]
    assert result["verdict"] == "FAIL"


def test_cmd_table_rejects_unknown_name():
    with pytest.raises(ValueError):
        cmd_table("bogus", 2, "text")


def test_cmd_invariants_json(capsys):
    out = cmd_invariants(2, 2, 0, 0, True, "json")
    payload = json.loads(out)
    assert payload["dim"] == 1
    assert payload["space_dim"] == 6
    assert payload["untested_legs"] is False


@pytest.mark.parametrize(
    "stage, target",
    [
        ("tables", "_table_results"),
        ("oracle", "_oracle_results"),
        ("coefficients", "_coefficient_checks"),
        ("ranks", "_rank_checks"),
        ("theorem", "_theorem_result"),
        ("bases", "_bases"),
    ],
)
def test_stage_failure_names_n_and_stage(monkeypatch, capsys, stage, target):
    import equivext.cli as cli_mod

    def boom(*args):
        raise ValueError("injected failure")

    monkeypatch.setattr(cli_mod, target, boom)
    code = main(["verify", "--n-min", "2", "--n-max", "2", "--print-bases"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("internal error: n=2, stage " + stage + ":")
    assert "injected failure" in err


def test_csv_summary_does_not_echo_swap_uv(capsys):
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--format", "csv"]
    code, plain = run_cli(capsys, argv)
    swapped_code, swapped = run_cli(capsys, argv + ["--swap-uv"])
    assert code == swapped_code == 0
    assert swapped == plain


def test_table_and_oracle_stages_enumerate_no_monomials(monkeypatch):
    import equivext.cli as cli_mod

    def boom(s, p):
        raise AssertionError(f"_block({s}, {p}) called")

    clear_caches()
    monkeypatch.setattr(spaces_mod, "_block", boom)
    tables, palindromes = cli_mod._table_results(5)
    assert palindromes
    assert all(t["match"] for t in tables.values())
    assert cli_mod._oracle_results(5) == {"descriptors": 44, "all_match": True}


def test_rank_stage_materialises_only_source_bases(monkeypatch):
    import equivext.cli as cli_mod
    from equivext.spaces import SpaceDescriptor

    listed = set()
    block = spaces_mod._block

    def recording(s, p):
        listed.add(s)
        return block(s, p)

    clear_caches()
    monkeypatch.setattr(spaces_mod, "_block", recording)
    checks = cli_mod._rank_checks(5, False, True)
    assert [c["status"] for c in checks] == ["PASS"] * 8
    sources = {(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1), (4, 0, 0), (6, 0, 0), (8, 0, 0)}
    assert listed == {SpaceDescriptor(5, k, a, b) for k, a, b in sources}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_stage_covers_every_map_of_the_certificate(monkeypatch, n):
    # Every map whose rank the battery or the chase certifies has its source and
    # target dimensions checked against the oracle: a table-family space.
    import equivext.chase as chase_mod
    import equivext.cli as cli_mod
    import equivext.yoneda as yoneda_mod

    maps = set()
    map_rank = yoneda_mod.map_rank

    def spy(c, side, source):
        maps.add((c.space, side, source))
        return map_rank(c, side, source)

    monkeypatch.setattr(yoneda_mod, "map_rank", spy)
    for check_remark in (False, True):
        for swap_uv in (False, True):
            cli_mod._rank_checks(n, swap_uv, check_remark)
            chase_mod.verify_theorem(n, check_remark=check_remark, swap_uv=swap_uv)
    used = {
        s
        for c_space, side, source in maps
        for s in (source, yoneda_mod._map_target(c_space, side, source))
    }
    families = (cli_mod._family_spaces(family, n) for family in cli_mod.TABLE_ORDER)
    assert used <= set().union(*families)
    assert {side for _, side, _ in maps} == {"push", "pull"}


N7_REPORT_SHA256 = "5f806ce5233c1d7eadc9654f5d2136dd2137c40c4408577df2f68c431d5e33a0"


def test_verify_n7_report_bytes_are_pinned(capsys):
    argv = "verify --n-min 7 --n-max 7 --oracle-n-max 7 --check-remark --format json".split()
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == N7_REPORT_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-min", "2", "--n-max", "2"],
        ["table", "h_G", "--n", "2"],
        ["invariants", "--n", "2", "--k", "2"],
    ],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "report"
    code = main([*argv, "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


def test_printed_bases_are_checked_against_the_oracle(monkeypatch):
    import equivext.cli as cli_mod

    monkeypatch.setattr(spaces_mod, "invariant_dim", lambda s: 0 if s.k else 7)
    with pytest.raises(RuntimeError, match="oracle 7"):
        cli_mod._bases(2)


def test_invariants_refuses_a_basis_the_oracle_disagrees_with(monkeypatch, capsys):
    bad = spaces_mod.SpaceDescriptor(3, 2, 1, 1)
    oracle = spaces_mod.invariant_dim
    monkeypatch.setattr(spaces_mod, "invariant_dim", lambda s: oracle(s) + (s == bad))
    assert main(["invariants", "--n", "3", "--k", "2", "--dual", "1", "--rho", "1"]) == 2
    err = capsys.readouterr().err
    assert "has dimension" in err and "oracle" in err


def _python(*args, **env) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package on its path and ``env`` set."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_verify_bytes_do_not_depend_on_the_hash_seed():
    command = "verify --check-remark --format json"
    outs = {
        seed: _python("-m", "equivext.cli", *command.split(), PYTHONHASHSEED=seed)
        for seed in ("0", "12345")
    }
    assert all(proc.returncode == 0 for proc in outs.values())
    assert outs["0"].stdout == outs["12345"].stdout
    digest = hashlib.sha256(outs["0"].stdout.encode("utf-8")).hexdigest()
    assert digest == json.loads(REFERENCES.read_text())[command]


# Runs one command line, then writes the loaded module names to stderr. The
# names are read before json is imported to write them.
FOOTPRINT = textwrap.dedent(
    """
    import sys
    from equivext.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exit:
        code = exit.code
    modules = sorted(sys.modules)
    import json
    sys.stderr.write(json.dumps([code, modules]))
    """
)


@pytest.mark.parametrize(
    "argv, package",
    [
        (["--help"], set()),
        (
            ["invariants", "--n", "2", "--k", "1"],
            {"characters", "linalg", "patterns", "spaces", "symgroup"},
        ),
        (
            ["verify", "--n-min", "2", "--n-max", "2"],
            {"characters", "chase", "dimformulas", "linalg", "patterns", "spaces", "symgroup",
             "yoneda"},
        ),
        (
            ["verify", "--n-min", "2", "--n-max", "3"],
            {"characters", "chase", "dimformulas", "linalg", "patterns", "spaces", "symgroup",
             "yoneda"},
        ),
        (
            ["table", "ext_G_G", "--n", "2"],
            {"characters", "dimformulas", "linalg", "patterns", "spaces", "symgroup"},
        ),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(argv, package):
    proc = _python("-c", FOOTPRINT, *argv)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("equivext.")}
    assert loaded == {"cli"} | package
    assert "concurrent.futures" not in modules
    if argv == ["--help"]:
        assert not {"dataclasses", "inspect", "json"} & set(modules)


def test_verify_report_lists_oracle_rows_past_the_verified_range(capsys):
    argv = "verify --n-min 2 --n-max 2 --oracle-n-max 5 --format json".split()
    code, out = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["per_n"][0]["oracle"]["all_match"]
    assert [entry["n"] for entry in report["oracle_tables"]] == [3, 4, 5]
    for entry in report["oracle_tables"]:
        assert set(entry) == {"n", "match_formula", *TABLE_ORDER}
        for family in TABLE_ORDER:
            assert entry[family] == list(formula_table(family, entry["n"]).dims), family
        assert entry["match_formula"]
