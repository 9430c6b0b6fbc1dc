"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

SMALL_VERIFY = [
    "verify", "--n-min", "2", "--n-max", "3", "--oracle-n-max", "4",
    "--check-remark", "--format", "json",
]
SMALL_INVARIANTS = run.invariants_argv(2, 2, 2, 1)


def _untraced(argv):
    return subprocess.run(
        [sys.executable, "-c", run.ENTRY, *argv],
        capture_output=True, env=run.program_env(1), cwd=run.ROOT,
    )


def _traced(argv, spans_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_path), spans_path.stem, *argv],
        capture_output=True, env=run.program_env(1), cwd=run.ROOT,
    )
    return proc, json.loads(spans_path.read_text())["spans"]


@pytest.mark.parametrize("argv", [SMALL_VERIFY, SMALL_INVARIANTS])
def test_traced_stdout_equals_untraced(argv, tmp_path):
    traced, spans = _traced(argv, tmp_path / "a.json")
    plain = _untraced(argv)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert all(span[4] == "a" for span in spans)


def test_layer_self_times_account_for_traced_wall(tmp_path):
    _, spans = _traced(SMALL_VERIFY, tmp_path / "a.json")
    assert min(tracer.self_times(spans)) >= 0
    m = tracer.summarize([spans])
    layer_self = sum(m.get(f"layer.{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    assert abs(layer_self - m["trace.wall_s"]) <= run.SELF_TIME_SLACK * m["trace.wall_s"]
    for layer in ("characters", "spaces", "linalg", "yoneda", "chase", "cli"):
        assert m[f"layer.{layer}.self_s"] > 0


def test_every_binding_site_is_wrapped():
    before = set(tracer.unwrapped_bindings())
    for site in (
        "equivext.cli.invariant_basis",
        "equivext.yoneda.invariant_basis",
        "equivext.spaces.kernel_of_rows",
        "equivext.yoneda.act",
        "equivext.chase.map_on_invariants",
    ):
        assert site in before
    replaced = tracer.install(tracer.Recorder("t"))
    try:
        assert tracer.unwrapped_bindings() == []
        assert {f"{mod.__name__}.{attr}" for mod, attr, _ in replaced} == before
        # Every target is bound (and so wrapped) where it is defined.
        assert {f"equivext.{q}" for q in tracer.QUALNAMES} <= before
    finally:
        tracer.uninstall(replaced)
    assert set(tracer.unwrapped_bindings()) == before


def test_work_counts_repeat_exactly(tmp_path):
    counts = []
    for name in ("a", "b"):
        _, spans = _traced(SMALL_VERIFY, tmp_path / f"{name}.json")
        m = tracer.summarize([spans])
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["spaces.invariant_basis.misses"] > 0
    assert counts[0]["yoneda.compose.pairs"] > 0


def test_seed_picks_the_inputs():
    assert run.workload_commands("invariants-multileg", 0) == [
        run.invariants_argv(3, 3, 2, 2),
        run.invariants_argv(4, 2, 2, 1),
    ]
    for name in run.WORKLOADS:
        for seed in range(8):
            assert run.workload_commands(name, seed) == run.workload_commands(name, seed)
    assert run.workload_commands("verify-n5", 0) == run.workload_commands("verify-n5", 7)


def test_every_command_has_a_reference():
    references = json.loads((HERE / "references.json").read_text())
    for name in run.WORKLOADS:
        for seed in range(len(run.MULTILEG_POOL)):
            for argv in run.workload_commands(name, seed):
                assert " ".join(argv) in references


def test_check_rejects_a_changed_output():
    references = json.loads((HERE / "references.json").read_text())
    argv = run.invariants_argv(4, 2, 2, 1)
    inv = run.Invocation(argv, False, 0, 1.0, 1.0, 1.0, 1, stdout=b'{"dim": 17}\n')
    assert run.check(inv, references) == "stdout differs from the reference"
    inv.exit_code = 1
    assert run.check(inv, references) == "exit code 1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
