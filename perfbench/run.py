"""Benchmark for the equivext command line, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is run from ``src/``
through the same entry point as the installed ``equivext`` script, one
process per command, so every figure includes interpreter start-up.

With ``--trace 0`` it launches whole samples of the workload for about
``--seconds`` seconds and reports the end-to-end metrics named in
``BENCHMARK.json``. With ``--trace 1`` it runs the workload once
untraced and once under ``tracer.py`` and reports the per-layer metrics.
Every command's output is checked: exit code 0, stdout byte-identical to
the reference in ``references.json``, verdict PASS for ``verify`` and,
for ``invariants``, the dimension the character oracle gives.

The last line of stdout is the result as one JSON object; the line
before it records the environment. Raw samples and spans go to
``perfbench/out/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
# What the installed ``equivext`` console script runs.
ENTRY = "import sys; from equivext.cli import main; sys.exit(main())"

VERIFY_DEFAULT = ["verify", "--check-remark", "--format", "json"]
VERIFY_N5 = [
    "verify", "--n-min", "5", "--n-max", "5", "--oracle-n-max", "5",
    "--check-remark", "--format", "json",
]
# Pairs of multi-leg descriptors (n, k, dual legs, plain legs) of similar
# total cost: one leg-heavy n=3 space and one n=4 space with three legs.
# The seed picks a pair; seed 0 picks the first.
MULTILEG_POOL = [
    ((3, 3, 2, 2), (4, 2, 2, 1)),
    ((3, 3, 2, 2), (4, 2, 1, 2)),
    ((3, 3, 2, 2), (4, 6, 2, 1)),
    ((3, 3, 2, 2), (4, 6, 1, 2)),
]
WORKLOADS = ("verify-default", "verify-n5", "invariants-multileg")


def invariants_argv(n: int, k: int, a: int, b: int) -> list[str]:
    return [
        "invariants", "--n", str(n), "--k", str(k), "--dual", str(a),
        "--rho", str(b), "--print-bases", "--format", "json",
    ]


def workload_commands(name: str, seed: int) -> list[list[str]]:
    """The command lines that make one sample of ``name``."""
    if name == "verify-default":
        return [VERIFY_DEFAULT]
    if name == "verify-n5":
        return [VERIFY_N5]
    if name == "invariants-multileg":
        return [invariants_argv(*d) for d in MULTILEG_POOL[seed % len(MULTILEG_POOL)]]
    raise ValueError(f"unknown workload {name!r}")


def program_env(workers: int | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "EQUIVEXT_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    if workers is not None:
        env["EQUIVEXT_WORKERS"] = str(workers)
    return env


class TreeWatcher(threading.Thread):
    """Samples the peak RSS (VmHWM) of a process and its descendants.

    The last reading per process is kept: a high-water mark only grows,
    and the first readings of a fresh child may still belong to the
    benchmark's own image before exec.
    """

    PERIOD_S = 0.1

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.hwm_kb: dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(self.PERIOD_S):
            self.sample()

    def sample(self) -> None:
        children: dict[int, list[int]] = {}
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as fh:
                    ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry.name))
        tree, todo = [], [self.root]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, ()))
        for pid in tree:
            try:
                with open(f"/proc/{pid}/status", "rb") as fh:
                    for line in fh:
                        if line.startswith(b"VmHWM:"):
                            self.hwm_kb[pid] = int(line.split()[1])
            except (OSError, ValueError):
                continue


@dataclass
class Invocation:
    argv: list[str]
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    workers: int
    error: str | None = None
    stdout: bytes = field(default=b"", repr=False)


def invoke(argv: list[str], workers: int | None = None, spans_path: Path | None = None,
           run_id: str = "") -> Invocation:
    """Launch one command and wait for it; time it from launch to exit."""
    if spans_path is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), run_id, *argv]
    out_path, err_path = OUT / "stdout.bin", OUT / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=program_env(workers), cwd=ROOT)
        watcher = TreeWatcher(proc.pid)
        watcher.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        watcher.done.set()
        watcher.join()
    pool = {pid: kb for pid, kb in watcher.hwm_kb.items() if pid != proc.pid}
    # wait4 reports the largest process of the tree, which is the CLI
    # itself only when it ran alone.
    own_kb = watcher.hwm_kb.get(proc.pid, usage.ru_maxrss) if pool else usage.ru_maxrss
    return Invocation(
        argv=argv,
        traced=spans_path is not None,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=(own_kb + sum(pool.values())) / 1024,
        workers=len(pool) or 1,
        stdout=out_path.read_bytes(),
    )


def oracle_dim(n: int, k: int, a: int, b: int) -> int:
    """The character oracle's dimension, computed in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from equivext.characters import invariant_dim
    from equivext.spaces import SpaceDescriptor

    return invariant_dim(SpaceDescriptor(n, k, a, b))


def check(inv: Invocation, references: dict[str, str]) -> str | None:
    """Why the invocation's answer is not certified, or None if it is."""
    if inv.exit_code != 0:
        return f"exit code {inv.exit_code}"
    key = " ".join(inv.argv)
    if key not in references:
        return "no reference output"
    if hashlib.sha256(inv.stdout).hexdigest() != references[key]:
        return "stdout differs from the reference"
    payload = json.loads(inv.stdout)
    if inv.argv[0] == "verify" and payload["verdict"] != "PASS":
        return f"verdict {payload['verdict']}"
    if inv.argv[0] == "invariants":
        d = payload["descriptor"]
        expected = oracle_dim(d["n"], d["k"], d["dual_legs"], d["legs"])
        if payload["dim"] != expected:
            return f"dim {payload['dim']} but the oracle gives {expected}"
    return None


def run_sample(commands, references, failures, **kw) -> list[Invocation]:
    sample = []
    for argv in commands:
        inv = invoke(argv, **kw)
        inv.error = check(inv, references)
        if inv.error:
            tag = f"failed-{len(failures)}"
            (OUT / f"{tag}.out").write_bytes(inv.stdout)
            (OUT / f"{tag}.err").write_bytes((OUT / "stderr.txt").read_bytes())
            failures.append(f"{' '.join(argv)}: {inv.error} (see out/{tag}.*)")
        sample.append(inv)
    return sample


def probe_s() -> float:
    """Host-speed probe: a fixed exact-rational loop. Read for drift only."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 60001):
        x += Fraction(i % 7, 1 + i % 13)
    return time.perf_counter() - t0


def setup_runs(count: int, failures: list[str]) -> list[float]:
    """Launch-to-exit times of ``equivext --help``: start-up, no work."""
    times = []
    for _ in range(count):
        inv = invoke(["--help"])
        if inv.exit_code != 0:
            failures.append(f"--help: exit code {inv.exit_code}")
        times.append(inv.wall_s)
    return times


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
    }


SETUP_LAUNCHES = 9


def untraced(commands, seconds, references, failures) -> tuple[dict, list]:
    setup_runs(1, failures)  # untimed: writes the bytecode cache of a fresh checkout
    start = time.perf_counter()
    samples = [run_sample(commands, references, failures)]
    walls = [sum(inv.wall_s for inv in samples[0])]
    # Start-up is timed between samples, spread over the whole run, so
    # that its median sees the same host as the samples do.
    per_sample = math.ceil(SETUP_LAUNCHES * walls[0] / seconds)
    setup = setup_runs(per_sample, failures)
    # Whole samples while the next one, at the median so far, still fits.
    while time.perf_counter() - start + statistics.median(walls) <= seconds:
        samples.append(run_sample(commands, references, failures))
        walls.append(sum(inv.wall_s for inv in samples[-1]))
        setup += setup_runs(per_sample, failures)
    setup += setup_runs(max(0, SETUP_LAUNCHES - len(setup)), failures)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(i.peak_rss_mb for i in s) for s in samples),
    }
    return metrics, samples


SELF_TIME_SLACK = 0.01


def traced(commands, references, failures, run_id) -> tuple[dict, list]:
    import tracer

    default = run_sample(commands, references, failures)
    workers = max(inv.workers for inv in default)
    # The overhead is taken against the same one-worker configuration.
    base = default if workers == 1 else run_sample(commands, references, failures, workers=1)
    traced_runs, span_lists = [], []
    for i, argv in enumerate(commands):
        spans_path = OUT / f"spans-{i}.json"
        spans_path.unlink(missing_ok=True)
        inv = run_sample([argv], references, failures, workers=1,
                         spans_path=spans_path, run_id=f"{run_id}-{i}")[0]
        if inv.stdout != base[i].stdout and not inv.error:
            inv.error = "traced stdout differs from untraced"
            failures.append(f"{' '.join(argv)}: {inv.error}")
        traced_runs.append(inv)
        span_lists.append(json.loads(spans_path.read_text())["spans"] if spans_path.exists() else [])
    m = tracer.summarize(span_lists)
    layer_self = sum(m.get(f"layer.{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    wall = m.get("trace.wall_s", 0.0)
    if not wall or abs(layer_self - wall) > SELF_TIME_SLACK * wall:
        failures.append(f"layer self times sum to {layer_self:.4f} s, traced wall {wall:.4f} s")
    untraced_wall = sum(inv.wall_s for inv in base)
    m["cli.workers"] = workers
    m["cli.cpu_s"] = sum(inv.cpu_s for inv in default)
    m["cli.report_bytes"] = sum(len(inv.stdout) for inv in default)
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead"] = sum(inv.wall_s for inv in traced_runs) / untraced_wall - 1
    samples = [default] if base is default else [default, base]
    return m, samples + [traced_runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "equivext" / "cli.py").is_file():
        print(f"error: no equivext sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "references.json").read_text())
    OUT.mkdir(exist_ok=True)

    env = environment(args.workload, args.seed)
    commands = workload_commands(args.workload, args.seed)
    failures: list[str] = []
    probe_before = probe_s()
    if args.trace:
        values, samples = traced(commands, references, failures, f"{args.workload}-{args.seed}")
        wanted = spec["per_layer"]
    else:
        values, samples = untraced(commands, args.seconds, references, failures)
        wanted = spec["end_to_end"]
    env["probe_s"] = [probe_before, probe_s()]
    env["workers"] = max(inv.workers for s in samples for inv in s)

    result = {
        "correct": not failures,
        "attempted": sum(len(s) for s in samples),
        "failed": sum(1 for s in samples for inv in s if inv.error),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    detail = {
        "env": env,
        "failures": failures,
        "samples": [[{k: v for k, v in asdict(inv).items() if k != "stdout"} for inv in s]
                    for s in samples],
        "result": result,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "env": env,
        "samples": len(samples),
        "fail_frac": result["failed"] / result["attempted"],
        "failures": failures,
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
