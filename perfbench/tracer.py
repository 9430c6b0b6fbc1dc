"""Layer spans around equivext's public functions, recorded from outside.

Run as a script, this executes one ``equivext`` command line in-process
(``equivext.cli.main(argv)``) with every function in ``TARGETS`` wrapped,
and writes the spans to a JSON file when the command ends:

    PYTHONPATH=src EQUIVEXT_WORKERS=1 \
        python3 perfbench/tracer.py SPANS.json RUN_ID verify --format json

The command's standard output and exit code are passed through
unchanged. ``EQUIVEXT_WORKERS=1`` keeps every per-n job in this process,
so no span is lost in a pool worker.

``from .x import y`` copies a binding, so each function is replaced at
every module of the package that binds it by name, not only where it is
defined. ``unwrapped_bindings`` lists any binding that escaped.

As a module, it also turns a span file into per-layer metrics
(``summarize``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Defining module -> traced public functions. The layer is the module.
TARGETS = {
    "characters": ("invariant_dim",),
    "spaces": ("invariant_basis", "act"),
    "linalg": ("kernel_of_rows", "rref_vectors", "rank"),
    "yoneda": ("build_class", "compose", "map_on_invariants"),
    "chase": ("verify_theorem", "solve"),
    "cli": ("render_report",),
}
LAYERS = tuple(TARGETS)
QUALNAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)
ROOT_SPAN = "cli.main"


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


# name -> counts(args, kwargs, result), evaluated after the span closes so
# counting is not timed as part of the layer.
_COUNTS = {
    "spaces.invariant_basis": lambda a, kw, r: {
        "space_dim": _space_dim(a[0]),
        "dim": r.dim,
    },
    "spaces.act": lambda a, kw, r: {"terms_in": len(a[1].terms)},
    "linalg.kernel_of_rows": lambda a, kw, r: {
        "nnz_in": _nnz(a[0]),
        "cols": a[1],
        "kernel_dim": len(r),
    },
    "linalg.rref_vectors": lambda a, kw, r: {"nnz_in": _nnz(a[0])},
    "yoneda.compose": lambda a, kw, r: {
        "pairs": len(a[0].terms) * len(a[1].terms),
        "terms_out": len(r.terms),
    },
}
# Functions whose first argument is read twice (by the program, then by
# the counter): an iterator is materialized once before the call.
_LISTED_ARG = {"linalg.kernel_of_rows", "linalg.rref_vectors"}


def _space_dim(s) -> int:
    from equivext.spaces import space_dim

    return space_dim(s)


class Recorder:
    """Spans kept in memory: [name, start, end, parent_index, run_id, counts]."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        listed = name in _LISTED_ARG
        spans, stack, run_id = self.spans, self.stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if listed and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, run_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced


def _package_modules() -> list:
    import equivext.cli  # noqa: F401  (cli is not imported by the package)

    return [m for k, m in sorted(sys.modules.items()) if k == "equivext" or k.startswith("equivext.")]


def originals() -> dict[str, object]:
    """Qualified name -> the function object currently defined there."""
    out = {}
    for module, names in TARGETS.items():
        mod = importlib.import_module(f"equivext.{module}")
        for name in names:
            fn = getattr(mod, name)
            out[f"{module}.{name}"] = getattr(fn, "__wrapped_original__", fn)
    return out


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Replace every binding of every target; return (module, attr, old)."""
    wrapped = {id(fn): (fn, recorder.wrap(qual, fn)) for qual, fn in originals().items()}
    replaced = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            fn, wrapper = wrapped.get(id(value), (None, None))
            if value is fn:
                replaced.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    return replaced


def uninstall(replaced) -> None:
    for mod, attr, value in replaced:
        setattr(mod, attr, value)


def unwrapped_bindings() -> list[str]:
    """Module attributes that still hold an untraced target function."""
    targets = originals()
    left = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if any(value is fn for fn in targets.values()):
                left.append(f"{mod.__name__}.{attr}")
    return left


def self_times(spans) -> list[float]:
    """Duration minus the part covered by direct children (run serially)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans, index: int) -> bool:
    """No enclosing span is a call of the same function."""
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == spans[index][0]:
            return False
        parent = spans[parent][3]
    return True


def summarize(spans) -> dict[str, float]:
    """Per-function and per-layer metrics from one or more span lists.

    ``busy_s`` sums the spans of a function not nested in another span of
    the same function; ``self_s`` sums self times, and
    ``layer.<module>.self_s`` sums them over a module. An
    ``invariant_basis`` call is a cache miss when it made any traced
    call, i.e. when it computed something.
    """
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for run in spans:
        selfs = self_times(run)
        has_child = {s[3] for s in run if s[3] is not None}
        for i, (name, t0, t1, _parent, _run_id, counts) in enumerate(run):
            add(f"layer.{name.split('.')[0]}.self_s", selfs[i])
            if name == ROOT_SPAN:
                add("trace.wall_s", t1 - t0)
                continue
            add(name + ".calls", 1)
            add(name + ".self_s", selfs[i])
            if _outermost(run, i):
                add(name + ".busy_s", t1 - t0)
            if name == "spaces.invariant_basis":
                if i in has_child:
                    add("spaces.invariant_basis.misses", 1)
                    add("spaces.monomials.count", counts["space_dim"])
                    add("spaces.invariant_basis.dim_total", counts["dim"])
            elif counts:
                for key, value in counts.items():
                    add(f"{name}.{key}", value)
        add("trace.spans", len(run))
    calls = m.get("spaces.invariant_basis.calls", 0)
    if calls:
        m["spaces.invariant_basis.hit_ratio"] = 1 - m.get("spaces.invariant_basis.misses", 0) / calls
    if m.get("yoneda.compose.pairs"):
        m["yoneda.compose.yield"] = m["yoneda.compose.terms_out"] / m["yoneda.compose.pairs"]
    return m


def main(argv: list[str]) -> int:
    out_path, run_id, cli_argv = argv[0], argv[1], argv[2:]
    from equivext import cli

    recorder = Recorder(run_id)
    install(recorder)
    escaped = unwrapped_bindings()
    if escaped:
        print(f"untraced bindings: {escaped}", file=sys.stderr)
        return 3
    try:
        code = recorder.wrap(ROOT_SPAN, cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": cli_argv, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
