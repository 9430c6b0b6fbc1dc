"""The package namespace: every public name resolves lazily from its home module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equivext

ROOT = Path(__file__).resolve().parents[1]

def test_every_public_name_is_the_object_of_its_home_module():
    homed = [name for names in equivext._HOMES.values() for name in names.split()]
    assert sorted(homed) == equivext.__all__
    assert len(set(homed)) == len(homed) == 36
    for module, names in equivext._HOMES.items():
        home = importlib.import_module(f"equivext.{module}")
        for name in names.split():
            assert getattr(equivext, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(equivext.__all__) <= set(dir(equivext))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from equivext import *", namespace)
    assert set(equivext.__all__) <= set(namespace)
    assert namespace["compose"] is importlib.import_module("equivext.yoneda").compose


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        equivext.no_such_name  # noqa: B018
    assert not hasattr(equivext, "_ActionTable")
    with pytest.raises(ImportError):
        exec("from equivext import no_such_name", {})


def test_home_modules_are_attributes_imported_on_first_access():
    src = ROOT / "src"
    script = (
        "import sys, equivext\n"
        "assert 'equivext.chase' not in sys.modules\n"
        "assert equivext.chase is sys.modules['equivext.chase']\n"
        "assert equivext.spaces.invariant_basis is equivext.invariant_basis\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    for module in equivext._HOMES:
        assert getattr(equivext, module) is importlib.import_module(f"equivext.{module}")


def test_every_private_definition_is_reached():
    # A top-level function or class outside __all__ that no other statement of
    # src/ names (as a name, attribute or import) serves only tests.
    # Module hooks such as __getattr__ are called by the interpreter.
    paths = list((ROOT / "src" / "equivext").glob("*.py"))
    named: set[str] = set(equivext.__all__)
    defined = []
    for path in sorted(paths):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
                names.discard(stmt.name)
            named |= names
    unreached = [
        f"{file}:{name}" for file, name in defined if not name.startswith("__") and name not in named
    ]
    assert unreached == []


def test_every_import_is_used():
    # A name bound by an import that nothing else in its module names is dead
    # (annotations count, as they stay names under `from __future__ import annotations`).
    paths = [*(ROOT / "src" / "equivext").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_patterns_imports_only_linalg_at_run_time():
    # The pattern engine reads indices, not permutation objects or monomial
    # spaces; imports under `if TYPE_CHECKING:` serve annotations only.
    tree = ast.parse((ROOT / "src" / "equivext" / "patterns.py").read_text(encoding="utf-8"))
    checking = {
        id(node)
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING"
        for node in ast.walk(stmt)
    }
    imported = set()
    for node in ast.walk(tree):
        if id(node) in checking:
            continue
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["equivext" if node.level else "", node.module]))
            imported |= {base} if node.module else {f"{base}.{a.name}" for a in node.names}
    assert {m for m in imported if m.split(".")[0] == "equivext"} == {"equivext.linalg"}
