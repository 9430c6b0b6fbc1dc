"""The package namespace: every public name resolves lazily from its home module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equivext


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
    src = Path(__file__).resolve().parents[1] / "src"
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
