"""Every name a module lists in __all__ exists, so `from module import *` cannot
fail on a stale entry, and the package's top-level names, which import their
modules on first use, are the objects those modules define."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stabtest
from stabtest import cli

MODULES = [
    "stabtest",
    "stabtest.gf2",
    "stabtest.graphs",
    "stabtest.pauli",
    "stabtest.reduction",
    "stabtest.analytics",
    "stabtest.protocol",
    "stabtest.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


@pytest.mark.parametrize("name", stabtest.__all__)
def test_top_level_names_are_their_home_modules_objects(name):
    home = importlib.import_module(f"stabtest.{stabtest._HOMES[name]}")
    value = getattr(stabtest, name)
    assert value is getattr(home, name)
    # A class or function is served from the module that defines it, not from one that re-exports it.
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == home.__name__


def test_star_import_and_dir_give_all():
    namespace = {}
    exec("from stabtest import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stabtest.__all__)
    assert set(stabtest.__all__) <= set(dir(stabtest))


def test_a_bare_import_resolves_submodules_on_first_use():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import stabtest; print(stabtest.protocol.estimate.__name__, stabtest.gf2.rank.__name__)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.split()) == (0, ["estimate", "rank"]), proc.stderr


@pytest.mark.parametrize("module", [stabtest, cli], ids=["stabtest", "cli"])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError) as info:
        module.no_such_name
    assert str(info.value) == f"module '{module.__name__}' has no attribute 'no_such_name'"
