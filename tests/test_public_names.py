"""Every name a module lists in __all__ exists, so `from module import *` cannot
fail on a stale entry."""

import importlib

import pytest

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
