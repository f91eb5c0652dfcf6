"""The package imports nothing outside the standard library (requires Python >= 3.10,
the first with sys.stdlib_module_names)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "stabtest").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "protocol.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside} from outside the standard library"
