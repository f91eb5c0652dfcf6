"""The package imports nothing outside the standard library (requires Python >= 3.10,
the first with sys.stdlib_module_names), and every name it or a test imports is used."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stabtest").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "protocol.py" for path in SOURCES)
    assert any(path.name == "test_stdlib_only.py" for path in TESTS)


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


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=[path.name for path in SOURCES] + [f"tests/{path.name}" for path in TESTS]
)
def test_every_imported_name_is_used(path):
    # A name may also be re-exported through __all__, or kept on a line
    # marked `# noqa: F401` (the names the traced benchmark run patches).
    text = path.read_text()
    tree = ast.parse(text, str(path))
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                # `import a.b` binds a; every other form binds its alias or name.
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used | exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
