"""The package imports nothing outside the standard library (requires Python >= 3.10,
the first with sys.stdlib_module_names), every name it or a test imports is used,
and every private helper it defines is used by package code."""

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


# CPython's built-in SHA-256 module: _sha2 from 3.12 on, _sha256 before. Each
# interpreter's sys.stdlib_module_names lists only its own spelling.
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def _imported(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _in_stdlib(name):
    return name.split(".")[0] in sys.stdlib_module_names


def _has_stdlib_fallback(node):
    """A try whose ImportError handler imports a standard module other than
    the built-in SHA-256 names."""
    return isinstance(node, ast.Try) and any(
        isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
        and any(
            _in_stdlib(name) and name not in BUILTIN_SHA256
            for inner in ast.walk(handler) for name in _imported(inner)
        )
        for handler in node.handlers
    )


def _outside_stdlib(source, filename="<source>"):
    """Names the source imports from outside the running interpreter's
    standard library. A built-in SHA-256 name passes when it is imported in
    the body of a try with a standard fallback."""
    tree = ast.parse(source, filename)
    guarded = {
        inner for node in ast.walk(tree) if _has_stdlib_fallback(node)
        for stmt in node.body for inner in ast.walk(stmt)
    }
    return [
        name for node in ast.walk(tree) for name in _imported(node)
        if not _in_stdlib(name) and not (name in BUILTIN_SHA256 and node in guarded)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    outside = _outside_stdlib(path.read_text(), str(path))
    assert not outside, f"{path.name} imports {outside} from outside the standard library"


_FALLBACK = """
try:
    from {first} import sha256
except ImportError:
    from hashlib import sha256
"""


def test_only_a_guarded_builtin_sha256_passes_the_scan():
    for name in BUILTIN_SHA256:
        assert _outside_stdlib(_FALLBACK.format(first=name)) == []
        if name not in sys.stdlib_module_names:
            assert _outside_stdlib(f"from {name} import sha256") == [name]
            # A handler that catches something else, or falls back to nothing
            # standard, does not guard the import.
            assert _outside_stdlib(_FALLBACK.format(first=name).replace("ImportError", "KeyError")) == [name]
            assert _outside_stdlib(_FALLBACK.format(first=name).replace("hashlib", "numpy")) == [name, "numpy"]
    assert _outside_stdlib(_FALLBACK.format(first="numpy")) == ["numpy"]
    assert _outside_stdlib(_FALLBACK.format(first="numpy.linalg")) == ["numpy.linalg"]


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



def _private_definitions(tree):
    """(name, statement) for each private name that a module-level def, class
    or assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names = [node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        else:
            continue
        yield from ((name, stmt) for name in names if name.startswith("_") and not name.endswith("__"))


def test_every_private_helper_is_used_by_the_package():
    # A private name that only tests reach is dead code to the package. Its
    # own module must load it outside its definition, or another module must
    # reach it as module._name or through `from .module import _name`.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reached = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reached.update(alias.name for alias in node.names)
    unused = []
    for filename, tree in trees.items():
        loads = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
        for name, stmt in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(stmt)}
            if name not in reached and not any(node.id == name and id(node) not in inside for node in loads):
                unused.append(f"{filename}: {name}")
    assert not unused, f"private names no package code uses: {unused}"


def _repr_fields_in_raises(source, filename="<source>"):
    """Line numbers of the f-string fields with a !r conversion inside a raise."""
    return sorted(
        node.lineno for stmt in ast.walk(ast.parse(source, filename)) if isinstance(stmt, ast.Raise)
        for node in ast.walk(stmt) if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    )


def test_raised_messages_show_values_only_through_shown():
    # !r echoes a value whole, however long; graphs._shown cuts a long one.
    # A name the package supplies itself is quoted in the literal text.
    assert _repr_fields_in_raises('raise ValueError(f"got {x!r}")\nf"{y!r}"') == [1]
    assert _repr_fields_in_raises('raise ValueError(f"got {_shown(x)} in \'{name}\'")') == []
    sites = [f"{path.name}:{line}" for path in SOURCES for line in _repr_fields_in_raises(path.read_text(), str(path))]
    assert not sites, f"raised f-strings with !r: {sites}"
