"""The traced benchmark run (perfbench/spans.py) swaps package names for
timing wrappers by getattr, so a refactor that drops or renames one of them
breaks it. Each traced (module, attribute) must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_hook_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
