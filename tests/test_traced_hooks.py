"""The traced benchmark run (perfbench/spans.py) swaps package names for
timing wrappers by getattr, so a refactor that drops or renames one of them
breaks it. Each traced (module, attribute) must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stabtest import reduction
from stabtest.graphs import rhg_lattice

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_hook_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_compute_reduction_calls_the_traced_gf2_names(monkeypatch):
    # The traced run times gf2 work through these module names; a refactor
    # that stops calling one of them would read 0 there without failing.
    # compute_reduction takes the kept columns, the kernel and D^-1 from one
    # RREF of A, so column_space_basis and kernel_basis read 0 and only C is
    # inverted; the two stay importable for the traced run.
    calls = {}
    for name in ("mat_inverse", "mat_mul", "column_space_basis", "kernel_basis"):
        def counted(*args, _name=name, _inner=getattr(reduction, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)
        monkeypatch.setattr(reduction, name, counted)
    reduction.compute_reduction(rhg_lattice(2, 2, 2))
    assert calls == {"mat_inverse": 1, "mat_mul": 2}
