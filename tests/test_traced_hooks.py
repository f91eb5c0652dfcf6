"""The traced benchmark run (perfbench/spans.py) swaps package names for
timing wrappers by getattr, so a refactor that drops or renames one of them
breaks it. Each traced (module, attribute) must exist."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from stabtest import analytics, cli, protocol, reduction
from stabtest.graphs import path_graph, rhg_lattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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
    # compute_reduction takes the kept columns, the kernel, D and D^-1 from
    # one pass over A's columns, so column_space_basis and kernel_basis read
    # 0; C is inverted once, and the block-form check multiplies A D and
    # C C^-1. The two basis names stay importable for the traced run.
    calls = {}
    for name in ("mat_inverse", "mat_mul", "column_space_basis", "kernel_basis"):
        def counted(*args, _name=name, _inner=getattr(reduction, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)
        monkeypatch.setattr(reduction, name, counted)
    reduction.compute_reduction(rhg_lattice(2, 2, 2))
    assert calls == {"mat_inverse": 1, "mat_mul": 2}


@pytest.mark.parametrize("entry", ["estimate", "transcript_lines", "run_trials"])
def test_trial_loops_call_the_traced_trial_seed(monkeypatch, entry):
    # The traced run times protocol.trial_seed through the module name and
    # marks the start of a job's trial loop by its first call; a loop that
    # captured the function instead would read 0 there without failing.
    calls = []
    inner = protocol.trial_seed

    def counted(master_seed, index):
        calls.append(index)
        return inner(master_seed, index)

    monkeypatch.setattr(protocol, "trial_seed", counted)
    result = getattr(protocol, entry)(path_graph(5), 2, protocol.Honest(), 7, 3)
    if entry != "estimate":
        list(result)
    assert calls == list(range(7))


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cmd_verify_bounds", ["verify-bounds", "--k-max", "1"]),
        ("cmd_simulate", ["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest"]),
    ],
)
def test_main_dispatches_through_the_traced_commands(monkeypatch, name, argv):
    # The traced run times cli.cmd_verify_bounds and cli.cmd_simulate by
    # swapping the module names; a parser that bound the functions at import
    # would bypass the swap and both spans would read 0 without failing.
    calls = []
    monkeypatch.setattr(cli, name, lambda args: calls.append(args.command) or 0)
    assert cli.main(argv) == 0
    assert calls == [argv[0]]


def test_benchmark_mixture_has_the_exact_values_perfbench_pins():
    # The mixture workload checks its run against these exact values, computed
    # by t_functionals from the fields of the parsed mixture; a refactor of
    # ClassMixture that broke that call would otherwise show only in a
    # benchmark run.
    model = cli.parse_adversary(f"mixture:{PERFBENCH / 'mixture.json'}")
    t1, t2, t3 = analytics.t_functionals(model.beta, model.q0, model.q1, 5)
    passing = model.beta * t1 + (1 - model.beta) * t2
    assert (passing, model.beta * t3 / passing) == (Fraction(83, 198), Fraction(307, 332))
