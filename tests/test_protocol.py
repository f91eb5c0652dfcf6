import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import traceback
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabtest.analytics import (
    MAX_DIGITS,
    ClassCounts,
    DomainError,
    lemma_check,
    t_functionals,
    theorem1_bound,
    theorem1_verdict,
    trace_bound,
)
from stabtest.cli import parse_graph
from stabtest.gf2 import BitMatrix, BitVector, mat_vec
from stabtest.graphs import BipartiteGraphState, grid_graph, path_graph, rhg_lattice
from stabtest.pauli import BlockClass, BlockPauli, syndrome_masks
from stabtest.protocol import (
    MAX_COPIES,
    ClassMixture,
    EstimateResult,
    Explicit,
    Honest,
    IidPauli,
    SingleBadCopy,
    estimate,
    run_protocol,
    run_trials,
    transcript_lines,
    transcript_to_json,
    trial_seed,
)
from stabtest.protocol import (
    _CLASS_JSON,
    _lane_table,
    _pick,
    _Plan,
    _plan,
    _rounds,
    _running_totals,
    _sample,
    _shuffle,
    _shuffle_steps,
    _trial,
)
from stabtest.reduction import relation_failures

G5 = path_graph(5)


def _mixture(beta, q0, q1):
    return ClassMixture.from_weights(beta, q0, q1)


def _clean(g):
    """The identity attack: no X or Z error on any vertex."""
    zero_b, zero_w = BitVector.zero(g.n_b), BitVector.zero(g.n_w)
    return BlockPauli(zero_b, zero_w, zero_b, zero_w)


def test_trial_seed_is_stable_and_spread():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    seen = {trial_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert trial_seed(7, 0) != trial_seed(8, 0)
    assert trial_seed(0, 0) == 12426054289685354689
    assert trial_seed(2015, 7) == 16484481422627069366


@pytest.mark.parametrize("master_seed", [0, 7, -5, 2**32 - 1, 10**30])
def test_trial_seed_matches_hashlib(master_seed):
    # hashlib as the independent reference for the built-in SHA-256 the
    # package hashes with.
    for index in range(200):
        digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
        assert trial_seed(master_seed, index) == int.from_bytes(digest[:8], "big")


def _python_output(code, *flags):
    """Stripped stdout of a fresh interpreter, started with flags, that runs
    code with src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(
    all(importlib.util.find_spec(name) is None for name in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module",
)
def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, a few ms of every command's start-up.
    assert _python_output("import sys, stabtest.cli; print('hashlib' in sys.modules)") == "False"


def test_importing_the_cli_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses and inspect load a dozen modules that nothing else needs.
    code = (
        "import sys; bare = set(sys.modules)\n"
        "import stabtest.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    assert _python_output(code) == "[]"


def _layers_after(*argvs):
    """Which of pauli, protocol and reduction a fresh interpreter has loaded
    after importing the cli and running each argv through cli.main in turn."""
    code = (
        "import contextlib, io, sys\n"
        "import stabtest.cli\n"
        f"for argv in {argvs}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert stabtest.cli.main(argv) == 0, argv\n"
        "    print(sorted({'stabtest.pauli', 'stabtest.protocol', 'stabtest.reduction'} & sys.modules.keys()))\n"
    )
    return _python_output(code).splitlines()


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # verify-bounds and oracle run on the exact analytics alone, reduce adds
    # the reduction and simulate the Monte Carlo layers: a layer imported by
    # a command that does not run it is compiled at every start of it.
    bounds = ["verify-bounds", "--k-max", "3", "--out", str(tmp_path / "bounds.csv")]
    reduce = ["reduce", "--graph", "path:3"]
    assert _layers_after(bounds, ["oracle", "1", "0", "0", "2"], reduce) == ["[]", "[]", "['stabtest.reduction']"]
    simulate = ["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest", "--trials", "3",
                "--outdir", str(tmp_path / "out")]
    assert _layers_after(simulate) == ["['stabtest.pauli', 'stabtest.protocol']"]


def test_commands_that_touch_no_file_leave_pathlib_unloaded():
    # pathlib loads urllib.parse, fnmatch and ntpath for Path, and on 3.13
    # glob, pwd and grp too. -S keeps site, which loads it on some
    # interpreters, from hiding an import by the package.
    code = (
        "import contextlib, io, sys\n"
        "import stabtest.cli\n"
        "print('pathlib' in sys.modules)\n"
        "for argv in (['oracle', '1', '0', '0', '2'], ['reduce', '--graph', 'path:3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert stabtest.cli.main(argv) == 0, argv\n"
        "    print('pathlib' in sys.modules)\n"
    )
    assert _python_output(code, "-S").split() == ["False", "False", "False"]


_LAYERS = {"stabtest.analytics", "stabtest.graphs", "stabtest.gf2", "stabtest._record"}
_EXACT = {"stabtest.analytics", "stabtest._record", "fractions", "decimal"}
_GRAPH = {"stabtest.graphs", "stabtest.gf2", "stabtest._record"}
# Per entry path: the statement run after `import stabtest.cli as cli`, with
# {tmp} a fresh directory holding graph.json, the modules it loads and the
# modules it leaves unloaded, both counted from a bare interpreter.
ENTRY_PATHS = {
    "import": ("pass", {"stabtest", "stabtest.cli", "stabtest._text", "argparse"},
               _LAYERS | {"fractions", "decimal", "csv", "json"}),
    "parse-builtin-graph": ("cli.parse_graph('rhg:2x2x2')", _GRAPH, {"stabtest.analytics", "fractions", "decimal", "json"}),
    # A graph file is read by json; the exact layer still stays out.
    "parse-graph-file": ("cli.parse_graph({tmp!r} + '/graph.json')", _GRAPH,
                         {"stabtest.analytics", "fractions", "decimal", "csv"}),
    # --k-max 40 forks on a host with two or more usable CPUs.
    "verify-bounds": ("assert cli.main(['verify-bounds', '--k-max', '40', '--out', {tmp!r} + '/b.csv']) == 0", _EXACT,
                      {"stabtest.graphs", "stabtest.gf2", "csv", "json"}),
    "oracle": ("assert cli.main(['oracle', '1', '0', '0', '2']) == 0", _EXACT,
               {"stabtest.graphs", "stabtest.gf2", "csv", "json"}),
    "reduce": ("assert cli.main(['reduce', '--graph', 'rhg:2x2x2']) == 0", _GRAPH | {"stabtest.reduction"},
               {"stabtest.analytics", "fractions", "decimal", "csv", "json"}),
    "simulate": ("assert cli.main(['simulate', '--graph', 'path:3', '--k', '1', '--adversary', 'honest',"
                 " '--trials', '3', '--outdir', {tmp!r}]) == 0",
                 _LAYERS | {"stabtest.pauli", "stabtest.protocol", "fractions", "decimal", "csv"}, set()),
}


@pytest.mark.parametrize("statement, loads, leaves", ENTRY_PATHS.values(), ids=ENTRY_PATHS.keys())
def test_each_entry_path_loads_only_the_modules_it_runs(tmp_path, statement, loads, leaves):
    # Every module an entry path loads is compiled at every start of it, and
    # the benchmark compiles on every start: fractions, decimal, csv and json
    # cost milliseconds each.
    (tmp_path / "graph.json").write_text('{"n_b": 2, "n_w": 1, "edges": [[0, 0], [1, 0]]}')
    code = (
        "import contextlib, io, sys\n"
        "bare = set(sys.modules)\n"
        "import stabtest.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement.format(tmp=str(tmp_path))}\n"
        "print(' '.join(sorted(sys.modules.keys() - bare)))\n"
    )
    loaded = set(_python_output(code).split())
    assert (loads - loaded, leaves & loaded) == (set(), set())


def test_hashlib_stands_in_without_a_builtin_sha256():
    # A None entry in sys.modules makes `from _sha2 import ...` raise ImportError.
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from stabtest import protocol\n"
        "print(protocol._sha256 is hashlib.sha256, protocol.trial_seed(0, 0), protocol.trial_seed(2015, 7))"
    )
    assert _python_output(code).split() == ["True", "12426054289685354689", "16484481422627069366"]


def test_honest_run_always_accepts():
    for seed in range(25):
        tr = run_protocol(G5, 2, Honest(), seed)
        assert tr.accepted and tr.third_fidelity == 1
        assert all(cls == BlockClass(0, 0) for cls in tr.classes)


def test_partition_shape():
    tr = run_protocol(G5, 3, Honest(), 11)
    assert len(tr.partition) == 7
    assert sorted(tr.partition).count(1) == 3
    assert sorted(tr.partition).count(2) == 3
    assert tr.partition.count(3) == 1


def test_single_bad_copy_accept_iff_hidden():
    model = SingleBadCopy(BlockClass(1, 1))
    for seed in range(200):
        tr = run_protocol(G5, 1, model, seed)
        bad = [i for i, cls in enumerate(tr.classes) if cls != BlockClass(0, 0)]
        assert len(bad) == 1
        hidden = tr.partition[bad[0]] == 3
        assert tr.accepted == hidden
        if tr.accepted:
            assert tr.third_fidelity == 0


def test_single_bad_class_10_only_fails_group1():
    model = SingleBadCopy(BlockClass(1, 0))
    for seed in range(200):
        tr = run_protocol(G5, 2, model, seed)
        bad = next(i for i, cls in enumerate(tr.classes) if cls != BlockClass(0, 0))
        assert tr.accepted == (tr.partition[bad] != 1)


def test_transcript_reproducible():
    a = run_protocol(G5, 2, IidPauli(0.2, 0.1), 99)
    b = run_protocol(G5, 2, IidPauli(0.2, 0.1), 99)
    assert a == b


def test_record_outcomes_consistency():
    tr = run_protocol(grid_graph(3, 3), 2, IidPauli(0.3, 0.3), 5, record_outcomes=True)
    assert tr.raw_outcomes is not None
    assert [i for i, _, _ in tr.raw_outcomes] == [i for i, grp in enumerate(tr.partition) if grp != 3]


_RECORD_MODELS = {
    "iid": IidPauli(0.2, 0.1),
    "single-bad:1,0": SingleBadCopy(BlockClass(1, 0)),
    "single-bad:1,1": SingleBadCopy(BlockClass(1, 1)),
    "mixture": ClassMixture.from_weights(
        Fraction(1, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 4), (2, 1): Fraction(1, 4)},
        {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},
    ),
}


def test_recorded_outcomes_decide_the_verdict():
    # Alice accepts from her own measurement record: every test copy's
    # relation failures, computed from its outcomes, must be zero. Those
    # failures are the syndrome its group observes of the attack drawn for it.
    runs = accepted = 0
    for graph in ("path:5", "grid:3x3", "rhg:2x2x2"):
        g = parse_graph(graph)
        for model in _RECORD_MODELS.values():
            for k in (1, 2, 3):
                for seed in range(40):
                    tr = run_protocol(g, k, model, seed, record_outcomes=True)
                    records = _Plan(g, k, model).draw(random.Random(seed))
                    tested = [i for i, grp in enumerate(tr.partition) if grp != 3]
                    assert [i for i, _, _ in tr.raw_outcomes] == tested
                    all_zero = True
                    for i, x, z in tr.raw_outcomes:
                        group = tr.partition[i]
                        failures = relation_failures(g, group, x, z)
                        assert failures.bits == records[i][group - 1]
                        all_zero = all_zero and failures.is_zero()
                    assert tr.accepted == all_zero
                    runs += 1
                    accepted += tr.accepted
    assert runs == 1440
    assert 0 < accepted < runs


def test_run_trials_yields_derived_seeds():
    trs = list(run_trials(G5, 1, Honest(), 5, 123))
    assert [t.seed for t in trs] == [trial_seed(123, i) for i in range(5)]


@pytest.mark.parametrize(
    "model",
    [
        Honest(),
        SingleBadCopy(BlockClass(0, 1)),
        IidPauli(0.15, 0.05),
        ClassMixture.from_weights(
            Fraction(1, 3), {(1, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}, {(0, 0): 1}
        ),
    ],
)
def test_estimate_matches_full_runs(model):
    est = estimate(G5, 2, model, 300, 77)
    accepted = clean = 0
    for tr in run_trials(G5, 2, model, 300, 77):
        if tr.accepted:
            accepted += 1
            clean += tr.third_fidelity
    assert est.counts == {"trials": 300, "accepted": accepted, "accepted_clean": clean}
    assert est.pass_rate == Fraction(accepted, 300)
    # simulate tallies transcript_lines and builds its summary the same way.
    tally = [(ok, third) for _, ok, third in transcript_lines(G5, 2, model, 300, 77)]
    lines_accepted = sum(ok for ok, _ in tally)
    lines_clean = sum(third for ok, third in tally if ok)
    assert EstimateResult.from_counts(300, lines_accepted, lines_clean) == est


def test_estimate_with_nothing_accepted():
    # Q0 = point mass on (3, 0) at k=1: three copies of class (1,0) can never
    # all avoid a group of size 1 twice... the closed form gives 0, and so
    # does the simulation.
    model = _mixture(1, {(3, 0): 1}, {(0, 0): 1})
    res = estimate(G5, 1, model, 500, 5)
    assert res.pass_rate == 0
    assert res.conditional_fidelity is None


def test_mixture_sampling_distribution():
    model = _mixture(Fraction(1, 2), {(1, 0): 1}, {(0, 0): 1})
    plan = _Plan(G5, 1, model)
    rng = random.Random(4)
    with_bad = 0
    for _ in range(2000):
        records = plan.draw(rng)
        assert len(records) == 3
        flagged = [record for record in records if record[2] != (0, 0, 0, 0)]
        assert len(flagged) == 1
        if not flagged[0][1]:
            with_bad += 1  # the (1,0) case from q0
    assert 850 < with_bad < 1150


def test_mixture_validation_errors():
    with pytest.raises(ValueError):
        estimate(G5, 1, _mixture(2, {(0, 0): 1}, {(0, 0): 1}), 10, 0)
    with pytest.raises(ValueError):
        estimate(G5, 1, _mixture(1, {(0, 0): Fraction(1, 2)}, {(0, 0): 1}), 10, 0)
    with pytest.raises(ValueError):
        estimate(G5, 1, _mixture(1, {(4, 0): 1}, {(0, 0): 1}), 10, 0)
    with pytest.raises(ValueError):
        estimate(G5, 1, _mixture(1, {(0, 0): 1}, {(3, 0): 1}), 10, 0)
    with pytest.raises(ValueError):
        estimate(G5, 1, _mixture(1, {(-1, 0): 1}, {(0, 0): 1}), 10, 0)


@pytest.mark.parametrize("count", [0.5, True, "2", 2.0])
@pytest.mark.parametrize("field", ["q0", "q1"])
def test_mixture_counts_must_be_ints(field, count):
    # int() would turn (0.5, 0) into the clean profile and accept True and "2".
    weights = {"q0": {(0, 0): 1}, "q1": {(0, 0): 1}}
    weights[field] = [((count, 0), 1)]
    with pytest.raises(ValueError, match=f"'{field}'.*non-integer"):
        ClassMixture.from_weights(Fraction(1, 2), weights["q0"], weights["q1"])
    weights[field] = [((0, count), 1)]
    with pytest.raises(ValueError, match=f"'{field}'.*non-integer"):
        ClassMixture.from_weights(Fraction(1, 2), weights["q0"], weights["q1"])


def test_directly_built_mixture_refuses_non_integer_counts():
    # Built without from_weights, the 0.5 count used to reach math.perm as a TypeError.
    with pytest.raises(DomainError, match="'q0'.*non-integer"):
        model = ClassMixture(Fraction(1), (((0.5, 0), Fraction(1)),), (((0, 0), Fraction(1)),))
        estimate(G5, 1, model, 100, 0)


@pytest.mark.parametrize("beta", [2, Fraction(-1, 3), "3/2", 1.0000001])
@pytest.mark.parametrize("build", [ClassMixture, ClassMixture.from_weights], ids=["direct", "from_weights"])
def test_mixture_refuses_beta_outside_the_unit_interval_at_construction(build, beta):
    with pytest.raises(DomainError) as info:
        build(beta, {(0, 0): 1}, {(0, 0): 1})
    assert str(info.value) == "beta must be in [0, 1]"


@pytest.mark.parametrize("q0, q1, k", [({(4, 0): 1}, {(0, 0): 1}, 1), ({(0, 0): 1}, {(2, 1): 1}, 1),
                                        ({(0, 0): 1}, {(0, 5): 1}, 2)], ids=["q0", "q1", "q1-k2"])
def test_copy_budget_is_one_refusal_for_formulas_and_trials(q0, q1, k):
    # A mixture is checked without k when it is built; the budget at k is
    # the same check, with the same message, in t_functionals and in a run.
    model = ClassMixture(Fraction(1, 2), q0, q1)
    with pytest.raises(DomainError, match="copy budget") as formula:
        t_functionals(model.beta, model.q0, model.q1, k)
    with pytest.raises(DomainError, match="copy budget") as trials:
        estimate(G5, k, model, 10, 0)
    assert str(formula.value) == str(trials.value)


# Every public entry that takes k or a trial count, with the argument in
# question as its only free one.
_HALF = Fraction(1, 2)
_K_ANALYTICS = {
    "ClassCounts": lambda k: ClassCounts(0, 0, 0, k),
    "t_functionals": lambda k: t_functionals(_HALF, {(0, 0): 1}, {(0, 0): 1}, k),
    "theorem1_bound": lambda k: theorem1_bound(_HALF, k),
    "theorem1_verdict": lambda k: theorem1_verdict(_HALF, _HALF, _HALF, k),
    "trace_bound": lambda k: trace_bound(_HALF, k),
    "lemma_check": lambda k: lemma_check(_HALF, {(0, 0): 1}, {(0, 0): 1}, k, _HALF),
}
_K_RUNS = {
    "estimate": lambda k: estimate(G5, k, Honest(), 3, 0),
    "run_trials": lambda k: next(run_trials(G5, k, Honest(), 3, 0)),
    "transcript_lines": lambda k: transcript_lines(G5, k, Honest(), 3, 0),
    "run_protocol": lambda k: run_protocol(G5, k, Honest(), 0),
}
_TRIALS = {
    "estimate": lambda trials: estimate(G5, 1, Honest(), trials, 0),
    "run_trials": lambda trials: next(run_trials(G5, 1, Honest(), trials, 0)),
    "transcript_lines": lambda trials: transcript_lines(G5, 1, Honest(), trials, 0),
}


@pytest.mark.parametrize("entries, value", [
    *((_K_ANALYTICS | _K_RUNS, k) for k in (2.0, True, "2", None, 0)),
    # An int of at least 1 is a k to the formulas; a run refuses it past MAX_COPIES.
    (_K_RUNS, 10**5000),
    *((_TRIALS, trials) for trials in (True, 2.5, "3", 0)),
], ids=["k-float", "k-bool", "k-str", "k-none", "k-0", "k-huge", "trials-bool", "trials-float", "trials-str",
        "trials-0"])
def test_k_and_trials_are_refused_alike_by_every_entry(entries, value):
    # These used to escape as TypeError, run True as 1 and 2.5 as a count,
    # or give each function its own message for the same value.
    messages = {}
    for name, call in entries.items():
        with pytest.raises(DomainError) as info:
            call(value)
        messages[name] = str(info.value)
    assert len(set(messages.values())) == 1, messages
    message = messages.popitem()[1]
    assert "\n" not in message and len(f"error: {message}") < 200, message


def test_mixture_tables_hold_counts_not_records():
    # 50 atoms per branch of 60000 bad copies each at the copy cap: a table
    # of per-atom record tuples would hold about 0.5 MB per atom.
    k = (MAX_COPIES - 1) // 2
    q0 = [((a, 60000 - a), Fraction(1, 50)) for a in range(50)]
    q1 = [((60000 - b, b), Fraction(1, 50)) for b in range(50)]
    model = ClassMixture(Fraction(1, 2), q0, q1)
    g = path_graph(3)
    tracemalloc.start()
    try:
        plan = _Plan(g, k, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak
    assert len(plan.draw(random.Random(0))) == 2 * k + 1


_DIRECT_Q0 = {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4), (2, 1): Fraction(1, 4)}


@pytest.mark.parametrize(
    "q0, q1",
    [
        (_DIRECT_Q0, {(0, 0): 1}),
        ({ab: str(w) for ab, w in _DIRECT_Q0.items()}, {(0, 0): "1/2", (1, 0): "1/2"}),
    ],
    ids=["dict", "strings"],
)
def test_directly_built_mixture_runs_like_from_weights(q0, q1):
    # The atoms are already in (a, b) order, so from_weights keeps them as given.
    # A dict used to crash the draw on unpacking, and "1/2" on float().
    direct = ClassMixture(Fraction(1, 2), q0, q1)
    built = ClassMixture.from_weights(Fraction(1, 2), q0, q1)
    for k in (1, 2):
        assert estimate(G5, k, direct, 400, 8).counts == estimate(G5, k, built, 400, 8).counts


@pytest.mark.parametrize(
    "q0", [{(0, 0): Fraction(1, 2)}, {(0, 0): Fraction(3, 2), (1, 0): Fraction(-1, 2)}],
    ids=["sum-1/2", "negative"],
)
@pytest.mark.parametrize("field", ["q0", "q1"])
def test_from_weights_refuses_bad_weights_at_construction(field, q0):
    weights = {"q0": {(0, 0): 1}, "q1": {(0, 0): 1}}
    weights[field] = q0
    with pytest.raises(DomainError, match=field):
        ClassMixture.from_weights(Fraction(1, 2), weights["q0"], weights["q1"])


def _reference_pick(totals, x):
    """The scan both weighted-atom draws used: the first atom whose running
    total exceeds x, else the last atom."""
    for i, total in enumerate(totals):
        if x < total:
            return i
    return len(totals) - 1


_WEIGHTS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1 / 3])),
    min_size=1, max_size=8,
)


@given(weights=_WEIGHTS, x=st.floats(0.0, 1.0, exclude_max=True))
@example(weights=[0.0, 0.5, 0.0, 0.5], x=0.5)
@example(weights=[0.3, 0.3, 0.3999999999], x=0.99999999995)
@example(weights=[0.0], x=0.0)
@settings(max_examples=200, deadline=None)
def test_pick_matches_the_reference_scan(weights, x):
    totals = _running_totals(weights)
    reference, total = [], 0.0
    for w in weights:
        total += w
        reference.append(total)
    assert totals == reference
    # x itself, x exactly at each total, and x at or above the last total.
    for y in [x, *totals, math.nextafter(totals[-1], 2.0), 1.0]:
        assert _pick(totals, y) == _reference_pick(totals, y), (totals, y)


def test_iid_validation():
    with pytest.raises(ValueError):
        estimate(G5, 1, IidPauli(-0.1, 0.2), 10, 0)
    with pytest.raises(ValueError):
        estimate(G5, 1, IidPauli(0.1, 1.2), 10, 0)


def test_iid_zero_rate_is_honest():
    res = estimate(G5, 2, IidPauli(0.0, 0.0), 500, 1)
    assert res.pass_rate == 1
    assert res.conditional_fidelity == 1


def test_explicit_model_deterministic_attacks():
    g = G5
    clean = _clean(g)
    bad = BlockPauli(
        BitVector.zero(g.n_b), BitVector.zero(g.n_w),
        BitVector.unit(g.n_b, 0), BitVector.zero(g.n_w),
    )
    # copy 0 always bad with class (1,0), others always clean
    copies = tuple([((1.0, bad),)] + [((1.0, clean),)] * 4)
    model = Explicit(tuple(tuple(c) for c in copies))
    res = estimate(g, 2, model, 4000, 3)
    # bad copy survives iff it avoids group 1: probability (k+1)/(2k+1) = 3/5
    assert abs(float(res.pass_rate) - 0.6) < 0.03


def test_explicit_needs_correct_copy_count():
    clean = _clean(G5)
    with pytest.raises(ValueError):
        estimate(G5, 2, Explicit(((( 1.0, clean),),) * 4), 10, 0)


def test_explicit_attack_sized_for_another_graph_is_rejected():
    foreign = _clean(grid_graph(3, 3))
    model = Explicit((((1.0, foreign),),) * 5)
    with pytest.raises(ValueError, match="do not fit graph"):
        estimate(G5, 2, model, 10, 0)
    with pytest.raises(ValueError, match="do not fit graph"):
        run_protocol(G5, 2, model, 0)


def test_unknown_adversary_model_is_rejected():
    with pytest.raises(ValueError, match="unknown adversary model"):
        estimate(G5, 2, "honest", 10, 0)


def test_explicit_rejects_unnormalized():
    clean = _clean(G5)
    copies = tuple((((0.5, clean),),) * 5)
    with pytest.raises(ValueError):
        estimate(G5, 2, Explicit(copies), 10, 0)


def test_explicit_rejects_nan_probability():
    # NaN fails every comparison, so "prob < 0" and the normalization check
    # both let it through, and the model would run as always clean.
    clean = _clean(G5)
    bad = BlockPauli(BitVector.zero(G5.n_b), BitVector.zero(G5.n_w),
                     BitVector.unit(G5.n_b, 0), BitVector.zero(G5.n_w))
    model = Explicit((((math.nan, bad), (1.0, clean)),) + (((1.0, clean),),) * 4)
    with pytest.raises(ValueError, match="finite real number"):
        estimate(G5, 2, model, 10, 0)
    with pytest.raises(ValueError, match="finite real number"):
        run_protocol(G5, 2, model, 0)


@pytest.mark.parametrize("prob", [Decimal("NaN"), Decimal("sNaN"), "0.5", None, 1 + 0j, -0.5, "x" * 5000],
                         ids=["decimal-nan", "decimal-snan", "text", "none", "complex", "negative", "long-text"])
def test_explicit_probabilities_end_in_one_short_value_error(prob):
    # Each probability is read exactly before any comparison, so a Decimal
    # NaN, text or a value that is not a number no longer escapes as
    # decimal.InvalidOperation or TypeError.
    g = path_graph(3)
    clean = _clean(g)
    model = Explicit((((prob, clean), (1.0, clean)),) + (((1.0, clean),),) * 2)
    with pytest.raises(ValueError) as info:
        estimate(g, 1, model, 5, 0)
    assert "\n" not in str(info.value)
    assert len(f"error: {info.value}") < 200


def test_explicit_exact_probabilities_draw_as_their_floats():
    # The running totals are float(Fraction(prob)), which is float(prob) for
    # a float, Fraction or Decimal, so the draws do not depend on the type.
    clean = _clean(G5)
    bad = BlockPauli(BitVector.zero(G5.n_b), BitVector.zero(G5.n_w),
                     BitVector.unit(G5.n_b, 0), BitVector.zero(G5.n_w))

    def model(p, q):
        return Explicit((((p, bad), (q, clean)),) * 5)

    expected = estimate(G5, 2, model(0.3, 0.7), 300, 4)
    for p, q in ((Fraction(0.3), Fraction(0.7)), (Decimal(0.3), Decimal(0.7))):
        assert estimate(G5, 2, model(p, q), 300, 4) == expected
    assert estimate(G5, 2, model("1/2", "0.5"), 300, 4) == estimate(G5, 2, model(0.5, 0.5), 300, 4)


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        run_protocol(G5, 0, Honest(), 1)
    with pytest.raises(ValueError):
        estimate(G5, 2, Honest(), 0, 1)


def test_unrealizable_class_on_degenerate_graph():
    g = path_graph(1)  # no white vertices
    with pytest.raises(ValueError):
        run_protocol(g, 1, SingleBadCopy(BlockClass(0, 1)), 0)


def test_transcript_json_schema():
    tr = run_protocol(G5, 1, SingleBadCopy(BlockClass(1, 1)), 42)
    doc = json.loads(transcript_to_json(tr, 9))
    assert set(doc) == {"trial", "seed", "partition", "classes", "accepted", "third_fidelity"}
    assert doc["trial"] == 9
    assert doc["partition"] == list(tr.partition)
    assert doc["classes"] == [[c.s, c.t] for c in tr.classes]


def _schema_line(tr, trial):
    """The persisted schema through json.dumps: the reference the formatter must match."""
    return json.dumps(
        {
            "trial": trial,
            "seed": tr.seed,
            "partition": list(tr.partition),
            "classes": [[c.s, c.t] for c in tr.classes],
            "accepted": tr.accepted,
            "third_fidelity": tr.third_fidelity,
        }
    )


def _explicit(g, k):
    """Per copy: clean, an X flip on a B vertex, or Z flips on both sides."""
    clean = _clean(g)
    z_both = BlockPauli(BitVector.zero(g.n_b), BitVector.zero(g.n_w),
                        BitVector.unit(g.n_b, 0), BitVector.unit(g.n_w, 0))
    copies = []
    for j in range(2 * k + 1):
        x_b = BlockPauli(BitVector.unit(g.n_b, j % g.n_b), BitVector.zero(g.n_w),
                         BitVector.zero(g.n_b), BitVector.zero(g.n_w))
        copies.append(((0.5, clean), (0.25, x_b), (0.25, z_both)))
    return Explicit(tuple(copies))


_LINE_MODELS = {
    "honest": Honest(),
    "single-bad:1,0": SingleBadCopy(BlockClass(1, 0)),
    "single-bad:0,1": SingleBadCopy(BlockClass(0, 1)),
    "single-bad:1,1": SingleBadCopy(BlockClass(1, 1)),
    "iid:0,0": IidPauli(0.0, 0.0),
    "iid:1,1": IidPauli(1.0, 1.0),
    "iid:0.3,0.1": IidPauli(0.3, 0.1),
    "mixture": _mixture(Fraction(1, 2), {(0, 0): Fraction(3, 4), (2, 1): Fraction(1, 4)}, {(1, 0): 1}),
    "explicit": None,  # sized per graph by _explicit
}


@pytest.mark.parametrize("graph", ["path:5", "grid:3x3", "rhg:2x2x2"])
@pytest.mark.parametrize("kind", sorted(_LINE_MODELS))
def test_transcript_lines_match_transcripts(graph, kind):
    g = parse_graph(graph)
    k = 2
    model = _explicit(g, k) if kind == "explicit" else _LINE_MODELS[kind]
    transcripts = list(run_trials(g, k, model, 60, 17))
    produced = list(transcript_lines(g, k, model, 60, 17))
    lines = [line for line, _, _ in produced]
    assert lines == [transcript_to_json(t, i) for i, t in enumerate(transcripts)]
    assert lines == [_schema_line(t, i) for i, t in enumerate(transcripts)]
    assert [(ok, third) for _, ok, third in produced] == [(t.accepted, t.third_fidelity) for t in transcripts]


def test_transcript_lines_need_a_trial():
    # Refused when called, before the first line or transcript is asked for.
    for entry in (transcript_lines, run_trials):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials"):
                entry(G5, 2, Honest(), trials, 0)


def test_single_bad_rates_near_closed_form():
    # P(accept) = 1/(2k+1) for class (1,1); k=2 gives 0.2
    res = estimate(G5, 2, SingleBadCopy(BlockClass(1, 1)), 20000, 11)
    assert abs(float(res.pass_rate) - 0.2) < 0.01
    assert res.conditional_fidelity == 0


def _reference_iid_draw(g, k, p_x, p_z, rng):
    """The per-qubit sampler: one rng.random() per qubit, u_b, u_w, v_b, v_w."""
    copies = []
    for _ in range(2 * k + 1):
        masks = []
        for n, p in ((g.n_b, p_x), (g.n_w, p_x), (g.n_b, p_z), (g.n_w, p_z)):
            bits = 0
            for i in range(n):
                if rng.random() < p:
                    bits |= 1 << i
            masks.append(bits)
        copies.append(tuple(masks))
    return copies


def _assert_bulk_draw_matches_reference(g, k, p_x, p_z, seed):
    ref_rng = random.Random(seed)
    expected = _reference_iid_draw(g, k, p_x, p_z, ref_rng)
    rng = random.Random(seed)
    records = _Plan(g, k, IidPauli(p_x, p_z)).draw(rng)
    assert [masks for _, _, masks, _ in records] == expected
    assert rng.getstate() == ref_rng.getstate()


_PROBS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(
        [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 2.0**-53, 2.0**-54, 0.5,
         math.nextafter(1.0, 0.0), math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)]
    ),
)


@st.composite
def _bipartite_graph(draw):
    n_b = draw(st.integers(0, 6))
    n_w = draw(st.integers(0, 6))
    rows = tuple(draw(st.integers(0, (1 << n_w) - 1)) for _ in range(n_b))
    return BipartiteGraphState(n_b, n_w, BitMatrix(n_b, n_w, rows))


@pytest.mark.parametrize("g", [path_graph(1), rhg_lattice(2, 2, 2)], ids=["path:1", "rhg:2x2x2"])
@given(p_x=_PROBS, p_z=_PROBS, seed=st.integers(0, 2**64 - 1))
@example(p_x=0.0, p_z=1.0, seed=0)
@example(p_x=5e-324, p_z=math.nextafter(1.0, 0.0), seed=1)
# IidPauli also takes int and Fraction p; ceil(p * 2**53) must stay exact for them.
@example(p_x=Fraction(1, 3), p_z=Fraction(1, 256), seed=2)
@example(p_x=Fraction(1, 256), p_z=Fraction(1, 3), seed=3)
@example(p_x=0, p_z=1, seed=4)
@example(p_x=1, p_z=0, seed=5)
@settings(max_examples=60, deadline=None)
def test_bulk_iid_draw_matches_per_qubit_loop(g, p_x, p_z, seed):
    _assert_bulk_draw_matches_reference(g, 1, p_x, p_z, seed)


@given(g=_bipartite_graph(), k=st.integers(1, 3), p_x=_PROBS, p_z=_PROBS,
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_bulk_iid_draw_matches_per_qubit_loop_on_random_graphs(g, k, p_x, p_z, seed):
    _assert_bulk_draw_matches_reference(g, k, p_x, p_z, seed)


def test_lane_threshold_is_exact_for_decimal_p():
    # p * 2**53 in Decimal rounds to 28 digits, which gives 2**52 here.
    p = Decimal("0.5000000000000000000000000000001")
    assert _lane_table(p)[0] == 2**52 + 1
    assert _lane_table(Fraction(1, 3))[0] == math.ceil(Fraction(2**53, 3))
    for seed in range(3):
        _assert_bulk_draw_matches_reference(rhg_lattice(2, 2, 2), 1, p, p, seed)


def test_decimal_flip_probability_gets_the_digit_cap():
    # Read as text is, a Decimal past the cap is refused before any trial.
    for p_x, p_z in ((Decimal(f"1e-{MAX_DIGITS + 1}"), 0), (0, Decimal(f"1e-{MAX_DIGITS + 1}"))):
        with pytest.raises(DomainError, match=f"flip probability needs more than {MAX_DIGITS} digits"):
            estimate(path_graph(3), 1, IidPauli(p_x, p_z), 1, 0)


@pytest.mark.parametrize("p", [Decimal("NaN"), Decimal("sNaN"), "one half", "3/2"])
def test_flip_probability_is_read_exactly_before_its_range_check(p):
    # A Decimal NaN cannot be compared with 0 and text cannot be compared
    # at all, so p is read exactly first; each is refused in one line.
    for p_x, p_z in ((p, 0), (0, p)):
        with pytest.raises(ValueError) as info:
            estimate(path_graph(3), 1, IidPauli(p_x, p_z), 1, 0)
        lines = traceback.format_exception_only(info.type, info.value)
        assert len(lines) == 1 and len(lines[0]) < 200


def test_text_flip_probability_is_read_as_its_value():
    for p, q in (("1/2", 0.5), ("0.25", 0.25), (Decimal("0.75"), 0.75)):
        lines = [list(transcript_lines(G5, 2, model, 20, 3)) for model in (IidPauli(p, p), IidPauli(q, q))]
        assert lines[0] == lines[1]


@pytest.mark.parametrize("seed", range(20))
def test_bulk_iid_draw_is_exact_at_the_drawn_value(seed):
    # p equal to the value random() is about to return is the tightest case:
    # the first qubit must stay unflipped at p = v and flip just above it.
    v = random.Random(seed).random()
    for p in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)):
        _assert_bulk_draw_matches_reference(G5, 1, p, p, seed)
    _, _, (u_b, _, _, _), _ = _Plan(G5, 1, IidPauli(math.nextafter(v, 1.0), 0.0)).draw(random.Random(seed))[0]
    assert u_b & 1
    _, _, (u_b, _, _, _), _ = _Plan(G5, 1, IidPauli(v, 0.0)).draw(random.Random(seed))[0]
    assert not u_b & 1
    # The same at every lane of the first copy, where a lane's top byte ties
    # and the exact compare decides: p on the lane's half is the value its
    # random() call returns or one ulp either side, and the other half gets
    # 1 - p, so a threshold taken from the wrong half shows.
    for g in (G5, rhg_lattice(2, 2, 2)):
        half = g.n_b + g.n_w
        rng = random.Random(seed)
        for lane in range(2 * half):
            v = rng.random()
            for p in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)):
                p_x, p_z = (p, 1.0 - p) if lane < half else (1.0 - p, p)
                _assert_bulk_draw_matches_reference(g, 1, p_x, p_z, seed)


@given(g=_bipartite_graph(), k=st.integers(1, 2), p_x=_PROBS, p_z=_PROBS,
       seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_iid_estimate_matches_full_runs_on_random_graphs(g, k, p_x, p_z, seed):
    model = IidPauli(p_x, p_z)
    est = estimate(g, k, model, 5, seed)
    runs = [tr for tr in run_trials(g, k, model, 5, seed) if tr.accepted]
    assert est.counts["accepted"] == len(runs)
    assert est.counts["accepted_clean"] == sum(tr.third_fidelity for tr in runs)


@pytest.mark.parametrize("graph", ["path:5", "rhg:2x2x2"])
@pytest.mark.parametrize("p_x, p_z", [(0.3, 0.1), (0.5, 0.5), (0.02, 0.01)])
def test_lazy_iid_records_are_the_eager_records(graph, p_x, p_z):
    # An IID draw takes every copy's words at once and decodes a copy when it
    # is first read: before any read, the generator is where the per-qubit
    # loop leaves it, and the records do not depend on the order they are
    # read in. p = 0.5 ties about one lane in 256, so the exact compare runs.
    # Each record's syndromes are pauli.syndrome_masks of its masks.
    g = parse_graph(graph)
    k = 3
    plan = _Plan(g, k, IidPauli(p_x, p_z))
    for seed in range(5):
        ref_rng = random.Random(seed)
        _reference_iid_draw(g, k, p_x, p_z, ref_rng)
        rng = random.Random(seed)
        records = plan.draw(rng)
        assert rng.getstate() == ref_rng.getstate()
        assert len(records) == 2 * k + 1
        backwards = [records[j] for j in reversed(range(len(records)))]
        assert list(records) == backwards[::-1] == list(plan.draw(random.Random(seed)))
        for sigma1, sigma2, masks, _ in records:
            assert (sigma1, sigma2) == syndrome_masks(g, *masks)


def _lane_rate(p):
    """The exact probability that random() < p: random() is uniform over the
    multiples of 2**-53 in [0, 1), so it is ceil(p * 2**53) / 2**53."""
    return Fraction(math.ceil(Fraction(p) * 2**53), 2**53)


def _iid_class_rates(g, p_x, p_z):
    """r[s, t], the probability that one IID copy has class (s, t), summed by
    brute force over all four masks u_b, u_w, v_b, v_w, with syndromes from
    mat_vec."""
    px, pz = _lane_rate(p_x), _lane_rate(p_z)
    n_b, n_w = g.n_b, g.n_w
    rates = dict.fromkeys(((s, t) for s in (0, 1) for t in (0, 1)), Fraction(0))
    for u_b in range(1 << n_b):
        for u_w in range(1 << n_w):
            for v_b in range(1 << n_b):
                for v_w in range(1 << n_w):
                    x_flips = u_b.bit_count() + u_w.bit_count()
                    z_flips = v_b.bit_count() + v_w.bit_count()
                    weight = (px**x_flips * (1 - px) ** (n_b + n_w - x_flips)
                              * pz**z_flips * (1 - pz) ** (n_b + n_w - z_flips))
                    sigma1 = v_b ^ mat_vec(g.adjacency, BitVector(n_w, u_w)).bits
                    sigma2 = v_w ^ mat_vec(g.adjacency.transpose(), BitVector(n_b, u_b)).bits
                    rates[bool(sigma1), bool(sigma2)] += weight
    assert sum(rates.values()) == 1
    return rates


@pytest.mark.parametrize("graph", ["path:5", "grid:2x2"])
def test_iid_estimate_agrees_with_the_exact_class_rates(graph):
    # IID copies are independent and identical, so with r[s, t] one copy's
    # class rates, a trial passes with (r00 + r01)^k * (r00 + r10)^k, and
    # the kept copy of a passing trial is clean with r00, for every k.
    # estimate, which reads the kept copy only when the trial passes, must
    # land within 3 standard errors of both at fixed seeds.
    g = parse_graph(graph)
    p_x, p_z = 0.05, 0.1
    r = _iid_class_rates(g, p_x, p_z)
    trials = 10000
    for k in (1, 2, 3):
        pass_rate = (r[0, 0] + r[0, 1]) ** k * (r[0, 0] + r[1, 0]) ** k
        est = estimate(g, k, IidPauli(p_x, p_z), trials, k)
        accepted = est.counts["accepted"]
        for got, exact, n in ((est.pass_rate, pass_rate, trials),
                              (est.conditional_fidelity, r[0, 0], accepted)):
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(got - exact) <= 3 * se, (k, float(got), float(exact), se)


def test_iid_draws_past_the_joint_cap_are_refused_before_any_trial():
    # A trial holds every copy's drawn words, 16 bytes a qubit, from the
    # draw on, so (2k+1) * (n_b + n_w) is capped at 2**23: 127 copies of
    # 65536 qubits fit and 129 do not. Only the plan is built.
    g = parse_graph("edgeless:65536")
    _Plan(g, 63, IidPauli(0.01, 0.01))
    with pytest.raises(ValueError) as info:
        _Plan(g, 64, IidPauli(0.01, 0.01))
    lines = traceback.format_exception_only(info.type, info.value)
    assert len(lines) == 1 and len(lines[0]) < 200
    assert "129 copies" in lines[0] and "65536 qubits" in lines[0]


def test_estimate_holds_one_round_of_iid_words():
    # On edgeless:4096 the first group-1 copy fails in every trial, so a
    # round leaves 20 of its 21 words undecoded. estimate lets go of them
    # before it draws the next round: its peak stays under one and a half
    # rounds of words, where holding two rounds would take two.
    g = parse_graph("edgeless:4096")
    k = 10
    round_bytes = (2 * k + 1) * 4096 * 16
    tracemalloc.start()
    try:
        est = estimate(g, k, IidPauli(0.01, 0.01), 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.counts["accepted"] == 0
    assert peak < 1.5 * round_bytes, (peak, round_bytes)


# The kernel's getrandbits loops against the random.Random methods they stand
# for: the same result and the same generator state afterwards. n covers
# every small size, two larger ones and the largest copy count a run accepts;
# m is 0 (no draw), 1 (the draws of randrange), 5 (the largest m of the
# 21-entry set size), 6 (the first m whose set size grows, to 85), n // 2 and
# n. Pool branch: n <= 21, or m > 5 with n within the grown set size; set
# branch: n > 21 with m <= 5, or n = 101, 1001 and MAX_COPIES - 1 with m = 6.
_STREAM_SIZES = [*range(1, 71), 101, 1001, MAX_COPIES - 1]


@pytest.mark.parametrize("n", _STREAM_SIZES)
def test_shuffle_draws_the_stream_of_random_shuffle(n):
    for seed in range(4):
        ref = random.Random(seed)
        expected = list(range(n))
        ref.shuffle(expected)
        rng = random.Random(seed)
        order = list(range(n))
        _shuffle(rng.getrandbits, order, _shuffle_steps(n))
        assert order == expected
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", _STREAM_SIZES)
def test_sample_draws_the_stream_of_random_sample(n):
    for m in sorted({0, 1, 5, 6, n // 2, n} & set(range(n + 1))):
        for seed in range(4):
            ref = random.Random(seed)
            expected = ref.sample(range(n), m)
            rng = random.Random(seed)
            assert _sample(rng.getrandbits, n, m) == expected, (n, m, seed)
            assert rng.getstate() == ref.getstate(), (n, m, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_sample_draws_the_stream_of_random_sample_at_every_small_size(seed):
    # Every (n, m) up to 300 and 40, so the set size's growth with m is
    # pinned: each m > 5 moves the pool/set boundary, and a wrong formula
    # first shows at n in the 80s.
    for n in range(301):
        for m in range(min(n, 40) + 1):
            ref = random.Random(seed)
            expected = ref.sample(range(n), m)
            rng = random.Random(seed)
            assert _sample(rng.getrandbits, n, m) == expected, (n, m)
            assert rng.getstate() == ref.getstate(), (n, m)


@pytest.mark.parametrize("n", _STREAM_SIZES)
def test_one_sample_draws_the_stream_of_randrange(n):
    for seed in range(4):
        ref = random.Random(seed)
        rng = random.Random(seed)
        assert _sample(rng.getrandbits, n, 1) == [ref.randrange(n)]
        assert rng.getstate() == ref.getstate()


def _class_record(s, t):
    return s, t, (0, 0, s, t), f"[{s}, {t}]"


@pytest.mark.parametrize("k", [2, 10, 11, 50])
def test_trial_draws_match_the_random_methods(k):
    # The loops above in the trial kernel: a single bad copy is placed by
    # randrange(n), a mixture's bad copies by sample(range(n), m), and the
    # order is shuffled after the draw.
    n = 2 * k + 1
    single = _Plan(G5, k, SingleBadCopy(BlockClass(1, 1)))
    mixture = _Plan(G5, k, _mixture("1/2", {(0, 0): "1/4", (3, 2): "3/4"}, {(1, 2): 1}))
    for seed in range(20):
        ref = random.Random(seed)
        expected = [_class_record(0, 0)] * n
        expected[ref.randrange(n)] = _class_record(1, 1)
        order = list(range(n))
        ref.shuffle(order)
        rng = random.Random(seed)
        records, got_order, _ = _trial(single, rng)
        assert (list(records), got_order, rng.getstate()) == (expected, order, ref.getstate())

        ref = random.Random(seed)
        c = 0 if ref.random() < 0.5 else 1
        x = ref.random()
        a, b = (1, 2) if c else (0, 0) if x < 0.25 else (3, 2)
        chosen = ref.sample(range(n), a + b + c)
        expected = [_class_record(0, 0)] * n
        for positions, s, t in ((chosen[:a], 1, 0), (chosen[a : a + b], 0, 1), (chosen[a + b :], 1, 1)):
            for pos in positions:
                expected[pos] = _class_record(s, t)
        order = list(range(n))
        ref.shuffle(order)
        rng = random.Random(seed)
        records, got_order, _ = _trial(mixture, rng)
        assert (list(records), got_order, rng.getstate()) == (expected, order, ref.getstate())


@pytest.mark.parametrize("graph", ["path:5", "rhg:2x2x2"])
def test_every_record_carries_the_fragment_of_its_syndromes(graph):
    # The class of a copy is decided once, when its record is made; the
    # fragment it carries is what the transcript writes, so it must be the
    # class its syndromes give. IID at p = 1/2 ties about one lane in 256,
    # so the exact compare runs too.
    g = parse_graph(graph)
    k = 11
    models = [
        Honest(),
        *(SingleBadCopy(BlockClass(s, t)) for s, t in ((1, 0), (0, 1), (1, 1))),
        _LINE_MODELS["mixture"],
        IidPauli(0.5, 0.5),
        IidPauli(0.02, 0.01),
        _explicit(g, k),
    ]
    seen = set()
    for model in models:
        plan = _Plan(g, k, model)
        rng = random.Random(7)
        for _ in range(30):
            for sigma1, sigma2, _, fragment in plan.draw(rng):
                assert fragment == _CLASS_JSON[bool(sigma1), bool(sigma2)]
                seen.add(fragment)
    assert seen == set(_CLASS_JSON.values())


_RESEED_MODELS = {
    "honest": Honest(),
    "single-bad": SingleBadCopy(BlockClass(1, 1)),
    "iid": IidPauli(0.3, 0.1),
    "mixture": _LINE_MODELS["mixture"],
    "explicit": None,  # sized per graph by _explicit
}


@pytest.mark.parametrize("graph", ["path:5", "grid:3x3", "rhg:2x2x2"])
@pytest.mark.parametrize("kind", sorted(_RESEED_MODELS))
@pytest.mark.parametrize("k", [1, 2, 11])
def test_trial_loop_reseeds_to_the_state_of_a_fresh_generator(graph, kind, k):
    # The loop reseeds one shared generator per trial; every round must be
    # the one a fresh random.Random(trial_seed(m, i)) gives, down to the
    # generator state, read from the paused loop before the next trial
    # reseeds it.
    g = parse_graph(graph)
    model = _explicit(g, k) if kind == "explicit" else _RESEED_MODELS[kind]
    plan = _Plan(g, k, model)
    rounds = _rounds(_plan(g, k, model, 25), range(25), 31)
    for index, (seed, (records, order, accepted)) in enumerate(rounds):
        assert seed == trial_seed(31, index)
        ref_rng = random.Random(seed)
        ref_records, ref_order, ref_accepted = _trial(plan, ref_rng)
        assert (list(records), order, accepted) == (list(ref_records), ref_order, ref_accepted)
        assert rounds.gi_frame.f_locals["rng"].getstate() == ref_rng.getstate()
