import csv
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabtest.analytics import xi
from stabtest.cli import MAX_BOUNDS_K, _fmt_pair, main, parse_adversary, parse_graph
from stabtest.graphs import MAX_QUBITS
from stabtest.protocol import MAX_COPIES, ClassMixture, Honest, IidPauli, SingleBadCopy


def test_parse_graph_builtins():
    assert parse_graph("path:5").n == 5
    assert parse_graph("grid:3x3").n == 9
    assert parse_graph("rhg:1x1x1").n == 18
    assert parse_graph("edgeless:4").n == 4


def test_parse_graph_json_file(tmp_path):
    doc = {"n_b": 2, "n_w": 1, "edges": [[0, 0], [1, 0]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    g = parse_graph(str(path))
    assert (g.n_b, g.n_w) == (2, 1)
    assert g.adjacency.to_lists() == [[1], [1]]


def test_parse_graph_errors():
    with pytest.raises(ValueError):
        parse_graph("path:x")
    with pytest.raises(ValueError):
        parse_graph("grid:3")
    with pytest.raises(ValueError):
        parse_graph("no-such-thing")


def test_parse_adversary_kinds(tmp_path):
    assert parse_adversary("honest") == Honest()
    single = parse_adversary("single-bad:1,0")
    assert isinstance(single, SingleBadCopy) and single.bad_class.s == 1
    iid = parse_adversary("iid:0.1,0.25")
    assert iid == IidPauli(0.1, 0.25)
    mix_doc = {"beta": 0.5, "q0": [[1, 1, 2], [0, 0, 2]], "q1": [[0, 0, 1]]}
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mix_doc))
    mix = parse_adversary(f"mixture:{path}")
    assert isinstance(mix, ClassMixture)
    # weights normalize to halves
    assert dict(mix.q0)[(1, 1)] == dict(mix.q0)[(0, 0)]


def test_parse_adversary_errors():
    for bad in ("single-bad:1", "iid:0.1", "mystery", "mixture:"):
        with pytest.raises(ValueError):
            parse_adversary(bad)


@pytest.mark.parametrize("q0", [3, None, [3], [[1, 0]], [[[1], 0, 1]], [[1, "x", 1]]])
def test_parse_adversary_rejects_malformed_mixture_rows(tmp_path, q0):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({"beta": "0.5", "q0": q0, "q1": [[1, 0, 1]]}))
    with pytest.raises(ValueError, match="q0"):
        parse_adversary(f"mixture:{path}")


def test_simulate_honest_end_to_end(tmp_path, capsys):
    rc = main([
        "simulate", "--graph", "path:5", "--k", "2", "--adversary", "honest",
        "--trials", "200", "--seed", "7", "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass_rate: 1 (1)" in out
    lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
    assert len(lines) == 200
    first = json.loads(lines[0])
    assert first["accepted"] is True and first["third_fidelity"] == 1
    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["pass_rate"] == "1"
    assert rows[0]["adversary"] == "honest"
    assert rows[0]["trials"] == "200"


def test_simulate_reproducible_bytes(tmp_path):
    args = [
        "simulate", "--graph", "grid:3x3", "--k", "1", "--adversary", "iid:0.1,0.1",
        "--trials", "50", "--seed", "3",
    ]
    main(args + ["--outdir", str(tmp_path / "a")])
    main(args + ["--outdir", str(tmp_path / "b")])
    for name in ("transcripts.jsonl", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_respects_alpha_flag(tmp_path, capsys):
    rc = main([
        "simulate", "--graph", "path:3", "--k", "2", "--adversary", "honest",
        "--trials", "50", "--seed", "1", "--alpha", "3/10", "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha: 3/10" in out
    assert "fidelity_bound: 1/3" in out
    assert "bound respected: yes" in out


def test_simulate_malformed_adversary_fails(tmp_path, capsys):
    rc = main([
        "simulate", "--graph", "path:3", "--k", "1", "--adversary", "single-bad:9",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _single_error_line(capsys, field):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert field in lines[0]
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("edges", [[1, 2], None], ids=["bare-numbers", "null"])
def test_simulate_malformed_graph_edges_fail_cleanly(tmp_path, capsys, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n_b": 2, "n_w": 2, "edges": edges}))
    rc = main([
        "simulate", "--graph", str(path), "--k", "1", "--adversary", "honest",
        "--trials", "5", "--outdir", str(tmp_path / "out"),
    ])
    assert rc == 2
    _single_error_line(capsys, "edges")


def test_simulate_malformed_mixture_row_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({"beta": "0.5", "q0": [3], "q1": [[1, 0, 1]]}))
    rc = main([
        "simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}",
        "--trials", "5", "--outdir", str(tmp_path / "out"),
    ])
    assert rc == 2
    _single_error_line(capsys, "q0")


def _run_main(argv):
    """(exit status, stdout, stderr) of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


MIX_OK = {"beta": "1/2", "q0": [[0, 0, 1]], "q1": [[0, 0, 1]]}


@pytest.mark.parametrize(
    "alpha, mixture, field",
    [
        ("1/0", MIX_OK, "--alpha"),
        (None, {**MIX_OK, "beta": "1/0"}, "beta"),
        (None, {**MIX_OK, "q0": [[0, 0, "1/0"]]}, "q0"),
    ],
    ids=["alpha", "beta", "weight"],
)
def test_simulate_zero_denominator_fails_cleanly(tmp_path, alpha, mixture, field):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mixture))
    argv = ["simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}",
            "--trials", "5", "--outdir", str(tmp_path / "out")]
    status, out, err = _run_main(argv + (["--alpha", alpha] if alpha else []))
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and field in lines[0], err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "path_name, doc",
    [
        ("g.json", {"n_b": float("inf"), "n_w": 1, "edges": []}),
        ("g.json", {"n_b": 1, "n_w": 1, "edges": [[float("inf"), 0]]}),
        ("mix.json", {**MIX_OK, "q0": [[float("inf"), 0, 1]]}),
        ("g.json", {"n_b": 10**20, "n_w": 1, "edges": []}),
    ],
    ids=["graph-size", "graph-edge", "mixture-count", "graph-size-huge"],
)
def test_simulate_infinite_counts_fail_cleanly(tmp_path, path_name, doc):
    path = tmp_path / path_name
    path.write_text(json.dumps(doc))
    graph, adversary = (str(path), "honest") if path_name == "g.json" else ("path:5", f"mixture:{path}")
    status, _, err = _run_main(["simulate", "--graph", graph, "--k", "1", "--adversary", adversary,
                                "--trials", "5", "--outdir", str(tmp_path / "out")])
    assert status == 2
    assert len(_error_lines(err)) == 1, err


# Counts past sys.maxsize, graphs past MAX_QUBITS and k past MAX_COPIES, which
# are refused before anything is allocated. rhg:1x4x1638 has exactly
# MAX_QUBITS + 1 faces and edges; k = MAX_COPIES // 2 gives MAX_COPIES + 1 copies.
@pytest.mark.parametrize(
    "argv, field",
    [
        (["reduce", "--graph", f"path:{10**20}"], "path length"),
        (["reduce", "--graph", f"path:{2**63}"], "path length"),
        (["reduce", "--graph", f"edgeless:{10**20}"], "vertex count"),
        (["simulate", "--graph", "path:3", "--k", str(10**20), "--adversary", "honest"], "k="),
        (["simulate", "--graph", "path:3", "--k", str(2**63), "--adversary", "honest"], "k="),
        (["reduce", "--graph", f"path:{MAX_QUBITS + 1}"], "path length"),
        (["reduce", "--graph", f"edgeless:{MAX_QUBITS + 1}"], "vertex count"),
        (["reduce", "--graph", f"grid:{MAX_QUBITS + 1}x1"], "grid w*h"),
        (["reduce", "--graph", "grid:100000x100000"], "grid w*h"),
        (["reduce", "--graph", "rhg:1x4x1638"], "rhg faces + edges"),
        (["simulate", "--graph", f"path:{MAX_QUBITS + 1}", "--k", "1", "--adversary", "honest"],
         "path length"),
        (["simulate", "--graph", "path:1", "--k", str(MAX_COPIES // 2), "--adversary", "honest",
          "--trials", "1"], "k="),
    ],
    ids=["path", "path-2^63", "edgeless", "k", "k-2^63", "path-cap", "edgeless-cap", "grid-cap",
         "grid-100000x100000", "rhg-cap", "simulate-path-cap", "k-cap"],
)
def test_oversized_counts_fail_cleanly(tmp_path, argv, field):
    status, _, err = _run_main(argv + (["--outdir", str(tmp_path)] if argv[0] == "simulate" else []))
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and field in lines[0], err


def test_bounds_cap_is_the_last_k_whose_rows_print():
    # Row (0, k+1, 0) has the largest xi of its k (checked on every row of
    # k = MAX_BOUNDS_K and the next), so the cap is where it stops fitting.
    def extremal(k):
        x = xi(0, k + 1, k)
        return x.numerator, x.denominator

    assert 1e308 < float(_fmt_pair(extremal(MAX_BOUNDS_K))) < sys.float_info.max
    with pytest.raises(OverflowError):
        _fmt_pair(extremal(MAX_BOUNDS_K + 1))


@pytest.mark.parametrize("k_max", [MAX_BOUNDS_K + 1, 2**62])
def test_k_max_past_the_cap_writes_nothing(tmp_path, k_max):
    out_path = tmp_path / "bounds.csv"
    for argv in (["verify-bounds", "--k-max", str(k_max)],
                 ["verify-bounds", "--k-max", str(k_max), "--out", str(out_path)]):
        status, out, err = _run_main(argv)
        assert (status, out) == (2, "")
        lines = _error_lines(err)
        assert len(lines) == 1 and "k-max=" in lines[0], err
    assert os.listdir(tmp_path) == []


def test_k_at_the_copy_cap_is_accepted(tmp_path):
    k = MAX_COPIES // 2 - 1
    status, out, err = _run_main(["simulate", "--graph", "path:1", "--k", str(k), "--adversary", "honest",
                                  "--trials", "1", "--outdir", str(tmp_path)])
    assert (status, err) == (0, "")
    assert f"({MAX_COPIES - 1} copies per trial)" in out


@pytest.mark.parametrize("n_b, n_w", [(MAX_QUBITS + 1, 0), (MAX_QUBITS // 2, MAX_QUBITS // 2 + 1)])
def test_json_graph_past_the_cap_fails_cleanly(tmp_path, n_b, n_w):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n_b": n_b, "n_w": n_w, "edges": []}))
    status, _, err = _run_main(["reduce", "--graph", str(path)])
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and "'n_b' + 'n_w'" in lines[0], err


# Counts and indices must be JSON integers, and graph sizes non-negative: other
# values are refused, not truncated or coerced into a different graph or mixture
# than the file describes, and a huge negative size is not an OverflowError.
@pytest.mark.parametrize(
    "path_name, doc, field",
    [
        ("g.json", {"n_b": 2.7, "n_w": 2, "edges": []}, "'n_b'"),
        ("g.json", {"n_b": 2, "n_w": "2", "edges": []}, "'n_w'"),
        ("g.json", {"n_b": True, "n_w": 2, "edges": []}, "'n_b'"),
        ("g.json", {"n_b": -10**20, "n_w": 2, "edges": []}, "'n_b'"),
        ("g.json", {"n_b": 2, "n_w": 2, "edges": [[0.9, 1]]}, "'edges'"),
        ("g.json", {"n_b": 2, "n_w": 2, "edges": [[0, True]]}, "'edges'"),
        ("mix.json", {**MIX_OK, "q0": [[0.5, 0, 1]]}, "'q0'"),
        ("mix.json", {**MIX_OK, "q1": [[0, True, 1]]}, "'q1'"),
        ("mix.json", {**MIX_OK, "q0": [["1", 0, 1]]}, "'q0'"),
    ],
    ids=["n_b-float", "n_w-string", "n_b-bool", "n_b-negative-huge", "edge-float", "edge-bool",
         "mixture-float", "mixture-bool", "mixture-string"],
)
def test_non_integer_json_counts_are_rejected(tmp_path, path_name, doc, field):
    path = tmp_path / path_name
    path.write_text(json.dumps(doc))
    if path_name == "g.json":
        argv = ["reduce", "--graph", str(path)]
    else:
        argv = ["simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}",
                "--trials", "5", "--outdir", str(tmp_path / "out")]
    status, out, err = _run_main(argv)
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and field in lines[0], err
    assert "Traceback" not in out + err


def test_alpha_outside_unit_interval_is_rejected(tmp_path):
    status, _, err = _run_main(["simulate", "--graph", "path:3", "--k", "1", "--adversary",
                                "honest", "--alpha", "1e400", "--outdir", str(tmp_path)])
    assert status == 2
    assert "--alpha" in _error_lines(err)[0]


def test_failed_simulate_keeps_previous_outputs(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"beta": "1/2", "q0": [[1, 0, 1]], "q1": [[0, 0, 1]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": "1/2", "q0": [[4, 0, 1]], "q1": [[0, 0, 1]]}))
    outdir = tmp_path / "out"

    def simulate(path):
        return main(["simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}",
                     "--trials", "20", "--seed", "1", "--outdir", str(outdir)])

    assert simulate(good) == 0
    names = ("transcripts.jsonl", "summary.csv")
    before = {name: (outdir / name).read_bytes() for name in names}
    assert simulate(bad) == 2
    assert "copy budget" in capsys.readouterr().err
    assert {name: (outdir / name).read_bytes() for name in names} == before
    assert sorted(os.listdir(outdir)) == sorted(names)


# Boundary fuzzing: every input ends in exit 0, or exit 2 with exactly one
# error line; exit 1 (an oracle mismatch or a bound violation) never occurs.
# Sizes stay tiny (n <= 8 qubits, at most 3 trials, oracle k <= 6,
# verify-bounds k-max <= 3), except for graph counts at the size cap: those
# past it are refused before anything is allocated, and those at or just
# under it are built only as edgeless graphs, through parse_graph alone, since
# reduce and IID trials cost time that grows with the graph. Likewise a k at or
# past the copy cap runs one honest trial at most, and a k-max past its cap is
# refused before any row is computed.
_BOUNDARY = (MAX_QUBITS - 1, MAX_QUBITS, MAX_QUBITS + 1, 2**62, sys.maxsize)
_PAST_CAP = st.sampled_from(_BOUNDARY[2:])
_LARGE_SIDES = st.sampled_from(_BOUNDARY)
_VALUES = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([0.5, 1.5, float("inf"), float("nan"), None, True, [], {},
                     "1", "1/2", "1/0", "-1", "x", "0.25", ""]),
)
_GRAPH_DOCS = st.one_of(
    st.fixed_dictionaries({
        "n_b": st.one_of(_VALUES, _PAST_CAP),
        "n_w": st.one_of(_VALUES, _PAST_CAP),
        "edges": st.one_of(_VALUES, st.lists(st.one_of(st.lists(_VALUES, max_size=3), _VALUES),
                                              max_size=4)),
    }),
    _VALUES,
)
_ROWS = st.one_of(_VALUES, st.lists(st.one_of(st.lists(_VALUES, min_size=3, max_size=3),
                                               st.lists(_VALUES, max_size=4), _VALUES),
                                     max_size=3))
_MIXTURE_DOCS = st.one_of(st.fixed_dictionaries({"beta": _VALUES, "q0": _ROWS, "q1": _ROWS}), _VALUES)
_BUILTIN_GRAPHS = st.sampled_from([
    "path:1", "path:5", "path:8", "path:0", "path:x", "grid:2x2", "grid:2x4", "grid:0x3", "grid:3",
    "edgeless:1", "edgeless:8", "edgeless:-2", "rhg:0x1x1", "rhg:x", "moebius:3", "",
])
# Every side drawn from _BOUNDARY puts grid: and rhg: past the cap.
_PAST_CAP_GRAPHS = st.one_of(
    st.builds("path:{}".format, _PAST_CAP),
    st.builds("edgeless:{}".format, _PAST_CAP),
    st.builds("grid:{}x{}".format, _LARGE_SIDES, _LARGE_SIDES),
    st.builds("rhg:{}x{}x{}".format, _LARGE_SIDES, st.one_of(st.just(1), _LARGE_SIDES),
              st.one_of(st.just(1), _LARGE_SIDES)),
)
_FLIP_PROBS = st.sampled_from(["0", "0.3", "1", "-0.1", "1.5", "nan", "inf", "x"])
_ADVERSARIES = st.one_of(
    st.sampled_from(["honest", "honest:1", "mystery", "mixture:", "single-bad:1", "iid:0.1"]),
    st.builds("single-bad:{},{}".format, st.integers(-1, 2), st.integers(-1, 2)),
    st.builds("iid:{},{}".format, _FLIP_PROBS, _FLIP_PROBS),
)
_NUMBERS = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["x", "", "1.5"]))
_LARGE_K = (str(MAX_COPIES // 2 - 1), str(MAX_COPIES // 2), str(2**62))


@given(
    graph=st.one_of(_BUILTIN_GRAPHS, _GRAPH_DOCS, _PAST_CAP_GRAPHS),
    adversary=st.one_of(_ADVERSARIES, _MIXTURE_DOCS),
    k=st.one_of(_NUMBERS, st.sampled_from(_LARGE_K)),
    trials=_NUMBERS,
    alpha=st.one_of(st.none(), st.sampled_from(["3/10", "1/0", "0", "1", "2", "-1", "x", "1e400", "nan"])),
    command=st.sampled_from(["simulate", "reduce", "oracle", "verify-bounds"]),
    profile=st.tuples(st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 6)),
    k_max=st.one_of(st.integers(-1, 3), st.sampled_from([MAX_BOUNDS_K + 1, 2**62])),
    edgeless=st.sampled_from(_BOUNDARY),
)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_boundary_fuzz(graph, adversary, k, trials, alpha, command, profile, k_max, edgeless):
    if k in _LARGE_K:
        adversary, trials = "honest", "1"
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(graph, str):
            with open(os.path.join(tmp, "g.json"), "w") as fh:
                json.dump(graph, fh)
            graph = os.path.join(tmp, "g.json")
        if not isinstance(adversary, str):
            with open(os.path.join(tmp, "mix.json"), "w") as fh:
                json.dump(adversary, fh)
            adversary = "mixture:" + os.path.join(tmp, "mix.json")
        if command == "reduce":
            argv = ["reduce", "--graph", graph]
        elif command == "oracle":
            argv = ["oracle", *map(str, profile)]
        elif command == "verify-bounds":
            argv = ["verify-bounds", "--k-max", str(k_max), "--out", os.path.join(tmp, "bounds.csv")]
        else:
            argv = ["simulate", "--graph", graph, "--k", k, "--adversary", adversary,
                    "--trials", trials, "--seed", "1", "--outdir", os.path.join(tmp, "out")]
            if alpha is not None:
                argv += ["--alpha", alpha]
        status, _, err = _run_main(argv)
    assert status in (0, 2), (argv, status, err)
    if status == 2:
        assert len(_error_lines(err)) == 1, (argv, err)
    if edgeless <= MAX_QUBITS:
        assert parse_graph(f"edgeless:{edgeless}").n == edgeless
    else:
        with pytest.raises(ValueError, match="vertex count is too large"):
            parse_graph(f"edgeless:{edgeless}")


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STABTEST_OUTDIR", str(tmp_path / "envout"))
    rc = main([
        "simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
        "--trials", "10", "--seed", "0",
    ])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "summary.csv").exists()


def test_reduce_prints_worked_example(capsys):
    rc = main(["reduce", "--graph", "path:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n_prime = 1" in out
    assert "X2 = Z1" in out
    assert "X1 + X2 = 0" in out
    assert "X1 = Z1 + Z2" in out
    # C^-1 = [[0,1],[1,1]] shows up row by row
    assert "[0 1]" in out and "[1 1]" in out


def test_reduce_edgeless(capsys):
    rc = main(["reduce", "--graph", "edgeless:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n_prime = 0" in out


def test_verify_bounds_grid(tmp_path):
    out_path = tmp_path / "bounds.csv"
    rc = main(["verify-bounds", "--k-max", "3", "--out", str(out_path)])
    assert rc == 0
    assert os.listdir(tmp_path) == ["bounds.csv"]
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "grid should not be empty"
    assert all(row["bound_ok"] == "true" for row in rows)
    by_key = {(r["k"], r["a"], r["b"], r["c"]): r for r in rows}
    assert float(by_key[("2", "1", "0", "0")]["xi"]) == 0.0
    assert by_key[("2", "0", "0", "0")]["pass"] == "1"
    # c = 1 rows leave xi blank
    assert by_key[("2", "0", "0", "1")]["xi"] == ""


def test_verify_bounds_stdout(capsys):
    rc = main(["verify-bounds", "--k-max", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    header = out.splitlines()[0]
    assert header == "k,a,b,c,pass,joint,conditional,xi,bound_ok"


def test_oracle_command_agreement(capsys):
    rc = main(["oracle", "1", "1", "1", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1/15" in out
    assert "match: yes" in out


def test_oracle_command_domain_error(capsys):
    rc = main(["oracle", "6", "0", "0", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_graph_is_usage_error(capsys):
    rc = main(["reduce", "--graph", "moebius:7"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
