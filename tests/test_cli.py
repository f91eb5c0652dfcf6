import csv
import errno
import fcntl
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import termios
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stabtest.analytics import ClassCounts, bounds_rows, profile, xi
from stabtest import cli
from stabtest.cli import BOUNDS_HEADER, MAX_BOUNDS_K, MAX_DIGITS, _fmt_pair, main, parse_adversary, parse_graph
from stabtest.graphs import MAX_QUBITS, _shown
from stabtest.protocol import MAX_COPIES, ClassMixture, Honest, IidPauli, SingleBadCopy

from test_forked import forked, two_workers  # noqa: F401 (two_workers is a fixture)


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


NOT_APPLICABLE = ["fidelity_bound: not applicable (alpha <= 1/(2k+1))", "bound respected: n/a"]


# The last two report lines of single-bad:1,1 runs on path:3. Pass rates
# 9/25 < 1/2 and 26/125 < 9/10 are below --alpha, where Theorem 1 says
# nothing, so the verdict is n/a and not a violation. Seed 0 with 2 trials
# accepts nothing.
@pytest.mark.parametrize(
    "k, trials, alpha, expected",
    [
        ("1", "50", ["--alpha", "1/2"],
         ["fidelity_bound: 1/3 (0.333333)", "bound respected: n/a (pass rate below alpha)"]),
        ("2", "2000", ["--alpha", "9/10"],
         ["fidelity_bound: 7/9 (0.777778)", "bound respected: n/a (pass rate below alpha)"]),
        ("1", "2", ["--alpha", "1/2"], ["fidelity_bound: 1/3 (0.333333)", "bound respected: n/a (no accepted trials)"]),
        ("1", "2", ["--alpha", "0"], NOT_APPLICABLE),
        ("1", "2", [], NOT_APPLICABLE),
    ],
    ids=["below-alpha-k1", "below-alpha-k2", "none-accepted", "alpha-0", "empirical-alpha-0"],
)
def test_simulate_verdict_lines(tmp_path, k, trials, alpha, expected):
    status, out, _ = _run_main(["simulate", "--graph", "path:3", "--k", k, "--adversary", "single-bad:1,1",
                                "--trials", trials, "--outdir", str(tmp_path), *alpha])
    assert status == 0
    assert out.splitlines()[-3:-1] == expected


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


@pytest.mark.parametrize("command", ["simulate-graph", "reduce-graph", "simulate-mixture"])
def test_deeply_nested_json_fails_cleanly(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    argv = {
        "simulate-graph": ["simulate", "--graph", str(path), "--k", "1", "--adversary", "honest"],
        "reduce-graph": ["reduce", "--graph", str(path)],
        "simulate-mixture": ["simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}"],
    }[command]
    if argv[0] == "simulate":
        argv += ["--trials", "5", "--outdir", str(tmp_path / "out")]
    assert main(argv) == 2
    _single_error_line(capsys, "nests too deeply")


@pytest.mark.parametrize("content, reason", [
    (b"{x", "is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"\xff{}", "is not valid text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["json", "utf-8"])
@pytest.mark.parametrize("what", ["graph", "mixture"])
def test_unreadable_documents_are_named(tmp_path, capsys, what, content, reason):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = ["reduce", "--graph", str(path)] if what == "graph" else [
        "simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    assert _error_lines(capsys.readouterr().err) == [f"error: {what} document {reason}"]


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
        # Numbers of thousands of digits are refused for their size, not echoed:
        # 2k+1 and w*h pass Python's 4300-digit limit on printing an int, and
        # path: its limit on reading one.
        (["simulate", "--graph", "path:3", "--k", "9" * 4300, "--adversary", "honest"], "k="),
        (["simulate", "--graph", "path:3", "--k", "9" * 4000, "--adversary", "honest"], "k="),
        (["reduce", "--graph", f"grid:{'9' * 3000}x{'9' * 3000}"], "grid w*h"),
        (["reduce", "--graph", f"rhg:{'9' * 3000}x{'9' * 3000}x1"], "rhg faces + edges"),
        (["reduce", "--graph", f"path:{'9' * 5000}"], "5000 digits is out of range"),
        (["reduce", "--graph", f"path:{'9' * 4000}"], "path length"),
        # Text of thousands of characters is shown cut, wherever it is echoed:
        # in the package's own messages, in argparse's, and in an OSError's.
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", "x" * 5000], "unknown adversary spec"),
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", f"single-bad:{'1' * 5000},0"],
         "expected single-bad:s,t"),
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest", "--alpha", "1" * 4000],
         "argument --alpha: alpha must lie in [0, 1], got '111"),
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest", "--alpha", "x" * 5000],
         "argument --alpha: alpha must be a fraction p/q or a decimal, got 'xxx"),
        (["reduce", "--graph", "x" * 5000], "File name too long: 'xxx"),
        (["reduce", "--graph", f"path:{'x' * 5000}"], "invalid literal for int() with base 10: 'xxx"),
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", f"mixture:{'y' * 5000}"],
         "File name too long: 'yyy"),
        (["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest", "--outdir", "x" * 5000],
         "File name too long: 'xxx"),
        (["simulate", "--graph", "path:3", "--k", "9" * 5000, "--adversary", "honest"],
         "argument --k: invalid int value: '999"),
    ],
    ids=["path", "path-2^63", "edgeless", "k", "k-2^63", "path-cap", "edgeless-cap", "grid-cap",
         "grid-100000x100000", "rhg-cap", "simulate-path-cap", "k-cap", "k-4300-digits", "k-4000-digits",
         "grid-3000-digit-sides", "rhg-3000-digit-sides", "path-5000-digits", "path-4000-digits",
         "adversary-5000-chars", "single-bad-5000-digits", "alpha-4000-digits", "alpha-5000-chars",
         "graph-5000-chars", "path-5000-chars", "mixture-path-5000-chars", "outdir-5000-chars",
         "k-5000-digits"],
)
def test_oversized_counts_fail_cleanly(tmp_path, argv, field):
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "simulate" and "--outdir" not in argv else []
    status, _, err = _run_main(argv + outdir)
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and field in lines[0], err[:300]
    assert len(lines[0]) < 200, err[:300]


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


# Refusals that need k or the trial count, which a run meets only once it has
# the graph and the model; parse-time refusals are covered above.
@pytest.mark.parametrize(
    "graph, k, adversary, trials, field",
    [
        ("path:3", "0", "honest", "5", "k must be at least 1"),
        ("path:3", "1", "honest", "0", "trials must be at least 1"),
        ("path:1", str(MAX_COPIES // 2), "honest", "1", "k="),
        ("edgeless:65536", "64", "iid:0.01,0.01", "1", "iid draws too large"),
        ("path:5", "1", {**MIX_OK, "q0": [[4, 0, 1]]}, "1", "copy budget"),
    ],
    ids=["k-0", "trials-0", "k-cap", "iid-joint-cap", "mixture-copy-budget"],
)
def test_simulate_refusals_leave_no_outdir(tmp_path, graph, k, adversary, trials, field):
    if not isinstance(adversary, str):
        (tmp_path / "mix.json").write_text(json.dumps(adversary))
        adversary = f"mixture:{tmp_path / 'mix.json'}"
    outdir = tmp_path / "out"
    status, out, err = _run_main(["simulate", "--graph", graph, "--k", k, "--adversary", adversary,
                                  "--trials", trials, "--outdir", str(outdir)])
    assert (status, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0], err[:300]
    assert not outdir.exists()


def test_k_at_the_copy_cap_is_accepted(tmp_path):
    k = MAX_COPIES // 2 - 1
    status, out, err = _run_main(["simulate", "--graph", "path:1", "--k", str(k), "--adversary", "honest",
                                  "--trials", "1", "--outdir", str(tmp_path)])
    assert (status, err) == (0, "")
    assert f"({MAX_COPIES - 1} copies per trial)" in out


def test_iid_draws_past_the_joint_cap_fail_cleanly(tmp_path):
    # 129 copies of edgeless:65536 pass (2k+1) * (n_b + n_w) <= 2**23 by
    # 65536, and are refused before any trial runs.
    status, _, err = _run_main(["simulate", "--graph", "edgeless:65536", "--k", "64",
                                "--adversary", "iid:0.01,0.01", "--trials", "1", "--outdir", str(tmp_path)])
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and len(lines[0]) < 200, err[:300]
    assert "129 copies" in lines[0] and "65536 qubits" in lines[0], err[:300]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n_b, n_w", [(MAX_QUBITS + 1, 0), (MAX_QUBITS // 2, MAX_QUBITS // 2 + 1)])
def test_json_graph_past_the_cap_fails_cleanly(tmp_path, n_b, n_w):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n_b": n_b, "n_w": n_w, "edges": []}))
    status, _, err = _run_main(["reduce", "--graph", str(path)])
    assert status == 2
    lines = _error_lines(err)
    assert len(lines) == 1 and "'n_b' + 'n_w'" in lines[0], err


# JSON integers past Python's 4300-digit limit on reading one, written bare
# (json.dumps cannot format them): a fraction refuses them for its digit cap,
# and a count or a size names its field, each in one short line.
@pytest.mark.parametrize("digits", [4301, 5000])
@pytest.mark.parametrize(
    "field, doc, expected",
    [
        ("beta", '{{"beta": {}, "q0": [[0, 0, 1]], "q1": [[0, 0, 1]]}}',
         f"mixture field 'beta' needs more than {MAX_DIGITS} digits"),
        ("q0-weight", '{{"beta": "1/2", "q0": [[0, 0, {}]], "q1": [[0, 0, 1]]}}',
         f"mixture field 'q0' weight needs more than {MAX_DIGITS} digits"),
        ("q0-count", '{{"beta": "1/2", "q0": [[{}, 0, 1]], "q1": [[0, 0, 1]]}}', "mixture field 'q0'"),
        ("n_b", '{{"n_b": {}, "n_w": 1, "edges": []}}', "graph field 'n_b'"),
    ],
    ids=["beta", "q0-weight", "q0-count", "n_b"],
)
def test_bare_json_integers_past_the_int_limit_name_their_field(tmp_path, field, doc, expected, digits):
    path = tmp_path / "doc.json"
    path.write_text(doc.format("1" * digits))
    graph, adversary = (str(path), "honest") if field == "n_b" else ("path:5", f"mixture:{path}")
    status, out, err = _run_main(["simulate", "--graph", graph, "--k", "1", "--adversary", adversary,
                                  "--trials", "5", "--outdir", str(tmp_path / "out")])
    assert status == 2 and out == ""
    lines = _error_lines(err)
    assert len(lines) == 1 and expected in lines[0] and len(lines[0]) < 200, err[:300]
    assert not (tmp_path / "out").exists()


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


def _simulate_outputs(outdir, trials):
    argv = ["simulate", "--graph", "path:3", "--k", "1", "--adversary", "single-bad:0,1",
            "--trials", trials, "--alpha", "1/2", "--outdir", str(outdir)]
    return _run_main(argv)


def test_failed_report_keeps_previous_outputs(tmp_path, monkeypatch):
    # The report is formatted before either file is moved, so a formatter that
    # raises leaves both old files in place and no temporary file behind.
    outdir = tmp_path / "out"
    assert _simulate_outputs(outdir, "20")[0] == 0
    names = ["summary.csv", "transcripts.jsonl"]
    before = {name: (outdir / name).read_bytes() for name in names}

    def broken(x):
        raise ValueError("formatter failed")

    monkeypatch.setattr(cli, "_fmt_rat", broken)
    status, out, err = _simulate_outputs(outdir, "30")
    assert status == 2 and out == ""
    assert _error_lines(err) == ["error: formatter failed"]
    assert sorted(os.listdir(outdir)) == names
    assert {name: (outdir / name).read_bytes() for name in names} == before


def test_unwritable_output_names_the_requested_path(tmp_path):
    # The temporary file written beside --out is not named: the user never
    # gave it, and its name changes from run to run.
    out_path = tmp_path / "missing" / "b.csv"
    status, out, err = _run_main(["verify-bounds", "--k-max", "1", "--out", str(out_path)])
    assert (status, out) == (2, "")
    lines = _error_lines(err)
    assert len(lines) == 1 and str(out_path) in lines[0] and ".tmp" not in lines[0], err
    assert os.listdir(tmp_path) == []


def test_output_onto_a_directory_names_the_requested_path(tmp_path):
    # The move over an existing directory fails; the line names --out, not
    # the temporary file moved, and nothing is left behind.
    out_path = tmp_path / "b.csv"
    out_path.mkdir()
    status, out, err = _run_main(["verify-bounds", "--k-max", "1", "--out", str(out_path)])
    assert (status, out) == (2, "")
    lines = _error_lines(err)
    assert len(lines) == 1 and lines[0].endswith(f": {str(out_path)!r}") and ".tmp" not in lines[0], err
    assert os.listdir(tmp_path) == ["b.csv"] and os.listdir(out_path) == []


def test_failed_transcript_move_keeps_previous_summary(tmp_path):
    # transcripts.jsonl is moved first, so when that move fails summary.csv
    # is not replaced either.
    outdir = tmp_path / "out"
    assert _simulate_outputs(outdir, "20")[0] == 0
    summary = (outdir / "summary.csv").read_bytes()
    (outdir / "transcripts.jsonl").unlink()
    (outdir / "transcripts.jsonl").mkdir()
    status, out, err = _simulate_outputs(outdir, "30")
    assert status == 2 and out == ""
    assert len(_error_lines(err)) == 1, err
    assert ".tmp" not in err and str(outdir / "transcripts.jsonl") in err, err
    assert (outdir / "summary.csv").read_bytes() == summary
    assert sorted(os.listdir(outdir)) == ["summary.csv", "transcripts.jsonl"]


# The last two pass Python's 4300-digit limit on parsing an int, where
# Fraction itself would refuse them; the digit cap must still be the reason.
TOO_MANY_DIGITS = ["1e-99999999", f"1e-{MAX_DIGITS}", "1/" + "9" * (MAX_DIGITS + 1),
                   "0." + "3" * (MAX_DIGITS + 100), "1" * 4301, "1" * 5000]


@pytest.mark.parametrize("value", TOO_MANY_DIGITS, ids=["huge-exponent", "cap-exponent", "denominator",
                                                         "long-decimal", "int-limit-4301", "int-limit-5000"])
@pytest.mark.parametrize("field", ["--alpha", "beta", "q0"])
def test_values_past_the_digit_cap_fail_before_any_trial(tmp_path, field, value):
    mixture = {"--alpha": MIX_OK, "beta": {**MIX_OK, "beta": value}, "q0": {**MIX_OK, "q0": [[0, 0, value]]}}
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mixture[field]))
    argv = ["simulate", "--graph", "path:5", "--k", "1", "--adversary", f"mixture:{path}",
            "--trials", "5", "--outdir", str(tmp_path / "out")]
    status, out, err = _run_main(argv + (["--alpha", value] if field == "--alpha" else []))
    assert status == 2 and out == ""
    lines = _error_lines(err)
    assert len(lines) == 1 and field in lines[0] and len(lines[0]) < 200, err[:300]
    assert f"more than {MAX_DIGITS} digits" in lines[0], err[:300]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["2", "-1/2", "1.0000001"])
def test_alpha_outside_the_unit_interval_says_so(tmp_path, value):
    status, out, err = _run_main(["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
                                  "--trials", "2", f"--alpha={value}", "--outdir", str(tmp_path / "out")])
    assert status == 2 and out == ""
    assert _error_lines(err) == [
        f"stabtest simulate: error: argument --alpha: alpha must lie in [0, 1], got {value!r}"
    ], err
    assert not (tmp_path / "out").exists()


def test_values_at_the_digit_cap_are_read_exactly(tmp_path):
    # 10**-(MAX_DIGITS - 1) has a denominator of exactly MAX_DIGITS digits.
    status, out, _ = _run_main(["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
                                "--trials", "2", "--alpha", f"1e-{MAX_DIGITS - 1}", "--outdir", str(tmp_path)])
    assert status == 0
    assert f"alpha: 1/1{'0' * (MAX_DIGITS - 1)} (0) [--alpha]" in out
    with pytest.raises(ValueError, match=f"beta needs more than {MAX_DIGITS} digits"):
        cli._fraction("9" * (MAX_DIGITS + 1), "beta")
    assert cli._fraction("9" * MAX_DIGITS, "beta") == 10**MAX_DIGITS - 1


# Boundary fuzzing: every input ends in exit 0, or exit 2 with exactly one
# error line; exit 1 (an oracle mismatch or a bound violation) never occurs.
# Sizes stay tiny (n <= 8 qubits, at most 3 trials, oracle k <= 6,
# verify-bounds k-max <= 3), except for graph counts at the size cap: those
# past it are refused before anything is allocated, and those at or just
# under it are built only as edgeless graphs, through parse_graph alone, since
# reduce and IID trials cost time that grows with the graph. Likewise a k at or
# past the copy cap runs one honest trial at most, and a k-max past its cap is
# refused before any row is computed. Every error line is short: counts of
# 4000 and 4400 digits, on either side of Python's 4300-digit limit on reading
# an int, are held as strings, formatted into specs and written bare into graph
# documents.
_BOUNDARY = (MAX_QUBITS - 1, MAX_QUBITS, MAX_QUBITS + 1, 2**62, sys.maxsize)
_HUGE = ("9" * 4000, "9" * 4400)
_PAST_CAP = st.sampled_from(_BOUNDARY[2:] + _HUGE)
_LARGE_SIDES = st.sampled_from(_BOUNDARY + _HUGE)
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
# Mixture counts of 4000 digits, quoted and bare, are shown cut when refused.
@example(graph="path:3", adversary={**MIX_OK, "q0": [["1" * 4000, 0, 1]]}, k="1", trials="1", alpha=None,
         command="simulate", profile=(0, 0, 0, 1), k_max=1, edgeless=MAX_QUBITS)
@example(graph="path:3", adversary={**MIX_OK, "q0": [[int("1" * 4000), 0, 1]]}, k="1", trials="1", alpha=None,
         command="simulate", profile=(0, 0, 0, 1), k_max=1, edgeless=MAX_QUBITS)
def test_cli_boundary_fuzz(graph, adversary, k, trials, alpha, command, profile, k_max, edgeless):
    if k in _LARGE_K:
        adversary, trials = "honest", "1"
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(graph, str):
            with open(os.path.join(tmp, "g.json"), "w") as fh:
                fh.write(re.sub(r'"(9{4000,})"', r"\1", json.dumps(graph)))
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
    assert status in (0, 2), (argv, status, err[:300])
    if status == 2:
        lines = _error_lines(err)
        assert len(lines) == 1 and len(lines[0]) < 200, (argv, err[:300])
    if edgeless <= MAX_QUBITS:
        assert parse_graph(f"edgeless:{edgeless}").n == edgeless
    else:
        with pytest.raises(ValueError, match="vertex count is too large"):
            parse_graph(f"edgeless:{edgeless}")


_CHOICES = "(choose from 'simulate', 'reduce', 'verify-bounds', 'oracle')"


@pytest.mark.parametrize("argv, line", [
    # argparse quotes a refused argument whole; a message past 200 characters is cut.
    (["x" * 5000], "stabtest: error: argument command: invalid choice: 'xxxxx... (5098 characters)"),
    (["oracle", "1", "1", "1", "1", "y" * 5000],
     "stabtest: error: unrecognized arguments: yyyyyyyyyyyyyyyy... (5024 characters)"),
    # Shorter messages are argparse's own, byte for byte.
    (["frob"], f"stabtest: error: argument command: invalid choice: 'frob' {_CHOICES}"),
    (["z" * 90], f"stabtest: error: argument command: invalid choice: '{'z' * 90}' {_CHOICES}"),
    (["oracle", "1"], "stabtest oracle: error: the following arguments are required: b, c, k"),
    (["oracle", "1", "1", "1", "1", "extra"], "stabtest: error: unrecognized arguments: extra"),
    (["simulate", "--graph", "path:3"],
     "stabtest simulate: error: the following arguments are required: --k, --adversary"),
], ids=["long-choice", "long-extra", "choice", "choice-of-90", "missing", "extra", "missing-options"])
def test_argparse_errors_are_cut_only_when_long(argv, line):
    status, out, err = _run_main(argv)
    assert (status, out) == (2, "")
    assert err.startswith("usage: stabtest")
    assert _error_lines(err) == [line]


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STABTEST_OUTDIR", str(tmp_path / "envout"))
    rc = main([
        "simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
        "--trials", "10", "--seed", "0",
    ])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "summary.csv").exists()


@pytest.mark.parametrize("env, flag", [(None, ["--outdir", ""]), ("", [])], ids=["flag", "env"])
def test_an_empty_outdir_is_refused_before_anything_is_written(tmp_path, monkeypatch, env, flag):
    # Path("") is the working directory, so an empty outdir would write there.
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("STABTEST_OUTDIR", raising=False)
    else:
        monkeypatch.setenv("STABTEST_OUTDIR", env)
    status, out, err = _run_main(["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
                                  "--trials", "2", *flag])
    assert (status, out, err) == (2, "", "error: an empty --outdir (or $STABTEST_OUTDIR) names no directory\n")
    assert os.listdir(tmp_path) == []


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


def _reference_row(row):
    """A bounds row as the earlier csv.writer loop wrote it: every rational
    divided and printed, None as an empty field."""
    def fmt(x):
        return "" if x is None else f"{x[0] / x[1]:.12g}"

    k, a, b, c, p, joint, conditional, xi_val, ok = row
    return [k, a, b, c, fmt(p), fmt(joint), fmt(conditional), fmt(xi_val), str(ok).lower()]


def _reference_bounds_csv(k_max):
    """The verify-bounds CSV as the earlier csv.writer loop wrote it: one list
    per row, no mirrored-row reuse."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "a", "b", "c", "pass", "joint", "conditional", "xi", "bound_ok"])
    rows = violations = 0
    for row in bounds_rows(k_max):
        rows += 1
        violations += not row[8]
        writer.writerow(_reference_row(row))
    return buf.getvalue(), rows, violations


def _reference_lines(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(_reference_row, rows))
    return buf.getvalue().splitlines(keepends=True)


def _mirrored(rows):
    """Each row (k, a, b, c, ...) with a <= b, followed by its mirror (k, b, a, c, ...)
    when a < b, as analytics.bounds_rows orders them for the writer."""
    out = []
    for row in rows:
        k, a, b = row[:3]
        a, b = min(a, b), max(a, b)
        out.append((k, a, b, *row[3:]))
        if a < b:
            out.append((k, b, a, *row[3:]))
    return out


# (num, den) with a positive den, of either sign: zero numerators, rounded
# quotients of middling size, every float exactly, and rounded quotients from
# the subnormals up to the largest float.
_FLOAT_MAX = int(sys.float_info.max)
_PAIRS = st.one_of(
    st.tuples(st.just(0), st.integers(1, 2**80)),
    st.tuples(st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
    st.floats(allow_nan=False, allow_infinity=False).map(float.as_integer_ratio),
    st.integers(1, 2**1100).flatmap(
        lambda den: st.tuples(st.integers(-_FLOAT_MAX * den, _FLOAT_MAX * den), st.just(den))),
)


@st.composite
def _planted_rows(draw):
    k = draw(st.integers(1, 6))
    side = st.integers(0, k + 1)
    rows = draw(st.lists(st.tuples(st.just(k), side, side, st.sampled_from([0, 1]), _PAIRS, _PAIRS, _PAIRS,
                                   st.one_of(st.none(), _PAIRS), st.booleans()), max_size=8))
    return k, _mirrored(rows)


def _extremal_rows(k):
    """Row (0, k+1, 0), whose xi is the largest of its k (about 1.43e308 at
    k = MAX_BOUNDS_K), and its mirror."""
    state = profile(ClassCounts(0, k + 1, 0, k))
    values = [x.as_integer_ratio() for x in (state.passing, state.joint, state.conditional, xi(0, k + 1, k))]
    return _mirrored([(k, 0, k + 1, 0, *values, True)])


@given(_planted_rows())
@settings(max_examples=50, deadline=None)
# Zero numerators, xi None at c = 0 and at c = 1, ok both ways, a mirrored pair.
@example((2, _mirrored([(2, 0, 0, 0, (1, 1), (1, 2), (1, 2), None, False),
                        (2, 1, 3, 0, (0, 7), (0, 1), (0, 3), (-5, 3), False),
                        (2, 0, 2, 1, (2, 15), (0, 1), (0, 1), None, True),
                        (2, 2, 2, 1, (1, 3), (0, 1), (0, 1), (1, 6), True)])))
@example((MAX_BOUNDS_K, _extremal_rows(MAX_BOUNDS_K)))
def test_bounds_lines_format_planted_rows_as_the_reference(planted):
    # The writer formats its own decimals, not through _fmt_pair: they, the
    # empty xi, true/false and mirrored tails are held against the reference.
    k, rows = planted
    lines = []
    assert cli._bounds_lines(k, iter(rows), lines.append) == (len(rows), sum(not row[8] for row in rows))
    assert lines == _reference_lines(rows)


@pytest.mark.parametrize("k_max", range(1, 13))
def test_verify_bounds_matches_the_csv_writer_reference(tmp_path, capsys, k_max):
    expected, rows, violations = _reference_bounds_csv(k_max)
    assert violations == 0
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", str(k_max), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == expected.encode()
    assert capsys.readouterr() == (f"wrote {out_path}: {rows} rows, 0 violations\n", "")
    assert main(["verify-bounds", "--k-max", str(k_max)]) == 0
    assert capsys.readouterr() == (expected, "")


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


def test_every_output_is_opened_without_newline_translation(tmp_path, monkeypatch):
    # newline="" writes "\n" as is; the default would write "\r\n" on Windows.
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(file), kwargs.get("newline")))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    assert main(["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest",
                 "--trials", "2", "--outdir", str(tmp_path)]) == 0
    assert main(["verify-bounds", "--k-max", "1", "--out", str(tmp_path / "bounds.csv")]) == 0
    names = sorted(name.split(".")[1] for name, _ in opened)
    assert names == ["bounds", "summary", "transcripts"], opened
    assert all(newline == "" for _, newline in opened), opened


def test_verify_bounds_counts_a_violation(tmp_path, monkeypatch, capsys):
    row = (1, 0, 0, 0, (1, 1), (1, 2), (1, 2), None, False)
    monkeypatch.setattr(cli.analytics, "_bounds_rows_at", lambda k: iter([row]))
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "1", "--out", str(out_path)]) == 1
    assert capsys.readouterr() == (f"wrote {out_path}: 1 rows, 1 violations\n", "")
    assert out_path.read_text().splitlines()[1] == "1,0,0,0,1,0.5,0.5,,false"


@forked
@pytest.mark.parametrize("k_max", [2, 3, 8, 13, 40])
def test_forked_sweep_writes_the_csv_writer_reference(tmp_path, capsys, two_workers, k_max):
    expected, rows, violations = _reference_bounds_csv(k_max)
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", str(k_max), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == expected.encode()
    assert capsys.readouterr() == (f"wrote {out_path}: {rows} rows, 0 violations\n", "")
    assert main(["verify-bounds", "--k-max", str(k_max)]) == 0
    assert capsys.readouterr() == (expected, "")
    assert len(two_workers) == 4


def _planted(monkeypatch, k_bad, plant):
    """Make analytics._bounds_rows_at(k_bad) yield plant(rows) instead of its rows."""
    rows_at = cli.analytics._bounds_rows_at
    monkeypatch.setattr(cli.analytics, "_bounds_rows_at",
                        lambda k: plant(rows_at(k)) if k == k_bad else rows_at(k))


@forked
def test_forked_sweep_counts_a_violation_in_a_worker(tmp_path, monkeypatch, capsys, two_workers):
    # Row (k, a, b, c) = (4, 0, 0, 0), of the second worker, is marked failing.
    _planted(monkeypatch, 4, lambda rows: ((*row[:8], row[1:4] != (0, 0, 0)) for row in rows))
    expected, rows, _ = _reference_bounds_csv(8)
    lines = expected.splitlines(keepends=True)
    bad = next(i for i, line in enumerate(lines) if line.startswith("4,0,0,0,"))
    lines[bad] = lines[bad].replace(",true\n", ",false\n")
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "8", "--out", str(out_path)]) == 1
    assert capsys.readouterr() == (f"wrote {out_path}: {rows} rows, 1 violations\n", "")
    assert out_path.read_text() == "".join(lines)
    assert len(two_workers) == 2


def _raise_at_k(rows):
    raise RuntimeError("planted failure")
    yield


def _exit_at_k(rows):
    os._exit(3)
    yield


@forked
@pytest.mark.parametrize("plant, message", [
    (_raise_at_k, "error: verify-bounds worker for k=5 failed: RuntimeError: planted failure\n"),
    (_exit_at_k, "error: verify-bounds worker for k=5 exited before sending its rows\n"),
], ids=["raises", "exits"])
def test_a_failing_worker_ends_in_one_error_line(tmp_path, monkeypatch, capsys, two_workers, plant, message):
    _planted(monkeypatch, 5, plant)
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "8", "--out", str(out_path)]) == 2
    assert capsys.readouterr() == ("", message)
    assert os.listdir(tmp_path) == []  # no output and no temp file
    assert len(two_workers) == 2


def _stall_at_k(rows):
    time.sleep(60)
    yield from rows


@forked
def test_an_interrupted_forked_sweep_leaves_no_worker_and_no_output(tmp_path, monkeypatch, two_workers):
    # The parent is interrupted reading k = 3 while the second worker is
    # still busy with k = 4: that worker is killed, not waited out.
    from stabtest import _forked

    block = _forked._block
    reads = []

    def interrupted(pipe):
        reads.append(pipe)
        if len(reads) == 3:  # k = 3: the blocks are read in k order
            raise KeyboardInterrupt
        return block(pipe)

    _planted(monkeypatch, 4, _stall_at_k)
    monkeypatch.setattr(_forked, "_block", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify-bounds", "--k-max", "40", "--out", str(tmp_path / "bounds.csv")])
    assert time.monotonic() - start < 30
    assert os.listdir(tmp_path) == []
    assert len(two_workers) == 2


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("where", ["one-usable-cpu", "no-fork"])
def test_sweep_stays_in_process_without_cpus_or_fork(tmp_path, monkeypatch, capsys, where):
    if where == "one-usable-cpu":
        monkeypatch.setattr(cli, "_usable_cpus", lambda: [0])
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    # k_max = 20 is the smallest sweep past the break-even of forking.
    assert len(_bounds_cpus(20)) == 1
    out_path = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "20", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"wrote {out_path}: 7080 rows, 0 violations\n"
    assert out_path.read_text() == _reference_bounds_csv(20)[0]


def _bounds_cpus(k_max):
    """The CPUs that cmd_verify_bounds asks of cli._workers for 1..k_max."""
    return cli._workers(cli._ROW_MICROS * len(list(bounds_rows(k_max))), k_max)


def test_sweep_processes_are_capped(monkeypatch):
    # Only the rule: no process is started here.
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: list(range(64)))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _bounds_cpus(40) == [0, 1, 2, 3]  # at most os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _bounds_cpus(20) == list(range(20))  # at most k_max
    # Below _MIN_FORKED_MICROS, at _ROW_MICROS a row (2k^2 + 6k + 4 rows per
    # k), the sweep stays in one process: 6156 rows at k_max = 19, 7080 at 20.
    assert 6156 * cli._ROW_MICROS < cli._MIN_FORKED_MICROS <= 7080 * cli._ROW_MICROS
    assert _bounds_cpus(19) == [None]


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._usable_cpus() == [None] * (os.cpu_count() or 1)


NO_B = {"n_b": 0, "n_w": 2, "edges": []}


@pytest.mark.parametrize(
    "graph, adversary, field",
    [
        ("path:5", "honest:x", "honest takes no arguments"),
        ("path:5", ["beta", "q0", "q1"], "mixture JSON must be an object with beta, q0 and q1"),
        ("path:5", {**MIX_OK, "q0": [[0, 0, 0]]}, "q0 weights must have positive total"),
        ("path:5", {**MIX_OK, "q1": [[0, 0, 1], [1, 0, -1]]}, "q1 weights must have positive total"),
        ("grid:0x3", "honest", "grid dimensions must be positive"),
        ("grid:5x5x5", "honest", "bad graph spec 'grid:5x5x5': expected grid:WxH"),
        ("rhg:1x1", "honest", "bad graph spec 'rhg:1x1': expected rhg:XxYxZ"),
        ("edgeless:0", "honest", "need at least one vertex"),
        (NO_B, "single-bad:1,0", "class with s=1 is not realizable: graph has no B vertices"),
    ],
    ids=["honest-argument", "mixture-not-object", "q0-zero-total", "q1-zero-total", "grid-0x3", "grid-5x5x5",
         "rhg-1x1", "edgeless-0", "no-b-vertex"],
)
def test_refused_specs_fail_cleanly(tmp_path, capsys, graph, adversary, field):
    if isinstance(graph, dict):
        (tmp_path / "g.json").write_text(json.dumps(graph))
        graph = str(tmp_path / "g.json")
    if not isinstance(adversary, str):
        (tmp_path / "mix.json").write_text(json.dumps(adversary))
        adversary = f"mixture:{tmp_path / 'mix.json'}"
    assert main(["simulate", "--graph", graph, "--k", "1", "--adversary", adversary,
                 "--trials", "5", "--outdir", str(tmp_path / "out")]) == 2
    _single_error_line(capsys, field)


# A mixture needs only the classes its reachable branch can place: with
# beta = 1 no (1,1) copy is sent, so a graph with one side suffices when the
# Q0 atoms only flag that side. Any other beta, or a Q0 atom that flags the
# missing side, is refused before any trial.
@pytest.mark.parametrize(
    "graph, q0, missing",
    [
        (NO_B, [[0, 0, 1], [0, 1, 1]], "s=1 is not realizable: graph has no B vertices"),
        ("path:1", [[0, 0, 1], [1, 0, 1]], "t=1 is not realizable: graph has no W vertices"),
    ],
    ids=["no-b-vertex", "path:1"],
)
def test_mixture_runs_on_one_sided_graphs(tmp_path, capsys, graph, q0, missing):
    if isinstance(graph, dict):
        (tmp_path / "g.json").write_text(json.dumps(graph))
        graph = str(tmp_path / "g.json")
    flipped = [[b, a, w] for a, b, w in q0]
    for beta, atoms, status in (("1", q0, 0), ("1/2", q0, 2), ("0", q0, 2), ("1", flipped, 2)):
        (tmp_path / "mix.json").write_text(json.dumps({"beta": beta, "q0": atoms, "q1": [[0, 0, 1]]}))
        assert main(["simulate", "--graph", graph, "--k", "1", "--adversary", f"mixture:{tmp_path / 'mix.json'}",
                     "--trials", "20", "--outdir", str(tmp_path / "out")]) == status
        if status:
            _single_error_line(capsys, f"error: class with {missing}")
        else:
            assert "wrote " in capsys.readouterr().out


def _module_env():
    """The environment of a `python -m stabtest.cli` run, with src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_module(*argv):
    """The finished `python -m stabtest.cli argv` run, with src on the path."""
    return subprocess.run([sys.executable, "-m", "stabtest.cli", *argv], env=_module_env(), capture_output=True,
                          text=True, timeout=60)


def test_running_the_module_exits_with_mains_status():
    # The `if __name__ == "__main__"` guard, which no in-process call reaches.
    proc = _run_module("verify-bounds", "--k-max", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(BOUNDS_HEADER)
    proc = _run_module("oracle", "0", "0", "0", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: k must be at least 1\n")


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a pipe whose buffer can be set")
@pytest.mark.parametrize("k_max", [10, 40])  # 40 forks where two CPUs are usable
def test_a_reader_that_stops_early_ends_the_sweep_quietly(k_max):
    # As `stabtest verify-bounds | head -1` does. A one-page pipe holds less
    # than the sweep writes, so the command is still writing when the reader
    # closes its end.
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "stabtest.cli", "verify-bounds", "--k-max", str(k_max)],
                            env=_module_env(), stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    with open(read, "rb") as pipe:
        assert pipe.readline() == (",".join(BOUNDS_HEADER) + "\n").encode()
    assert proc.communicate(timeout=60) == (None, b"")
    assert proc.returncode == 141


def test_an_empty_out_is_refused_not_sent_to_stdout(tmp_path, monkeypatch):
    # An empty path names the working directory, which is not replaced.
    monkeypatch.chdir(tmp_path)
    status, out, err = _run_main(["verify-bounds", "--k-max", "2", "--out", ""])
    assert (status, out, err) == (2, "", "error: not a regular file, so not replaced: ''\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_refuses_a_fifo_before_writing(tmp_path):
    # os.replace would put a regular file in its place.
    fifo = tmp_path / "bounds.csv"
    os.mkfifo(fifo)
    status, out, err = _run_main(["verify-bounds", "--k-max", "3", "--out", str(fifo)])
    assert (status, out, err) == (2, "", f"error: not a regular file, so not replaced: {_shown(str(fifo))}\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["bounds.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_simulate_refuses_a_fifo_before_writing(tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    os.mkfifo(outdir / "summary.csv")
    status, out, err = _simulate_outputs(outdir, "20")
    assert (status, out) == (2, "") and _error_lines(err) == [
        f"error: not a regular file, so not replaced: {_shown(str(outdir / 'summary.csv'))}"]
    assert os.listdir(outdir) == ["summary.csv"]


def test_out_follows_a_symlink_and_keeps_it(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "bounds.csv"
    link.symlink_to("real.csv")
    status, out, err = _run_main(["verify-bounds", "--k-max", "3", "--out", str(link)])
    assert (status, out, err) == (0, f"wrote {link}: 76 rows, 0 violations\n", "")
    assert os.readlink(link) == "real.csv" and real.read_text() == _reference_bounds_csv(3)[0]
    assert sorted(os.listdir(tmp_path)) == ["bounds.csv", "real.csv"]


def test_simulate_follows_a_symlinked_transcript_file(tmp_path):
    plain, linked = tmp_path / "plain", tmp_path / "linked"
    assert _simulate_outputs(plain, "20")[0] == 0
    linked.mkdir()
    real = tmp_path / "kept.jsonl"
    (linked / "transcripts.jsonl").symlink_to(real)
    status, out, err = _simulate_outputs(linked, "20")
    assert status == 0 and err == ""
    assert os.readlink(linked / "transcripts.jsonl") == str(real)
    assert real.read_bytes() == (plain / "transcripts.jsonl").read_bytes()
    assert (linked / "summary.csv").read_bytes() == (plain / "summary.csv").read_bytes()
    assert sorted(os.listdir(linked)) == ["summary.csv", "transcripts.jsonl"]


def _unread(pipe):
    """How many bytes wait in pipe."""
    return int.from_bytes(fcntl.ioctl(pipe, termios.FIONREAD, bytes(4)), sys.byteorder)


@forked
@pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="needs a pipe whose buffer can be read")
def test_a_worker_killed_while_sending_its_rows_ends_in_one_error_line(tmp_path, monkeypatch, capsys, two_workers):
    # k = 5 is the first worker's. Its rows, 300 times over, make a record of
    # about 1 MB, more than a pipe holds, so that worker is still sending it
    # when the parent kills it.
    from stabtest import _forked

    _planted(monkeypatch, 5, lambda rows: list(rows) * 300)
    block = _forked._block

    reads = []

    def killed(pipe):
        reads.append(pipe)
        if len(reads) == 5:  # k = 5: the blocks are read in k order
            # Full but for the page, at most, that the parent has begun reading.
            full = fcntl.fcntl(pipe, fcntl.F_GETPIPE_SZ) - os.sysconf("SC_PAGESIZE")
            deadline = time.monotonic() + 30
            while _unread(pipe) < full:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(two_workers[0], signal.SIGKILL)
        return block(pipe)

    monkeypatch.setattr(_forked, "_block", killed)
    assert main(["verify-bounds", "--k-max", "8", "--out", str(tmp_path / "bounds.csv")]) == 2
    assert capsys.readouterr() == ("", "error: verify-bounds worker for k=5 exited before sending its rows\n")
    assert os.listdir(tmp_path) == []
    with pytest.raises(ChildProcessError):  # every worker has been waited for
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_transcript_move_keeps_the_previous_summary(tmp_path, monkeypatch):
    # A directory in place of an output is refused before anything is
    # written, so the move itself is made to fail here: transcripts.jsonl is
    # moved first, so summary.csv is not replaced either.
    outdir = tmp_path / "out"
    assert _simulate_outputs(outdir, "20")[0] == 0
    names = ["summary.csv", "transcripts.jsonl"]
    before = {name: (outdir / name).read_bytes() for name in names}
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == "transcripts.jsonl":
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    status, out, err = _simulate_outputs(outdir, "30")
    assert (status, out) == (2, "")
    assert _error_lines(err) == [
        f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {_shown(str(outdir / 'transcripts.jsonl'))}"]
    assert {name: (outdir / name).read_bytes() for name in names} == before
    assert sorted(os.listdir(outdir)) == names
