import csv
import json

import pytest

from stabtest.cli import main, parse_adversary, parse_graph
from stabtest.protocol import ClassMixture, Honest, IidPauli, SingleBadCopy


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
