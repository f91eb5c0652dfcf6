"""The examples in README.md, run as written and compared line by line.

Each ``$ stabtest ...`` block runs in a fresh directory with
STABTEST_OUTDIR unset, beside the ``mixture.json`` that the README's JSON
block shows. A ``...`` line in a block stands for any run of output lines:
the lines above it must start the output and the lines below it must end it.
The Python library example runs too, and each ``# `` comment under a print
is that print's output; a note after two or more spaces is not compared.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from stabtest.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)
COMMANDS = [body for lang, body in BLOCKS if body.startswith("$ stabtest ")]
(MIXTURE,) = [body for lang, body in BLOCKS if lang == "json"]
(LIBRARY,) = [body for lang, body in BLOCKS if lang == "python"]


def _assert_matches(out: str, expected: list[str]) -> None:
    lines = out.splitlines()
    if "..." not in expected:
        assert lines == expected
        return
    cut = expected.index("...")
    head, tail = expected[:cut], expected[cut + 1:]
    assert lines[:len(head)] == head
    assert lines[len(lines) - len(tail):] == tail
    assert len(lines) >= len(head) + len(tail)


def test_readme_has_every_example():
    assert [shlex.split(body)[2] for body in COMMANDS] == ["simulate", "reduce", "verify-bounds", "oracle"]


@pytest.mark.parametrize("body", COMMANDS, ids=[shlex.split(body)[2] for body in COMMANDS])
def test_readme_command(body, tmp_path, monkeypatch, capsys):
    command, *expected = body.replace("\\\n", " ").splitlines()
    monkeypatch.delenv("STABTEST_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixture.json").write_text(MIXTURE)
    status = main(shlex.split(command)[2:])
    assert status == 0
    _assert_matches(capsys.readouterr().out, expected)


def test_readme_library_example():
    code = [line for line in LIBRARY.splitlines() if not line.startswith("#")]
    expected = [re.sub(r" {2,}.*", "", line[2:]) for line in LIBRARY.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    _assert_matches(out.getvalue(), expected)
