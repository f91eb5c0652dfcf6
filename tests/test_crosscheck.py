"""tools/crosscheck.py refuses an interpreter that cannot run before any case runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

CROSSCHECK = Path(__file__).resolve().parent.parent / "tools" / "crosscheck.py"


def _shim(tmp_path):
    """An executable that starts but reports no version, as a pyenv shim
    with no version selected does."""
    path = tmp_path / "python3.10"
    path.write_text("#!/bin/sh\necho 'pyenv: python3.10: command not found' >&2\nexit 127\n")
    path.chmod(0o755)
    return str(path)


@pytest.mark.skipif(os.name != "posix", reason="the shim is a shell script")
@pytest.mark.parametrize("kind", ["missing", "shim"])
def test_an_interpreter_that_does_not_run_ends_the_check_in_one_error_line(tmp_path, kind):
    python, why = {
        "missing": (str(tmp_path / "missing"), "does not start: No such file or directory"),
        "shim": (_shim(tmp_path), "does not report its version (exit 127)"),
    }[kind]
    proc = subprocess.run([sys.executable, str(CROSSCHECK), sys.executable, python], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {python} {why}\n")
