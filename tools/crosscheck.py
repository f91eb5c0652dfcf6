"""Check that other Python interpreters write the same bytes as this one.

    python tools/crosscheck.py PYTHON [PYTHON ...]

Runs each case below under the running interpreter and under every PYTHON
given, from the source tree (PYTHONPATH=src, PYTHONDONTWRITEBYTECODE=1), each
in a fresh directory. A case's output is its exit status, its stdout and
stderr, and the bytes of every file it writes. The cases are:

* ``simulate --k 2 --trials 200 --seed 3`` for every (graph, adversary) pair
  of SIMULATE_GOLDEN in tests/test_determinism.py, beside that file's
  mixture.json;
* ``simulate`` of that mixture on ``grid:5x5`` at ``--k 5`` over 2000 trials,
  and of ``iid:0.01,0.01`` on ``rhg:3x3x3`` at ``--k 2`` over 300 trials:
  both past the break-even of forking, so on a machine with two or more
  usable CPUs they run in forked workers;
* ``verify-bounds --k-max 30`` and ``verify-bounds --k-max 40``; on a
  machine with two or more usable CPUs, the second runs the sweep in forked
  workers;
* ``reduce --graph rhg:2x2x2``;
* ``oracle 1 1 0 3``.

Prints one line per (interpreter, case), "same" or "DIFFERS", and exits 1 if
any output differs from the running interpreter's or a case exits nonzero
under it (so a tree that fails to import is not read as a match). Standard library only; the
determinism goldens are read from the test file with ast, not imported.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISM = ROOT / "tests" / "test_determinism.py"


def _literals(path: Path, *names: str) -> list:
    """The values of the module-level assignments names in path, as literals."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return [ast.literal_eval(found[name]) for name in names]


def cases() -> tuple[dict, list[tuple[str, list[str]]]]:
    """The mixture.json contents and the (name, argv) cases, in a fixed order."""
    golden, mixture = _literals(DETERMINISM, "SIMULATE_GOLDEN", "MIXTURE")
    out = [
        (f"simulate {graph} {adversary}",
         ["simulate", "--graph", graph, "--k", "2", "--trials", "200", "--seed", "3",
          "--adversary", adversary, "--outdir", "out"])
        for graph, adversary in sorted(golden)
    ]
    out.append(("simulate grid:5x5 mixture, 2000 trials",
                ["simulate", "--graph", "grid:5x5", "--k", "5", "--trials", "2000", "--seed", "3",
                 "--adversary", "mixture:mixture.json", "--outdir", "out"]))
    out.append(("simulate rhg:3x3x3 iid:0.01,0.01, 300 trials",
                ["simulate", "--graph", "rhg:3x3x3", "--k", "2", "--trials", "300", "--seed", "3",
                 "--adversary", "iid:0.01,0.01", "--outdir", "out"]))
    out.append(("verify-bounds --k-max 30", ["verify-bounds", "--k-max", "30"]))
    out.append(("verify-bounds --k-max 40", ["verify-bounds", "--k-max", "40"]))
    out.append(("reduce --graph rhg:2x2x2", ["reduce", "--graph", "rhg:2x2x2"]))
    out.append(("oracle 1 1 0 3", ["oracle", "1", "1", "0", "3"]))
    return mixture, out


def run(python: str, argv: list[str], mixture: dict) -> tuple[int, str]:
    """The exit status of one run, and SHA-256 over it, stdout, stderr and the written files."""
    env = {key: value for key, value in os.environ.items() if key != "STABTEST_OUTDIR"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "mixture.json").write_text(json.dumps(mixture))
        proc = subprocess.run([python, "-m", "stabtest.cli", *argv], cwd=cwd, env=env, capture_output=True)
        digest = hashlib.sha256(f"exit {proc.returncode}\n".encode())
        for part in (proc.stdout, proc.stderr):
            digest.update(len(part).to_bytes(8, "big") + part)
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            data = path.read_bytes()
            digest.update(path.relative_to(cwd).as_posix().encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return proc.returncode, digest.hexdigest()


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tools/crosscheck.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    mixture, todo = cases()
    version = {}
    for python in pythons:
        proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True)
        version[python] = proc.stdout.strip() or f"? (exit {proc.returncode})"
    print(f"reference: {sys.executable} (Python {sys.version.split()[0]}), {len(todo)} cases")
    differs = 0
    for name, argv in todo:
        status, expected = run(sys.executable, argv, mixture)
        if status:
            differs += 1
            print(f"FAILS    {sys.executable}: {name} exits {status}")
        for python in pythons:
            same = run(python, argv, mixture)[1] == expected
            differs += not same
            print(f"{'same' if same else 'DIFFERS':8} {python} (Python {version[python]}): {name}")
    print(f"{differs} outputs differ or fail, over {len(todo)} cases and {len(pythons)} interpreters")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
