"""`simulate` split over forked workers: the bytes, counts and report of one
process, and no worker or temp file left behind on any exit path.

The tests that fork run two workers, forced through cli._simulate_workers,
and never ask for more processes than the machine has CPUs."""

import os
import time

import pytest

from stabtest import _forked, cli, protocol
from stabtest.cli import main, parse_graph
from stabtest.protocol import MAX_COPIES, ClassMixture, _plan

from test_determinism import (
    EXPLICIT_GOLDEN,
    MIXTURE_K11,
    MIXTURE_K11_GOLDEN,
    SIMULATE_GOLDEN,
    _explicit_model,
    _sha,
    simulate_hashes,
)
from test_protocol import _python_output

forked = pytest.mark.skipif(
    not hasattr(os, "fork") or cli._usable_cpus() < 2 or (os.cpu_count() or 1) < 2,
    reason="a forked simulate needs os.fork and at least 2 usable CPUs",
)


@pytest.fixture
def two_workers(monkeypatch):
    """Every simulate runs in two forked workers. Yields the pids the parent
    forked, and checks at the end that none of them is left to wait for."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli, "_simulate_workers", lambda trials, copies, iid, n: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every worker has been waited for
        os.waitpid(-1, os.WNOHANG)


def _one_process(monkeypatch):
    monkeypatch.setattr(cli, "_simulate_workers", lambda trials, copies, iid, n: 1)


@forked
@pytest.mark.parametrize("graph, adversary", sorted(SIMULATE_GOLDEN))
def test_forked_simulate_matches_golden_hashes(tmp_path, monkeypatch, capsys, two_workers, graph, adversary):
    assert simulate_hashes(tmp_path, monkeypatch, graph, adversary) == SIMULATE_GOLDEN[graph, adversary]
    report = capsys.readouterr()
    assert len(two_workers) == 2
    _one_process(monkeypatch)
    assert simulate_hashes(tmp_path, monkeypatch, graph, adversary) == SIMULATE_GOLDEN[graph, adversary]
    assert capsys.readouterr() == report
    assert len(two_workers) == 2


@forked
@pytest.mark.parametrize("case", ["explicit", "mixture-k11"])
def test_joined_blocks_match_the_line_goldens(two_workers, case):
    # No command-line adversary is Explicit, so the blocks are joined by the
    # forked writer itself, from the plan a run would build.
    g = parse_graph("grid:3x3")
    if case == "explicit":
        k, model, seed, golden = 3, _explicit_model(g, 3), 21, EXPLICIT_GOLDEN
    else:
        k, model, seed, golden = 11, ClassMixture.from_weights(*MIXTURE_K11), 8, MIXTURE_K11_GOLDEN
    parts = []
    accepted, clean = cli._forked_transcripts(_plan(g, k, model, 300), 300, seed, 2, parts.append)
    assert len(parts) == 8  # 300 trials in 8 blocks of at most 38, striped over the two workers
    assert (_sha("".join(parts).encode()), {"trials": 300, "accepted": accepted, "accepted_clean": clean}) == golden
    assert len(two_workers) == 2


def _simulate(outdir, graph, k, adversary, trials):
    argv = ["simulate", "--graph", graph, "--k", str(k), "--adversary", adversary, "--trials", str(trials),
            "--seed", "11", "--alpha", "1/2", "--outdir", str(outdir)]
    status = main(argv)
    return status, {name: (outdir / name).read_bytes() for name in ("transcripts.jsonl", "summary.csv")}


@forked
@pytest.mark.parametrize("graph, k, adversary, trials", [
    ("path:5", 2, "single-bad:1,0", 1),  # one block: the second worker sends nothing
    ("path:5", 2, "single-bad:1,0", 2),  # one trial a worker
    ("path:5", 2, "single-bad:1,0", 9),  # blocks of 2 trials, the last one of 1
    ("path:5", 2, "iid:0.2,0.1", 41),  # blocks of 6, the last one of 5
    ("path:1", MAX_COPIES // 2 - 1, "honest", 3),  # past _BLOCK_COPIES copies: one trial a block
])
def test_forked_simulate_writes_what_one_process_writes(tmp_path, monkeypatch, capsys, two_workers,
                                                        graph, k, adversary, trials):
    forked_run = _simulate(tmp_path, graph, k, adversary, trials)
    report = capsys.readouterr()
    _one_process(monkeypatch)
    assert _simulate(tmp_path, graph, k, adversary, trials) == forked_run
    assert capsys.readouterr() == report
    assert forked_run[0] == 0 and forked_run[1]["transcripts.jsonl"].count(b"\n") == trials
    assert sorted(os.listdir(tmp_path)) == ["summary.csv", "transcripts.jsonl"]
    assert len(two_workers) == 2


def test_trial_blocks_are_striped_and_bounded():
    assert cli._trial_blocks(2000, 11, 2) == (250, 8)
    assert cli._trial_blocks(9, 5, 2) == (2, 5)
    assert cli._trial_blocks(1, 5, 2) == (1, 1)
    # At most _BLOCK_COPIES copies' lines a block, about 0.7 MB of text.
    assert cli._trial_blocks(10**9, 21, 2) == (cli._BLOCK_COPIES // 21, -(-10**9 // (cli._BLOCK_COPIES // 21)))
    assert cli._trial_blocks(10**9, MAX_COPIES - 1, 2) == (1, 10**9)


def _planted(monkeypatch, bad_trial, plant):
    """Make protocol._lines run plant() for the block that holds bad_trial."""
    lines = protocol._lines

    def planted(plan, indices, master_seed):
        if bad_trial in indices:
            plant()
        return lines(plan, indices, master_seed)

    monkeypatch.setattr(protocol, "_lines", planted)


def _raise():
    raise RuntimeError("planted failure")


def _exit():
    os._exit(3)


@forked
@pytest.mark.parametrize("plant, message", [
    (_raise, "error: simulate worker for trials 12..15 failed: RuntimeError: planted failure\n"),
    (_exit, "error: simulate worker for trials 12..15 exited before sending its transcripts\n"),
], ids=["raises", "exits"])
def test_a_failing_simulate_worker_keeps_the_previous_outputs(tmp_path, monkeypatch, capsys, two_workers,
                                                              plant, message):
    # 30 trials make 8 blocks of 4 but the last: block 3, trials 12..15, is
    # the second worker's.
    status, before = _simulate(tmp_path, "path:3", 1, "single-bad:0,1", 20)
    assert status == 0 and len(two_workers) == 2
    capsys.readouterr()
    _planted(monkeypatch, 13, plant)
    status, after = _simulate(tmp_path, "path:3", 1, "single-bad:0,1", 30)
    assert status == 2
    assert capsys.readouterr() == ("", message)
    assert after == before
    assert sorted(os.listdir(tmp_path)) == ["summary.csv", "transcripts.jsonl"]  # no temp file
    assert len(two_workers) == 4


@forked
def test_an_interrupted_forked_simulate_leaves_no_worker_and_no_output(tmp_path, monkeypatch, two_workers):
    # 20 trials make 7 blocks of 3. The parent is interrupted reading block 2
    # while the second worker is still busy with block 3 (trials 9..11):
    # that worker is killed, not waited out.
    block = _forked._block

    def interrupted(fd, number):
        if number == 2:
            raise KeyboardInterrupt
        return block(fd, number)

    _planted(monkeypatch, 10, lambda: time.sleep(60))
    monkeypatch.setattr(_forked, "_block", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _simulate(tmp_path, "path:3", 1, "single-bad:0,1", 20)
    assert time.monotonic() - start < 30
    assert os.listdir(tmp_path) == []
    assert len(two_workers) == 2


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("where", ["one-usable-cpu", "no-fork"])
def test_simulate_stays_in_process_without_cpus_or_fork(tmp_path, monkeypatch, capsys, where):
    if where == "one-usable-cpu":
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    # 1000 honest trials of 5 copies, about 11 ms of work, are past the break-even.
    assert cli._simulate_workers(1000, 5, False, 5) == 1
    status, outputs = _simulate(tmp_path, "path:5", 2, "honest", 1000)
    assert status == 0 and outputs["transcripts.jsonl"].count(b"\n") == 1000


def test_simulate_break_even_is_an_input_size(monkeypatch):
    # Only the rule: no process is started here.
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._MIN_FORKED_MICROS == 9000
    # (copies, iid, n, trials): the smallest run that forks, estimated at
    # 10 + 0.2 copies microseconds a trial of fixed records and
    # 10 + (2 + n/16) copies of IID flips.
    for copies, iid, n, trials in [
        (11, False, 25, 738),  # a mixture on grid:5x5 at k = 5: 12.2 us a trial
        (5, False, 5, 819),  # honest on path:5 at k = 2: 11 us
        (5, True, 252, 92),  # IID on rhg:3x3x3 at k = 2: 98.75 us
    ]:
        assert cli._simulate_workers(trials - 1, copies, iid, n) == 1
        assert cli._simulate_workers(trials, copies, iid, n) == 2
    # A trial count alone misjudges IID on a large graph.
    assert cli._simulate_workers(300, 5, False, 252) == 1
    assert cli._simulate_workers(300, 5, True, 252) == 2


def test_simulate_processes_are_capped(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._simulate_workers(10**6, 11, False, 25) == 4  # at most os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._simulate_workers(3, 129, True, 65536) == 3  # at most the trials, so at most the blocks
    assert cli._trial_blocks(3, 129, 3)[1] == 3


def test_only_a_run_that_forks_loads_the_fork_module(tmp_path):
    # Start-up: `import stabtest.cli` and a simulate below the break-even
    # compile none of _forked.
    argv = ["simulate", "--graph", "path:3", "--k", "1", "--adversary", "honest", "--trials", "3",
            "--outdir", str(tmp_path)]
    code = (
        "import contextlib, io, sys\n"
        "import stabtest.cli\n"
        "print('stabtest._forked' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert stabtest.cli.main({argv}) == 0\n"
        "print('stabtest._forked' in sys.modules)\n"
    )
    assert _python_output(code).split() == ["False", "False"]
