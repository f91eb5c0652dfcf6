"""A command's output split into numbered blocks, formatted by forked worker processes.

Both commands that fork use `sweep`, through cli._write_blocks:
`verify-bounds` numbers its blocks by k, one block per k, and `simulate`
numbers blocks of consecutive trials. Worker i of P keeps to one CPU, formats
the text of the blocks at positions i, i + P, ... of the numbering (striped,
since a block of `verify-bounds` costs more as k grows) and sends each block
through its own pipe as one marshal record, (counts, text), or its error
message as a bare str; the parent writes the blocks in order. Both ends are
the same forked interpreter, so marshal's format needs no versioning, and
importlib has loaded marshal already. Every fork comes before the first
block is written, so when os.pipe or os.fork refuses a worker, `sweep` stops
the workers already started and leaves the blocks to one process. The
commands import this module only for a run that forks, so
`import stabtest.cli` compiles none of it.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import Callable

from ._text import _cut


def _block(pipe, number: int):
    """The record of block `number`, the next one on the buffered pipe: its
    counts and text as (tuple, str), a failed worker's message as a
    str, or None if its worker exited before sending all of it."""
    try:
        return marshal.load(pipe)
    except EOFError:
        return None


def _work(fd: int, pipes: list, numbers: range, block: Callable, cpu: int | None) -> None:
    """A forked worker: send one record, the counts that block(number, write)
    returns and the text it writes, for each number in numbers through fd,
    or its error message as a str on the first exception. It leaves only
    through os._exit, so it flushes no buffer it inherited and runs none of
    the parent's cleanup."""
    status = 1
    try:
        for pipe in pipes:
            pipe.close()
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # pinning only makes the sweep faster
                pass
        send = open(fd, "wb")
        try:
            for number in numbers:
                parts: list[str] = []
                counts = block(number, parts.append)
                marshal.dump((counts, "".join(parts)), send)
                send.flush()
            status = 0
        except BaseException as exc:
            marshal.dump(f"{type(exc).__name__}: {exc}", send)
            send.flush()
            raise
    finally:
        os._exit(status)


def sweep(
    blocks: range, workers: int, block: Callable, write: Callable, name: Callable[[int], str], unit: str
) -> list[tuple] | None:
    """Write the text of each block in blocks, in order, through write, each
    block formatted by one of `workers` forked processes; return the counts
    of each block, in block order. block(number, write) writes the block's
    text through write and returns its counts, a tuple of ints that this
    function only passes on.

    If os.pipe or os.fork refuses a worker, return None before any block is
    written, so the caller writes them all in one process. Any later failure
    ends the sweep: a worker that fails or exits early in a ChildProcessError,
    an OSError that names no file, so the command prints one `error:` line:
    "<name(number)> failed: <the worker's exception>" or "<name(number)>
    exited before sending its <unit>". On every exit path, an interrupt
    included, the workers still running are killed and every worker is
    waited for."""
    # Each worker keeps to a CPU of its own. Left free, the workers and the
    # parent, which wake each other through the pipes, tend to gather on one
    # CPU: at verify-bounds --k-max 40 on 2 vCPUs, two free workers took 1.05x
    # the time of one process, and two pinned ones 0.59x (medians of 16
    # alternating runs).
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None] * workers
    pipes: list = []
    pids: list[int] = []
    done = False
    try:
        for i in range(workers):
            try:
                read, send = os.pipe()
                pipes.append(open(read, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work(send, pipes, blocks[i::workers], block, cpus[i % len(cpus)])
                finally:
                    os.close(send)
            except OSError:  # refused, at a process or descriptor limit: no block is written yet
                return None
            pids.append(pid)
        counts = []
        for position, number in enumerate(blocks):
            got = _block(pipes[position % workers], number)
            if got is None:
                raise ChildProcessError(f"{name(number)} exited before sending its {unit}")
            if isinstance(got, str):
                raise ChildProcessError(f"{name(number)} failed: {_cut(got, 200)}")
            block_counts, text = got
            write(text)
            counts.append(block_counts)
        done = True
        return counts
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)  # no error: the worker is at most a zombie until waited for
            os.waitpid(pid, 0)
