"""A command's output split into numbered blocks, formatted by forked worker processes.

Both commands that fork use `sweep`, through cli._write_blocks:
`verify-bounds` numbers its blocks by k, one block per k, and `simulate`
numbers blocks of consecutive trials. Worker i of P keeps to one CPU, formats
the text of the blocks at positions i, i + P, ... of the numbering (striped,
since a block of `verify-bounds` costs more as k grows) and sends each block
through its own pipe; the parent writes the blocks in order. Every fork comes
before the first block is written, so when os.pipe or os.fork refuses a
worker, `sweep` stops the workers already started and leaves the blocks to
one process. The commands import this module only for a run that forks, so
`import stabtest.cli` compiles none of it.
"""

from __future__ import annotations

import os
import signal
import struct
from typing import Callable

from .graphs import _cut

# What precedes each block on a pipe: its two counts (rows and violations for
# verify-bounds, accepted and clean trials for simulate) and its byte length.
# A worker that fails sends one record with first count -1 whose bytes are its
# error message, and exits non-zero.
_HEADER = struct.Struct("<qqq")
# Most bytes asked of one os.read: a pipe hands over at most its buffer anyway.
_CHUNK = 1 << 20


def _send(fd: int, text: str, first: int, second: int) -> None:
    data = text.encode()
    view = memoryview(_HEADER.pack(first, second, len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int, size: int) -> bytearray:
    """size bytes from fd, or fewer if the worker has exited."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, min(size - len(data), _CHUNK))
        if not chunk:
            break
        data += chunk
    return data


def _block(fd: int, number: int) -> tuple[int, int, bytearray] | None:
    """(first count, second count, bytes) of block `number`, the next one on
    fd, or None if its worker exited before sending all of it. A failed
    worker's record has first count -1 and its message as the bytes."""
    head = _receive(fd, _HEADER.size)
    if len(head) == _HEADER.size:
        first, second, size = _HEADER.unpack(head)
        data = _receive(fd, size)
        if len(data) == size:
            return first, second, data
    return None


def _work(fd: int, reads: list[int], numbers: range, block: Callable, cpu: int | None) -> None:
    """A forked worker: send the text that block(number, write) writes, and
    its two counts, for each number in numbers through fd, or one error
    record on the first exception. It leaves only through os._exit, so it
    flushes no buffer it inherited and runs none of the parent's cleanup."""
    status = 1
    try:
        for read in reads:
            os.close(read)
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # pinning only makes the sweep faster
                pass
        try:
            for number in numbers:
                parts: list[str] = []
                counts = block(number, parts.append)
                _send(fd, "".join(parts), *counts)
            status = 0
        except BaseException as exc:
            _send(fd, f"{type(exc).__name__}: {exc}", -1, 0)
            raise
    finally:
        os._exit(status)


def sweep(
    blocks: range, workers: int, block: Callable, write: Callable, name: Callable[[int], str], unit: str
) -> tuple[int, int] | None:
    """Write the text of each block in blocks, in order, through write, each
    block formatted by one of `workers` forked processes; return the two
    counts summed over the blocks. block(number, write) writes the block's
    text through write and returns its two counts, both not negative.

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
    reads: list[int] = []
    pids: list[int] = []
    done = False
    try:
        for i in range(workers):
            try:
                read, send = os.pipe()
            except OSError:  # refused, as a fork may be below: no block is written yet
                return None
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(send, reads, blocks[i::workers], block, cpus[i % len(cpus)])
            except OSError:
                return None
            finally:
                os.close(send)
            pids.append(pid)
        first = second = 0
        for position, number in enumerate(blocks):
            got = _block(reads[position % workers], number)
            if got is None:
                raise ChildProcessError(f"{name(number)} exited before sending its {unit}")
            count, other, data = got
            if count < 0:
                raise ChildProcessError(f"{name(number)} failed: {_cut(data.decode(), 200)}")
            write(data.decode())
            first += count
            second += other
        done = True
        return first, second
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)  # no error: the worker is at most a zombie until waited for
            os.waitpid(pid, 0)
