"""A verify-bounds sweep split over forked worker processes.

Worker i of P keeps to one CPU, formats the CSV text of k = i + 1,
i + 1 + P, ... (striped, since a row costs more as k grows) and sends each
k's block through its own pipe; the parent writes the blocks in k order. `cli.cmd_verify_bounds`
imports this module only for a sweep that runs in more than one process, so
`import stabtest.cli` compiles none of it.
"""

from __future__ import annotations

import os
import signal
import struct
from typing import Callable

from .graphs import _cut

# What precedes each block on a pipe: its row count, violation count and byte
# length. A worker that fails sends one record with row count -1 whose bytes
# are its error message, and exits non-zero.
_HEADER = struct.Struct("<qqq")
# Most bytes asked of one os.read: a pipe hands over at most its buffer anyway.
_CHUNK = 1 << 20


def _send(fd: int, text: str, rows: int, violations: int) -> None:
    data = text.encode()
    view = memoryview(_HEADER.pack(rows, violations, len(data)) + data)
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


def _block(fd: int, k: int) -> tuple[int, int, bytearray]:
    """(rows, violations, bytes) of the block for k, the next one on fd."""
    head = _receive(fd, _HEADER.size)
    if len(head) == _HEADER.size:
        rows, violations, size = _HEADER.unpack(head)
        data = _receive(fd, size)
        if len(data) == size:
            if rows < 0:
                raise ChildProcessError(f"verify-bounds worker for k={k} failed: {_cut(data.decode(), 200)}")
            return rows, violations, data
    raise ChildProcessError(f"verify-bounds worker for k={k} exited before sending its rows")


def _work(fd: int, reads: list[int], ks: range, block: Callable, cpu: int | None) -> None:
    """A forked worker: send block(k) for each k in ks through fd, or one
    error record on the first exception. It leaves only through os._exit, so
    it flushes no buffer it inherited and runs none of the parent's cleanup."""
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
            for k in ks:
                _send(fd, *block(k))
            status = 0
        except BaseException as exc:
            _send(fd, f"{type(exc).__name__}: {exc}", -1, 0)
            raise
    finally:
        os._exit(status)


def sweep(k_max: int, workers: int, block: Callable, write: Callable) -> tuple[int, int]:
    """Write the text of block(k) for k = 1..k_max, in order, through write,
    each k formatted by one of `workers` forked processes; return the summed
    (rows, violations). block(k) returns (text, rows, violations).

    A worker that fails or exits early ends the sweep in a ChildProcessError,
    an OSError that names no file, so the command prints one `error:` line.
    On every exit path, an interrupt included, the workers still running are
    killed and every worker is waited for."""
    # Each worker keeps to a CPU of its own. Left free, the workers and the
    # parent, which wake each other through the pipes, tend to gather on one
    # CPU: at --k-max 40 on 2 vCPUs, two free workers took 1.05x the time of
    # one process, and two pinned ones 0.59x (medians of 16 alternating runs).
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None] * workers
    reads: list[int] = []
    pids: list[int] = []
    done = False
    try:
        for i in range(workers):
            read, send = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(send, reads, range(i + 1, k_max + 1, workers), block, cpus[i % len(cpus)])
                pids.append(pid)
            finally:
                os.close(send)
        rows = violations = 0
        for k in range(1, k_max + 1):
            count, bad, data = _block(reads[(k - 1) % workers], k)
            write(data.decode())
            rows += count
            violations += bad
        done = True
        return rows, violations
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)  # no error: the worker is at most a zombie until waited for
            os.waitpid(pid, 0)
