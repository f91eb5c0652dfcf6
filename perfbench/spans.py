"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `patched` swaps the names
one stabtest module imports from another layer for timing wrappers and puts
the originals back afterwards, so no file of the package is touched. Spans
nest strictly (one thread), so a span's self time is its duration minus the
durations of the spans opened while it was open.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, kind). "gen" times each item a generator
# yields; "trial" also marks the start of the current job's trial loop.
TRACED = (
    ("stabtest.cli", "cmd_simulate", "cli.cmd_simulate", "call"),
    ("stabtest.cli", "cmd_verify_bounds", "cli.cmd_verify_bounds", "call"),
    ("stabtest.cli", "run_trials", "protocol.run_trials", "gen"),
    ("stabtest.cli", "transcript_to_json", "protocol.transcript_to_json", "call"),
    ("stabtest.protocol", "trial_seed", "protocol.trial_seed", "trial"),
    ("stabtest.protocol", "syndromes", "pauli.syndromes", "call"),
    ("stabtest.pauli", "mat_vec", "gf2.mat_vec", "call"),
    ("stabtest.reduction", "mat_inverse", "gf2.mat_inverse", "call"),
    ("stabtest.reduction", "mat_mul", "gf2.mat_mul", "call"),
    ("stabtest.reduction", "column_space_basis", "gf2.column_space_basis", "call"),
    ("stabtest.reduction", "kernel_basis", "gf2.kernel_basis", "call"),
    ("stabtest.analytics", "pass_prob", "analytics.pass_prob", "call"),
    ("stabtest.analytics", "joint_prob", "analytics.joint_prob", "call"),
    ("stabtest.analytics", "conditional_fidelity", "analytics.conditional_fidelity", "call"),
    ("stabtest.analytics", "xi", "analytics.xi", "call"),
)


class Tracer:
    """Span durations and self times per span name, plus per-job call counts."""

    def __init__(self) -> None:
        self.durations: dict[str, array] = {}
        self.self_times: dict[str, array] = {}
        # (job, trial loop started, span name) -> calls
        self.calls: Counter = Counter()
        self.job: str | None = None
        self.in_trials = False
        self._open: list[float] = []  # child time covered so far, per open span

    def begin_job(self, job: str) -> None:
        self.job = job
        self.in_trials = False

    def _enter(self, name: str) -> float:
        self.calls[self.job, self.in_trials, name] += 1
        self._open.append(0.0)
        return perf_counter()

    def _exit(self, name: str | None, start: float) -> None:
        duration = perf_counter() - start
        children = self._open.pop()
        if self._open:
            self._open[-1] += duration
        if name is not None:
            self.durations.setdefault(name, array("d")).append(duration)
            self.self_times.setdefault(name, array("d")).append(duration - children)

    def call(self, name: str, fn, *args, **kwargs):
        start = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, start)

    def wrap(self, name: str, fn, kind: str = "call"):
        if kind == "gen":
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    start = self._enter(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        self._exit(None, start)
                        return
                    self._exit(name, start)
                    yield item
        elif kind == "trial":
            def wrapper(*args, **kwargs):
                self.in_trials = True
                return self.call(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Install the TRACED wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, kind in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, kind))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
