"""Workloads of the stabtest benchmark: generated inputs, timed jobs, output checks.

Every workload is a loop of rounds. A round runs one job through the command
line (`stabtest.cli.main`) and one through the library (`estimate` or
`compute_reduction`) on the same inputs, times each, and checks the outputs
outside the timed region. Rounds repeat until the time budget is spent, and
the end-to-end figures are medians over rounds of job times scaled to the
quiet host's speed (see HostClock). Round r of workload w under
benchmark seed s uses master seed `master_seed(w, s, r)`; the package sees only
these generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PINNED_SEED = 0  # golden output hashes hold for this benchmark seed only
MIN_ROUNDS = 3
SETUP_RUNS = 9
# Each run makes up to ~5 comparisons against an exact value and the benchmark
# is run hundreds of times, so 3 SE would raise false alarms; 5 SE does not.
Z_LIMIT = 5.0
# Time of the calibration kernel on a quiet 2-vCPU Xeon at 2.0 GHz under
# Python 3.11 (see HostClock).
CAL_REF_S = 0.005


@dataclass(frozen=True)
class MonteCarlo:
    """`stabtest simulate` and `estimate` with the same graph, k, adversary and seeds."""

    name: str
    graph: str
    k: int
    adversary: str  # relative to the checkout root: it is written into summary.csv
    trials: int  # per job
    golden: dict = field(default_factory=dict)  # output file -> SHA-256, round 0 of PINNED_SEED
    exact: tuple[Fraction, Fraction] | None = None  # pass rate, conditional fidelity

    def setup_inputs(self) -> dict:
        return {"graphs": [self.graph], "adversaries": [self.adversary]}


@dataclass(frozen=True)
class ExactSweep:
    """`stabtest verify-bounds` and `compute_reduction` on a few lattices."""

    name: str
    k_max: int
    rows: int
    lattices: tuple[tuple[str, str], ...]  # (label, graph spec)
    golden: dict = field(default_factory=dict)  # "bounds.csv" -> SHA-256; seed-independent

    def setup_inputs(self) -> dict:
        return {"graphs": [spec for _, spec in self.lattices], "adversaries": []}


WORKLOADS = {
    "mixture-grid": MonteCarlo(
        name="mixture-grid",
        graph="grid:5x5",
        k=5,
        adversary="mixture:perfbench/mixture.json",
        trials=2000,
        golden={
            "transcripts.jsonl": "0a4958d45a5732adb407077917ed9aa5046802d0a49d5242b8f0d7cdb86b1086",
            "summary.csv": "37e7afaaed4b5ed269cf8238900520290c2e8e56ad416149d73d52ac83b6f945",
        },
        exact=(Fraction(83, 198), Fraction(307, 332)),
    ),
    "iid-rhg": MonteCarlo(
        name="iid-rhg",
        graph="rhg:3x3x3",
        k=2,
        adversary="iid:0.01,0.01",
        trials=300,
        golden={
            "transcripts.jsonl": "b7c5d1947a48c3d6cb9431d90b799ad164e57fb8fc3259933d8e0e13b757e8d3",
            "summary.csv": "73979bb4fa0eb5aed5d5fd4d75186382a0528a98780262a00cfe2b38e3b918a9",
        },
    ),
    "exact-sweep": ExactSweep(
        name="exact-sweep",
        k_max=40,
        rows=49360,
        lattices=(("rhg4", "rhg:4x4x4"), ("rhg5", "rhg:5x5x5"), ("rhg6", "rhg:6x6x6")),
        golden={"bounds.csv": "66e65b353050e0339bf3c4eadfd7333e8855ad43d5543bf32c7b190510d57fd8"},
    ),
}


class Checks:
    """Output checks of one run: how many were made and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_package():
    """Import stabtest from the checkout's own source tree, never from elsewhere."""
    init = SRC / "stabtest" / "__init__.py"
    if not init.is_file():
        raise RuntimeError(f"no stabtest source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import stabtest
    import stabtest.cli
    import stabtest.gf2

    if Path(stabtest.__file__).resolve() != init.resolve():
        raise RuntimeError(f"stabtest was imported from {stabtest.__file__}, not {SRC}")
    return stabtest


def master_seed(workload: str, seed: int, round_index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _calibration_kernel() -> int:
    acc = 0
    table = {}
    for i in range(30000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc


def calibrate() -> float:
    """Best of three timings of the calibration kernel: the host's speed now."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - start)
    return best


_SETUP_PROBE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from stabtest import cli
inputs = json.loads(sys.argv[2])
for spec in inputs["graphs"]:
    cli.parse_graph(spec)
for spec in inputs["adversaries"]:
    cli.parse_adversary(spec)
print(time.perf_counter() - start)
"""


class SetupTimer:
    """Import + graph build + adversary parse, timed in fresh interpreters.

    The SETUP_RUNS probes are spread over the run, so that their median does
    not hang on one busy spell of the host, and each is scaled to the quiet
    host's speed like the jobs (see HostClock)."""

    def __init__(self, spec, seconds: float) -> None:
        self.inputs = json.dumps(spec.setup_inputs())
        self.interval = seconds / SETUP_RUNS
        self.times: list[float] = []
        self.next_due = 0.0

    def _probe(self) -> None:
        before = calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), self.inputs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        self.times.append(float(proc.stdout.split()[-1]) * 2 * CAL_REF_S / (before + calibrate()))

    def between_rounds(self) -> None:
        now = perf_counter()
        if len(self.times) < SETUP_RUNS and now >= self.next_due:
            self._probe()
            self.next_due = now + self.interval

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self._probe()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MB."""
    kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def fingerprint(g) -> dict:
    return {"n_b": g.n_b, "n_w": g.n_w, "edges": sum(row.bit_count() for row in g.adjacency.rows)}


class HostClock:
    """Times jobs and scales each to the speed of the quiet host.

    The host is shared and its speed drifts by tens of percent over minutes,
    through contention the guest cannot see: process CPU time tracks wall
    time and steal time stays at zero. So the calibration kernel is timed on
    either side of every job, and the job's wall time is scaled by CAL_REF_S
    over the mean of the two kernel times. Within a round, the timing after
    one job is the timing before the next.
    """

    def __init__(self) -> None:
        self.kernel_times: list[float] = []
        self._last: float | None = None

    def new_round(self) -> None:
        self._last = None

    def _calibrate(self) -> float:
        self._last = calibrate()
        self.kernel_times.append(self._last)
        return self._last

    def time(self, fn, *args):
        """Return (fn(*args), wall seconds, scaled seconds)."""
        before = self._last if self._last is not None else self._calibrate()
        start = perf_counter()
        out = fn(*args)
        wall = perf_counter() - start
        return out, wall, wall * 2 * CAL_REF_S / (before + self._calibrate())


def _job(clock: HostClock, tracer: Tracer | None, job: str, span: str | None, fn, *args):
    """clock.time(fn, *args); traced, it is job `job` and, when `span` is
    given, also a span of that name."""
    if tracer is not None:
        tracer.begin_job(job)
        if span is not None:
            return clock.time(tracer.call, span, fn, *args)
    return clock.time(fn, *args)


def _rounds(seconds: float, trace: bool, setup: SetupTimer | None, clock: HostClock):
    """Yield (round index, tracer or None) until the budget is spent; traced
    runs alternate untraced and traced rounds."""
    deadline = perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or perf_counter() < deadline:
        if setup is not None:
            setup.between_rounds()
        gc.collect()
        clock.new_round()
        yield r, (Tracer() if trace and r % 2 else None)
        r += 1


def _transcript_totals(path: Path) -> tuple[int, int, int]:
    lines = accepted = clean = 0
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            lines += 1
            if record["accepted"]:
                accepted += 1
                clean += record["third_fidelity"]
    return lines, accepted, clean


def _z(hits: int, n: int, p: Fraction) -> float:
    p = float(p)
    return (hits - n * p) / math.sqrt(n * p * (1 - p))


def run_monte_carlo(stb, spec: MonteCarlo, seed: int, seconds: float, trace: bool,
                    setup: SetupTimer | None, outdir: Path, checks: Checks) -> dict:
    t0 = perf_counter()
    g = stb.cli.parse_graph(spec.graph)
    build_s = perf_counter() - t0
    model = stb.cli.parse_adversary(spec.adversary)
    golden = spec.golden if seed == PINNED_SEED else {}
    if spec.golden and not golden:
        checks.notes.append(f"golden-hash check skipped: seed {seed} is not the pinned seed {PINNED_SEED}")
    totals = Counter()
    rounds = []
    clock = HostClock()
    for r, tracer in _rounds(seconds, trace, setup, clock):
        master = master_seed(spec.name, seed, r)
        argv = ["simulate", "--graph", spec.graph, "--k", str(spec.k), "--adversary", spec.adversary,
                "--trials", str(spec.trials), "--seed", str(master), "--outdir", str(outdir)]
        with patched(tracer) if tracer else nullcontext():
            with redirect_stdout(io.StringIO()):
                status, cli_wall_s, cli_s = _job(clock, tracer, "simulate", None, stb.cli.main, argv)
            result, api_wall_s, api_s = _job(clock, tracer, "estimate", "protocol.estimate",
                                             stb.estimate, g, spec.k, model, spec.trials, master)

        transcripts = outdir / "transcripts.jsonl"
        checks.check(status == 0, f"round {r}: simulate exited with status {status}")
        lines, accepted, clean = _transcript_totals(transcripts)
        checks.check(lines == spec.trials, f"round {r}: {lines} transcript lines, expected {spec.trials}")
        expected = {"trials": spec.trials, "accepted": accepted, "accepted_clean": clean}
        checks.check(result.counts == expected,
                     f"round {r}: estimate counts {result.counts} differ from transcripts {expected}")
        if r == 0:
            for file_name, digest in golden.items():
                actual = sha256_file(outdir / file_name)
                checks.check(actual == digest, f"{file_name}: SHA-256 {actual}, golden {digest}")
        totals.update(trials=spec.trials, accepted=accepted, clean=clean)
        rounds.append({"tracer": tracer, "cli_s": cli_s, "api_s": api_s,
                       "cli_wall_s": cli_wall_s, "api_wall_s": api_wall_s,
                       "bytes": transcripts.stat().st_size})

    if spec.exact is not None:
        pass_rate, conditional = spec.exact
        model_pass, model_conditional = _mixture_exact(stb, model, spec.k)
        checks.check((model_pass, model_conditional) == spec.exact,
                     f"t_functionals gives {model_pass}, {model_conditional}; expected {pass_rate}, {conditional}")
        z_pass = _z(totals["accepted"], totals["trials"], model_pass)
        z_cond = _z(totals["clean"], totals["accepted"], model_conditional)
        checks.check(abs(z_pass) <= Z_LIMIT, f"pass rate |z| = {abs(z_pass):.2f} > {Z_LIMIT}")
        checks.check(abs(z_cond) <= Z_LIMIT, f"conditional fidelity |z| = {abs(z_cond):.2f} > {Z_LIMIT}")
        checks.notes.append(f"|z| against the exact values: pass rate {abs(z_pass):.2f}, "
                            f"conditional fidelity {abs(z_cond):.2f} over {totals['trials']} trials")
    return {
        "fingerprints": {spec.graph: fingerprint(g)},
        "rounds": rounds,
        "kernel_times": clock.kernel_times,
        "items": (spec.trials, spec.trials),
        "copies": 2 * spec.k + 1,
        "totals": totals,
        "build_s": build_s,
    }


def _mixture_exact(stb, model, k: int) -> tuple[Fraction, Fraction]:
    t1, t2, t3 = stb.t_functionals(model.beta, model.q0, model.q1, k)
    passing = model.beta * t1 + (1 - model.beta) * t2
    return passing, model.beta * t3 / passing


def run_exact_sweep(stb, spec: ExactSweep, seed: int, seconds: float, trace: bool,
                    setup: SetupTimer | None, outdir: Path, checks: Checks) -> dict:
    # The inputs of this workload do not depend on the seed, so neither does
    # the golden hash of the bounds CSV: it is checked on every seed.
    t0 = perf_counter()
    graphs = [(label, stb.cli.parse_graph(graph)) for label, graph in spec.lattices]
    build_s = perf_counter() - t0
    bounds = outdir / "bounds.csv"
    argv = ["verify-bounds", "--k-max", str(spec.k_max), "--out", str(bounds)]
    rounds = []
    clock = HostClock()
    for r, tracer in _rounds(seconds, trace, setup, clock):
        with patched(tracer) if tracer else nullcontext():
            with redirect_stdout(io.StringIO()) as printed:
                status, cli_wall_s, cli_s = _job(clock, tracer, "verify-bounds", None, stb.cli.main, argv)
            lattice_s = {}
            api_wall_s = api_s = 0.0
            reductions = []
            for label, g in graphs:
                red, lattice_s[label], scaled = _job(clock, tracer, "reduce", "reduction.compute_reduction",
                                                     stb.compute_reduction, g)
                api_wall_s += lattice_s[label]
                api_s += scaled
                reductions.append((label, g, red))

        checks.check(status == 0, f"round {r}: verify-bounds exited with status {status}")
        summary = f"wrote {bounds}: {spec.rows} rows, 0 violations"
        checks.check(printed.getvalue().strip() == summary,
                     f"round {r}: verify-bounds printed {printed.getvalue().strip()!r}, expected {summary!r}")
        with open(bounds) as fh:
            rows = sum(1 for _ in fh) - 1
        checks.check(rows == spec.rows, f"round {r}: bounds CSV has {rows} rows, expected {spec.rows}")
        for file_name, digest in spec.golden.items():
            actual = sha256_file(outdir / file_name)
            checks.check(actual == digest, f"round {r}: {file_name}: SHA-256 {actual}, golden {digest}")
        for label, g, red in reductions:
            rank = stb.gf2.rank(g.adjacency)
            checks.check(red.n_prime == rank, f"round {r}: {label}: n_prime {red.n_prime} != rank {rank}")
        rounds.append({"tracer": tracer, "cli_s": cli_s, "api_s": api_s,
                       "cli_wall_s": cli_wall_s, "api_wall_s": api_wall_s, "lattice_s": lattice_s})
    return {
        "fingerprints": {graph: fingerprint(g) for (_, graph), (_, g) in zip(spec.lattices, graphs)},
        "rounds": rounds,
        "kernel_times": clock.kernel_times,
        "items": (spec.rows, sum(g.n for _, g in graphs)),
        "build_s": build_s,
    }


def run_workload(stb, spec, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    """Run one workload and return its checks, metadata and metric values."""
    checks = Checks()
    setup = None if trace else SetupTimer(spec, seconds)
    runner = run_monte_carlo if isinstance(spec, MonteCarlo) else run_exact_sweep
    run = runner(stb, spec, seed, seconds, trace, setup, outdir, checks)
    untraced = [r for r in run["rounds"] if r["tracer"] is None]
    cli_items, api_items = run["items"]
    values = {key: statistics.median(r[key] for r in untraced)
              for key in ("cli_s", "api_s", "cli_wall_s", "api_wall_s")}
    values["kernel_s"] = statistics.median(run["kernel_times"])
    if trace:
        values.update(layer_metrics(spec, run))
    else:
        values.update(
            cli_items_per_s=cli_items / values["cli_s"],
            api_items_per_s=api_items / values["api_s"],
            setup_s=setup.median(),
            peak_rss_mb=peak_rss_mb(),
        )
    return {"checks": checks, "values": values, "rounds": len(run["rounds"]),
            "fingerprints": run["fingerprints"]}


# Per-layer statistics over spans: (metric, span name, statistic).
#   us_p50 / us_p99 / self_us_p50: percentile of span (self) time, pooled over traced rounds
#   samples: number of spans pooled; calls: spans per traced round
#   s / self_s: per-round total span (self) time, median over traced rounds
SPAN_METRICS = (
    ("protocol.run_trials.us_p50", "protocol.run_trials", "us_p50"),
    ("protocol.run_trials.us_p99", "protocol.run_trials", "us_p99"),
    ("protocol.run_trials.self_us_p50", "protocol.run_trials", "self_us_p50"),
    ("protocol.run_trials.samples", "protocol.run_trials", "samples"),
    ("protocol.trial_seed.us_p50", "protocol.trial_seed", "us_p50"),
    ("protocol.transcript_to_json.us_p50", "protocol.transcript_to_json", "us_p50"),
    ("protocol.transcript_to_json.calls", "protocol.transcript_to_json", "calls"),
    ("pauli.syndromes.us_p50", "pauli.syndromes", "us_p50"),
    ("pauli.syndromes.self_us_p50", "pauli.syndromes", "self_us_p50"),
    ("pauli.syndromes.calls", "pauli.syndromes", "calls"),
    ("gf2.mat_vec.us_p50", "gf2.mat_vec", "us_p50"),
    ("gf2.mat_vec.calls", "gf2.mat_vec", "calls"),
    ("gf2.mat_inverse.s", "gf2.mat_inverse", "s"),
    ("gf2.mat_mul.s", "gf2.mat_mul", "s"),
    ("gf2.column_space_basis.s", "gf2.column_space_basis", "s"),
    ("gf2.kernel_basis.s", "gf2.kernel_basis", "s"),
    ("reduction.compute_reduction.self_s", "reduction.compute_reduction", "self_s"),
    ("analytics.pass_prob.us_p50", "analytics.pass_prob", "us_p50"),
    ("analytics.pass_prob.calls", "analytics.pass_prob", "calls"),
    ("analytics.joint_prob.us_p50", "analytics.joint_prob", "us_p50"),
    ("analytics.joint_prob.calls", "analytics.joint_prob", "calls"),
    ("analytics.conditional_fidelity.us_p50", "analytics.conditional_fidelity", "us_p50"),
    ("analytics.conditional_fidelity.calls", "analytics.conditional_fidelity", "calls"),
    ("analytics.xi.us_p50", "analytics.xi", "us_p50"),
    ("analytics.xi.calls", "analytics.xi", "calls"),
    ("cli.cmd_simulate.self_s", "cli.cmd_simulate", "self_s"),
    ("cli.cmd_verify_bounds.self_s", "cli.cmd_verify_bounds", "self_s"),
)


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def _span_statistic(tracers: list[Tracer], span: str, statistic: str) -> float:
    source = "self_times" if statistic.startswith("self_") else "durations"
    per_round = [getattr(t, source).get(span, ()) for t in tracers]
    pooled = [x for spans in per_round for x in spans]
    if statistic == "samples":
        return len(pooled)
    if statistic == "calls":
        return statistics.median(len(spans) for spans in per_round)
    if statistic in ("s", "self_s"):
        return statistics.median(sum(spans) for spans in per_round)
    q = 0.99 if statistic == "us_p99" else 0.5
    return _percentile(pooled, q) * 1e6


def layer_metrics(spec, run: dict) -> dict:
    rounds = run["rounds"]
    traced = [r for r in rounds if r["tracer"] is not None]
    tracers = [r["tracer"] for r in traced]
    values = {metric: _span_statistic(tracers, span, stat) for metric, span, stat in SPAN_METRICS}

    mc = isinstance(spec, MonteCarlo)
    trials = spec.trials if mc else 0
    totals = run.get("totals", Counter())
    for job in ("simulate", "estimate"):
        calls = statistics.median(t.calls[job, True, "pauli.syndromes"] for t in tracers)
        values[f"pauli.syndromes.calls_per_copy.{job}"] = calls / (trials * run["copies"]) if mc else 0.0
    values["protocol.estimate.us_per_trial"] = (
        _span_statistic(tracers, "protocol.estimate", "s") / trials * 1e6 if mc else 0.0)
    values["protocol.accept_ratio"] = totals["accepted"] / totals["trials"] if mc else 0.0
    values["protocol.clean_ratio"] = totals["clean"] / totals["trials"] if mc else 0.0
    values["cli.transcripts_bytes"] = statistics.median(r["bytes"] for r in rounds) if mc else 0
    for label, _ in WORKLOADS["exact-sweep"].lattices:
        values[f"reduction.compute_reduction.{label}.s"] = (
            0.0 if mc else statistics.median(r["lattice_s"][label] for r in traced))
    values["graphs.build_s"] = run["build_s"]

    def round_s(r):
        return r["cli_s"] + r["api_s"]
    untraced = [r for r in rounds if r["tracer"] is None]
    values["trace.overhead_frac"] = (
        statistics.median(map(round_s, traced)) / statistics.median(map(round_s, untraced)) - 1)
    return values


def run_metadata(args_argv: list[str], seed: int, result: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "argv": args_argv,
        "seed": seed,
        "pinned_seed": PINNED_SEED,
        "rounds": result["rounds"],
        "graphs": result["fingerprints"],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout need not be a repository, and git would search above it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
