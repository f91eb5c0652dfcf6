"""stabtest benchmark: command-line entry point.

    python3 perfbench/run.py --workload mixture-grid --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout, checks its outputs, prints a readable report and, as the last line
of standard output, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a run that alternates traced
and untraced rounds. Exits 2 without a result when the stabtest source tree
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

# What the two throughput figures are called on each kind of workload:
# (name, unit, key in the run's values).
REPORT = {
    workloads.MonteCarlo: (
        ("sim_trials_per_s", "1/s", "cli_items_per_s"),
        ("estimate_trials_per_s", "1/s", "api_items_per_s"),
    ),
    workloads.ExactSweep: (
        ("bounds_rows_per_s", "1/s", "cli_items_per_s"),
        ("reduction_s", "s", "api_s"),
    ),
}


def benchmark_metrics(trace: bool) -> list[dict]:
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def result_line(values: dict, checks: workloads.Checks, trace: bool) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in benchmark_metrics(trace)}
    failed = len(checks.failures)
    return {"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(workloads.ROOT)
    try:
        stb = workloads.load_package()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    out_root = workloads.ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        run = workloads.run_workload(stb, spec, args.seed, args.seconds, bool(args.trace),
                                     Path(outdir))
    finally:
        shutil.rmtree(outdir)
    checks, values = run["checks"], run["values"]

    meta = workloads.run_metadata([sys.argv[0], *argv], args.seed, run)
    print("meta: " + json.dumps(meta, sort_keys=True))
    for note in checks.notes:
        print(f"note: {note}")
    for failure in checks.failures:
        print(f"check failed: {failure}")
    failed_frac = len(checks.failures) / checks.attempted
    print(f"failed_frac: {failed_frac} ({len(checks.failures)} of {checks.attempted} checks)")
    print(f"unscaled median round: command-line job {values['cli_wall_s']:.6g} s, "
          f"library job {values['api_wall_s']:.6g} s; calibration kernel {values['kernel_s'] * 1e3:.4g} ms "
          f"(quiet host: {workloads.CAL_REF_S * 1e3:.4g} ms)")
    if not args.trace:
        for name, unit, key in REPORT[type(spec)]:
            print(f"{name}: {values[key]:.6g} {unit}")
    line = result_line(values, checks, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
