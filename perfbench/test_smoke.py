"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads

FULL = workloads.WORKLOADS
TINY = {
    "mixture-grid": replace(FULL["mixture-grid"], graph="grid:2x2", trials=50, golden={}),
    "iid-rhg": replace(FULL["iid-rhg"], graph="rhg:2x2x2", trials=20, golden={}),
    # The labels stay those of the full workload so that the per-layer
    # metric names still match BENCHMARK.json.
    "exact-sweep": replace(
        FULL["exact-sweep"], k_max=3, rows=76, golden={},
        lattices=(("rhg4", "rhg:2x2x2"), ("rhg5", "rhg:2x2x3"), ("rhg6", "rhg:2x3x3")),
    ),
}


@pytest.fixture(scope="module")
def stb():
    return workloads.load_package()


def _run(stb, spec, tmp_path, seed=7, trace=False):
    result = workloads.run_workload(stb, spec, seed=seed, seconds=0, trace=trace, outdir=tmp_path)
    return result, run.result_line(result["values"], result["checks"], trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_reports_every_metric(stb, tmp_path, name, trace):
    result, line = _run(stb, TINY[name], tmp_path, trace=trace)
    assert line["correct"], result["checks"].failures
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in run.benchmark_metrics(trace)}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)


def test_trace_counts_syndrome_passes_per_copy(stb, tmp_path):
    _, line = _run(stb, TINY["iid-rhg"], tmp_path, trace=True)
    metrics = line["metrics"]
    assert metrics["pauli.syndromes.calls_per_copy.simulate"]["value"] == 2.0
    assert metrics["pauli.syndromes.calls_per_copy.estimate"]["value"] == 1.0


def test_golden_hashes_hold_on_the_pinned_seed_and_are_skipped_elsewhere(stb, tmp_path):
    spec = FULL["mixture-grid"]
    pinned, _ = _run(stb, spec, tmp_path, seed=workloads.PINNED_SEED)
    other, _ = _run(stb, spec, tmp_path, seed=workloads.PINNED_SEED + 1)
    assert pinned["checks"].failures == [] and other["checks"].failures == []
    skipped = [n for n in other["checks"].notes if "golden-hash check skipped" in n]
    assert len(skipped) == 1
    assert not any("golden-hash check skipped" in n for n in pinned["checks"].notes)
    assert pinned["checks"].attempted == other["checks"].attempted + len(spec.golden)


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixture-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
