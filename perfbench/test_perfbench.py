"""Tests of the benchmark itself, at the tiny ``--size smoke``.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_MODULES = {"synth", "dsp", "ica", "features", "kpca", "nn", "pipeline", "fileio", "cli"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _smoke(workload, trace):
    done = _bench("--workload", workload, "--seed", SEED, "--seconds", 1, "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    return result


def _spans(workload):
    path = run.RESULTS / f"{workload}-seed{SEED}-trace1-spans.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs per workload with one seed, plus the span names
    of the second."""
    runs = {}
    for workload in run.WORKLOADS:
        first = _smoke(workload, 1)
        second = _smoke(workload, 1)
        runs[workload] = (first, second, {span["name"] for span in _spans(workload)})
    return runs


def test_spec_names_the_metrics_the_code_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(tracer.DETERMINISTIC) <= set(tracer.LAYER_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = _smoke(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.E2E_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_prints_every_per_layer_metric(traced):
    for first, _, _ in traced.values():
        assert {name: m["unit"] for name, m in first["metrics"].items()} == tracer.LAYER_UNITS


def test_deterministic_counts_repeat_for_a_fixed_seed(traced):
    for workload, (first, second, _) in traced.items():
        for name in tracer.DETERMINISTIC:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], (workload, name)


def test_traced_run_emits_a_span_for_every_module(traced):
    seen = {name.split(".")[0] for _, _, names in traced.values() for name in names}
    assert TRACED_MODULES <= seen
    # The command-line workload alone crosses every module.
    assert TRACED_MODULES <= {name.split(".")[0] for name in traced["experiment_cli"][2]}
    assert {"nn.forward_train", "nn.forward_infer", "nn.backward"} <= traced["train_fused"][2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "frontend", "--seed", SEED, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
