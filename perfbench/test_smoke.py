"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric is printed with its unit, that no item fails at
the default seed or at a second seed, that a corrupted reference makes
items fail, that the traced run reports every per-layer metric, that the
trace counts agree with cProfile, and that the benchmark refuses to run
without the library's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import per_layer_metrics  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    BENCH = json.load(_stream)


def run_bench(*extra, workload="shift-sweep", seed=0, trace=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def fail_ratio(proc) -> float:
    match = re.search(r"^# fail_ratio = (\S+) ratio", proc.stdout, re.M)
    assert match, proc.stdout
    return float(match.group(1))


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        per_layer_metrics()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_printed_and_no_failures(workload):
    proc = run_bench(workload=workload)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in list(units.items()) + [("fail_ratio", "ratio")]:
        assert re.search(rf"^# {name} = \S+ {re.escape(unit)}\b", proc.stdout, re.M)
    assert fail_ratio(proc) == 0.0


def test_second_seed_runs_gates_only():
    proc = run_bench(workload="translated-2d", seed=5)
    assert proc.returncode == 0, proc.stderr
    assert result_of(proc)["failed"] == 0


@pytest.mark.parametrize("workload,corrupt", [
    ("shift-sweep", lambda doc: doc["rows"][0].__setitem__(
        2, repr(float(doc["rows"][0][2]) * (1 + 1e-9)))),
    ("translated-2d", lambda doc: next(
        item for item in doc["items"].values() if "sketch" in item
    )["sketch"].__setitem__(0, 1.5)),
])
def test_corrupted_reference_fails_items(tmp_path, workload, corrupt):
    ref_dir = tmp_path / "reference"
    shutil.copytree(os.path.join(HERE, "reference"), ref_dir)
    path = ref_dir / f"{workload}-tiny.json"
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    proc = run_bench("--reference-dir", str(ref_dir), workload=workload)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    assert fail_ratio(proc) > 0.0
    # away from the default seed the reference is not consulted
    assert run_bench("--reference-dir", str(ref_dir), workload=workload,
                     seed=3).returncode == 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(workload):
    proc = run_bench(workload=workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_trace_counts_match_cprofile():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "crosscheck.py"),
                           "--scale", "tiny"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_bench(cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
