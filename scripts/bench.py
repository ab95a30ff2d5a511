#!/usr/bin/env python3
"""Write the benchmark's end-to-end numbers for one or more checkouts to a JSON file.

Usage:
    python3 scripts/bench.py --out BENCH_<PR>.json [--tree LABEL=PATH ...]

Each checkout's own `perfbench/run.py` runs untraced for 8 s on every
workload at seeds 1, 2 and 3; runs are interleaved (per seed, per workload,
one run per checkout in turn) so the machine's drift falls alike on each.
The last JSON line of each run gives its metrics and `correct`; the exit
code is kept beside them.  Then each checkout's `scripts/run_reports.py`
runs the full catalog at seed 7 and its defaults `CATALOG_RUNS` times, one
run per checkout in turn, each run bracketed by `perfbench/calibrate.py`'s
kernel: the record keeps every run's wall time, its factor to reference
seconds and each experiment's `timing_ms` from its JSON summary, and their
medians, with `wall_ref_s` the median wall time times the median factor.
As many catalog runs again, interleaved with those, set `ONE_THREAD` (one
BLAS and OpenMP thread) in the child's environment; they are recorded the
same way under `catalog_one_thread`, next to the default-thread `catalog`.
Then each checkout's `run.py` runs traced (`--trace 1`) once per workload
at seed 0 for 4 s, the checkouts in turn: the record keeps each run's exit
code, `correct` and every per-layer `*.calls` count.  Last, each checkout's
tier-1 suite (`python -m pytest -q --continue-on-collection-errors` with its
own `src` on PYTHONPATH) runs once, the checkouts in turn: the record keeps
its exit code, wall time and the counts of its summary line (passed, failed
and xfailed always, other outcomes when pytest reports them).  Exit status:
0 if every run exited 0, else 1.  Per checkout the file records git HEAD (and
whether the tree differs from it), the line count of `src/dyadiclab/*.py`,
the machine line that `run.py` prints (Python, numpy, BLAS and its thread
count), every run and the median of each metric per workload.  Without
`--tree` the checkout holding this script is measured under the label
"HEAD".  Nothing under `perfbench/` is changed; its calibration module is
only imported.
"""

import argparse
import glob
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SPEC = importlib.util.spec_from_file_location(
    "bench_calibrate", os.path.join(ROOT, "perfbench", "calibrate.py"))
calibrate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate)

WORKLOADS = ("shift-sweep", "stopping-sparse", "haar-representation", "translated-2d")
SEEDS = (1, 2, 3)
SECONDS = 8.0
CATALOG_SEED = 7
CATALOG_RUNS = 5  # three samples of one tree spread by up to a third
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
TRACE_SEED, TRACE_SECONDS = 0, 4.0


def parse_run(stdout: str, exit_code: int) -> dict:
    """Exit code, `correct`, metric values and machine line of one `run.py` output.
    A run that printed no JSON line has `correct` None and no metrics."""
    machine, result = None, None
    for line in stdout.splitlines():
        if line.startswith("# machine: "):
            machine = line[len("# machine: "):]
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
    if result is None:
        return {"exit": exit_code, "correct": None, "metrics": {}, "machine": machine}
    return {"exit": exit_code, "correct": result.get("correct"), "machine": machine,
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def src_lines(tree: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "dyadiclab", "*.py")):
        with open(path) as stream:
            total += sum(1 for _ in stream)
    return total


def git_state(tree: str) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    status = git("status", "--porcelain")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, os.path.join(tree, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    return {"workload": workload, "seed": seed, **parse_run(done.stdout, done.returncode)}


def traced_record(stdout: str, exit_code: int) -> dict:
    """Exit code, `correct` and the per-layer call counts of one traced `run.py` output."""
    run = parse_run(stdout, exit_code)
    return {"exit": run["exit"], "correct": run["correct"],
            "calls": {name: value for name, value in run["metrics"].items()
                      if name.endswith(".calls")}}


def run_traced(tree: str, workload: str) -> dict:
    done = subprocess.run([sys.executable, os.path.join(tree, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(TRACE_SEED),
                           "--seconds", str(TRACE_SECONDS), "--trace", "1"],
                          cwd=tree, capture_output=True, text=True)
    return traced_record(done.stdout, done.returncode)


def tier1_record(stdout: str, exit_code: int, wall_s: float) -> dict:
    """Exit code, wall time and outcome counts of one `pytest -q` run, read from its
    last summary line ("12 failed, 943 passed, 1 xfailed in 98.1s"); passed, failed
    and xfailed are 0 when absent.  A run without that line has only zeros."""
    counts = {"passed": 0, "failed": 0, "xfailed": 0}
    for line in reversed(stdout.splitlines()):
        found = re.fullmatch(r"=*\s*((?:\d+ \w+(?:, )?)+) in [\d.]+s.*", line.strip())
        if found:
            counts.update((kind, int(n)) for n, kind in re.findall(r"(\d+) (\w+)",
                                                                   found.group(1)))
            break
    return {"exit": exit_code, "wall_s": wall_s, **counts}


def run_tier1(tree: str) -> dict:
    """The checkout's tier-1 suite, with its own `src` first on the module path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, capture_output=True, text=True, env=env)
    return tier1_record(done.stdout, done.returncode, time.perf_counter() - start)


def parse_summary(text: str) -> dict:
    """Each experiment's `timing_ms` from the catalog's JSON summary."""
    return {name: int(ms) for name, ms in json.loads(text)["timing_ms"].items()}


def catalog_run(exit_code: int, wall_s: float, factor: float, summary) -> dict:
    """One catalog run: exit code, wall time, its product with `factor` (the
    calibration's reference seconds per measured second) and per-experiment
    `timing_ms`.  A run that wrote no summary (`summary` None) has no timings."""
    timing = {} if summary is None else parse_summary(summary)
    return {"exit": exit_code, "wall_s": wall_s, "wall_ref_s": wall_s * factor,
            "reference_factor": factor, "timing_ms": timing}


def catalog_record(runs: list) -> dict:
    """A checkout's catalog runs and their medians: the first nonzero exit code (else
    0), wall time, factor, each experiment's `timing_ms` over the runs that have it,
    and `wall_ref_s`, the median wall time times the median factor."""
    wall_s = statistics.median(run["wall_s"] for run in runs)
    factor = statistics.median(run["reference_factor"] for run in runs)
    names = dict.fromkeys(name for run in runs for name in run["timing_ms"])
    return {"exit": next((run["exit"] for run in runs if run["exit"]), 0),
            "wall_s": wall_s, "wall_ref_s": wall_s * factor, "reference_factor": factor,
            "timing_ms": {name: statistics.median(run["timing_ms"][name] for run in runs
                                                  if name in run["timing_ms"])
                          for name in names},
            "runs": runs}


def run_catalog(tree: str, env=None) -> dict:
    """The checkout's full catalog at seed 7 and its defaults, bracketed by the
    calibration kernel; `env` is the child's environment (None: this one's)."""
    with tempfile.TemporaryDirectory(prefix="bench-catalog-") as out:
        before = calibrate.seconds()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, os.path.join(tree, "scripts", "run_reports.py"),
                               "--seed", str(CATALOG_SEED), "--out", out],
                              cwd=tree, capture_output=True, text=True, env=env)
        wall_s = time.perf_counter() - start
        factor = calibrate.to_reference(before, calibrate.seconds())
        try:
            with open(os.path.join(out, "catalog.json")) as stream:
                summary = stream.read()
        except OSError:  # the run stopped before writing its summary
            summary = None
    return catalog_run(done.returncode, wall_s, factor, summary)


def medians(runs: list) -> dict:
    """Per workload, the median over its runs of each metric."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        values = {}
        for run in runs:
            if run["workload"] == workload:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        out[workload] = {name: statistics.median(v) for name, v in values.items()}
    return out


def record(tree: str, runs: list, catalog=None, traced=None, catalog_one_thread=None,
           tier1=None) -> dict:
    machine = next((run["machine"] for run in runs if run["machine"]), None)
    runs = [{key: value for key, value in run.items() if key != "machine"} for run in runs]
    return {**git_state(tree), "src_lines": src_lines(tree), "machine": machine,
            "medians": medians(runs), "runs": runs, "catalog": catalog,
            "catalog_one_thread": catalog_one_thread, "traced": traced, "tier1": tier1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a checkout to measure (repeatable); default HEAD=<this checkout>")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.tree) or {"HEAD": ROOT}
    runs = {label: [] for label in trees}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for label, tree in trees.items():
                run = run_once(tree, workload, seed, SECONDS)
                runs[label].append(run)
                print(f"{label} {workload} seed={seed} exit={run['exit']} "
                      f"wall_s={run['metrics'].get('wall_s')}", flush=True)
    samples = {(label, threads): [] for threads in ("default", "one") for label in trees}
    for _ in range(CATALOG_RUNS):
        for threads, env in (("default", None), ("one", {**os.environ, **ONE_THREAD})):
            for label, tree in trees.items():
                run = run_catalog(tree, env)
                samples[label, threads].append(run)
                print(f"{label} catalog seed={CATALOG_SEED} threads={threads} "
                      f"exit={run['exit']} wall_s={run['wall_s']:.3f} "
                      f"factor={run['reference_factor']:.3f}", flush=True)
    samples = {key: catalog_record(runs) for key, runs in samples.items()}
    traced = {label: {} for label in trees}
    for workload in WORKLOADS:
        for label, tree in trees.items():
            traced[label][workload] = run_traced(tree, workload)
            print(f"{label} {workload} traced seed={TRACE_SEED} "
                  f"exit={traced[label][workload]['exit']}", flush=True)
    tier1 = {}
    for label, tree in trees.items():
        tier1[label] = run_tier1(tree)
        print(f"{label} tier-1 exit={tier1[label]['exit']} "
              f"wall_s={tier1[label]['wall_s']:.1f} passed={tier1[label]['passed']} "
              f"failed={tier1[label]['failed']} xfailed={tier1[label]['xfailed']}", flush=True)
    doc = {"seeds": SEEDS, "seconds": SECONDS, "catalog_seed": CATALOG_SEED,
           "catalog_runs": CATALOG_RUNS, "one_thread_env": ONE_THREAD,
           "trace_seed": TRACE_SEED, "trace_seconds": TRACE_SECONDS,
           "checkouts": {label: record(tree, runs[label], samples[label, "default"],
                                       traced[label], samples[label, "one"], tier1[label])
                         for label, tree in trees.items()}}
    with open(args.out, "w") as stream:
        json.dump(doc, stream, indent=1)
        stream.write("\n")
    failed = [run for label in runs for run in runs[label] if run["exit"] != 0]
    failed += [key for key, catalog in samples.items() if catalog["exit"] != 0]
    failed += [run for label in traced for run in traced[label].values() if run["exit"] != 0]
    failed += [label for label, run in tier1.items() if run["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
