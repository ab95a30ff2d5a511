#!/usr/bin/env python3
"""Write the benchmark's end-to-end numbers for one or more checkouts to a JSON file.

Usage:
    python3 scripts/bench.py --out BENCH_<PR>.json [--tree LABEL=PATH ...]

Each checkout's own `perfbench/run.py` runs untraced for 8 s on every
workload at seeds 1, 2 and 3; runs are interleaved (per seed, per workload,
one run per checkout in turn) so the machine's drift falls alike on each.
The last JSON line of each run gives its metrics and `correct`; the exit
code is kept beside them.  Exit status: 0 if every run exited 0, else 1.  Per checkout the file records git HEAD (and whether the tree
differs from it), the line count of `src/dyadiclab/*.py`, the machine line
that `run.py` prints (Python, numpy, BLAS and its thread count), every run
and the median of each metric per workload.  Without `--tree` the checkout
holding this script is measured under the label "HEAD".  Nothing under
`perfbench/` is changed.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
WORKLOADS = ("shift-sweep", "stopping-sparse", "haar-representation", "translated-2d")
SEEDS = (1, 2, 3)
SECONDS = 8.0


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


def record(tree: str, runs: list) -> dict:
    machine = next((run["machine"] for run in runs if run["machine"]), None)
    runs = [{key: value for key, value in run.items() if key != "machine"} for run in runs]
    return {**git_state(tree), "src_lines": src_lines(tree), "machine": machine,
            "medians": medians(runs), "runs": runs}


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
    doc = {"seeds": SEEDS, "seconds": SECONDS,
           "checkouts": {label: record(tree, runs[label]) for label, tree in trees.items()}}
    with open(args.out, "w") as stream:
        json.dump(doc, stream, indent=1)
        stream.write("\n")
    failed = [run for label in runs for run in runs[label] if run["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
