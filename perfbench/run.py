"""Run one dyadiclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shift-sweep --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout.  Every measurement comes from fresh
worker processes (`worker.py`) pinned to one BLAS/OpenMP thread: five
that only set up, then one that runs the workload's passes for
`--seconds`.  Times are reported in reference seconds (`calibrate.py`).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before
it repeat the metrics with their quartiles and the measured seconds,
the failure ratio and the machine, Python, numpy and BLAS builds.

Exit status: 0 when every item passed, 1 when some item failed, 2 on bad
usage or a checkout without dyadiclab's sources, 3 when the trace
misses a layer on its home workload, 4 when a worker crashed or ran out
of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SCALES, WORKLOAD_NAMES  # noqa: E402

SETUP_PROBES = 5          # set-up only workers before the measuring one
DEADLINE_S = 170.0        # whole run, set-up probes included
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one dyadiclab benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, 0 <= seed < 2**31")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run that reports per-layer metrics")
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'tiny' shrinks every workload, for the smoke test")
    parser.add_argument("--reference-dir", default=os.path.join(HERE, "reference"),
                        help="recorded outputs at the default seed")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must lie in [0, 2**31)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def spawn_worker(args, work_dir: str, out_dir: str, deadline: float,
                 setup_only: bool) -> tuple:
    """(set-up seconds, worker result) of one fresh worker process."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--reference-dir", args.reference_dir,
           "--work-dir", work_dir, "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError("worker ran out of time", 4)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with status {proc.returncode}", 4)
    result = json.loads(lines[-1])
    return (result["ready_ns"] - spawned_ns) / 1e9, result


def median_quartiles(values: list) -> tuple:
    """(median, first quartile, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3


def measure(args) -> tuple:
    """(set-up samples as (measured s, to-reference factor), worker result)."""
    import calibrate

    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        setups = []
        probe = calibrate.Probe()
        for _ in range(SETUP_PROBES):
            setup_s = spawn_worker(args, work_dir, out_dir, deadline, True)[0]
            setups.append((setup_s, probe()))
        result = spawn_worker(args, work_dir, out_dir, deadline, False)[1]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return setups, result


def report(args, setups: list, result: dict) -> int:
    env = result["env"]
    print(f"# machine: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} thread_env={env['thread_env']}")
    passes = result["passes"]
    measured = {"wall_s": [p["wall_s"] for p in passes],
                "cpu_s": [p["cpu_s"] for p in passes],
                "setup_s": [s for s, _ in setups],
                "peak_rss_mb": [result["peak_rss_mb"]]}
    series = {"wall_s": [p["wall_ref_s"] for p in passes],
              "cpu_s": [p["cpu_ref_s"] for p in passes],
              "setup_s": [s * k for s, k in setups],
              "peak_rss_mb": measured["peak_rss_mb"]}
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} passes={len(passes)} setups={len(setups)}")
    for name, unit in END_TO_END:
        mid, q1, q3 = median_quartiles(series[name])
        line = (f"# {name} = {mid:.6g} {unit}  (quartiles {q1:.6g} .. {q3:.6g}, "
                f"n={len(series[name])}")
        if name != "peak_rss_mb":
            line += f"; measured {median(measured[name]):.6g} {unit}"
        print(line + ")")
    print(f"# fail_ratio = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} items failed)")
    for line in result["failures"][:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
        for name, entry in metrics.items():
            print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": median_quartiles(series[name])[0], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(WORKER_ENV)   # before numpy loads, here and in every worker
    if not os.path.isfile(os.path.join(ROOT, "src", "dyadiclab", "__init__.py")):
        print(f"error: no dyadiclab sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        setups, result = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    if "trace_error" in result:
        print(f"error: {result['trace_error']}", file=sys.stderr)
        return 3
    return report(args, setups, result)


if __name__ == "__main__":
    sys.exit(main())
