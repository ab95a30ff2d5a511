"""One benchmark worker: a fresh single-threaded process that runs a workload.

`run.py` starts this script and reads one JSON line from its standard
output.  The worker imports numpy and dyadiclab from the checkout's
`src/`, builds the workload and notes the monotonic clock: that instant
ends set-up.  With `--setup-only` it stops there.  Otherwise it runs
passes until `--seconds` have gone by (at least `MIN_PASSES`); with
`--trace 1` it first runs untraced passes for half the time, then
installs the tracer and runs traced passes for the other half.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
OVERHEAD_PASS_OFFSET = 100_000   # pass indices of the untraced half of a traced run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--reference-dir", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def run_passes(workload, seed, seconds, first_index, min_passes, tracer=None,
               on_pass=None):
    """Passes until `seconds` are used, with calibration probes between
    their timed segments."""
    from calibrate import Probe
    from workloads import DEFAULT_SEED, pass_seed

    passes = []
    start = time.perf_counter()
    k = 0
    last = 0.0
    probe = Probe()
    # start another pass only if it should end less than half a pass late
    while k < min_passes or time.perf_counter() - start + last / 2 < seconds:
        begun = time.perf_counter()
        index = first_index + k
        check_reference = (index == 0 and seed == DEFAULT_SEED
                           and workload.reference is not None)
        if tracer is not None:
            tracer.reset()
        result = workload.run_pass(pass_seed(seed, index), check_reference, tracer,
                                   probe)
        passes.append(result)
        if on_pass is not None:
            on_pass(k, result)
        last = time.perf_counter() - begun
        k += 1
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    protocol = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr   # library output must not reach the protocol line

    import numpy  # noqa: F401  (set-up covers the numpy import)

    import dyadiclab
    import dyadiclab.cli
    import dyadiclab.experiments
    import dyadiclab.grid
    import dyadiclab.gridfn
    import dyadiclab.representation
    import dyadiclab.shifts
    import dyadiclab.space
    import dyadiclab.sparse
    import workloads

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(dyadiclab.__file__).startswith(src + os.sep):
        raise SystemExit(f"dyadiclab imported from {dyadiclab.__file__}, not {src}")
    reference = workloads.load_reference(args.reference_dir, args.workload, args.scale)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir)
    workload = workloads.make_workload(dyadiclab, args.workload, args.scale,
                                       work_dir, reference)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {"ready_ns": ready_ns}
    if not args.setup_only:
        result.update(measure(args, workload))
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


def measure(args, workload) -> dict:
    out = {"env": environment()}
    traced = []
    if not args.trace:
        plain = run_passes(workload, args.seed, args.seconds, 0, MIN_PASSES)
    else:
        from statistics import median

        from tracer import Tracer, layer_metrics, zero_call_errors

        half = args.seconds / 2.0
        plain = run_passes(workload, args.seed, half, OVERHEAD_PASS_OFFSET,
                           MIN_TRACE_PASSES)
        tracer = Tracer()
        tracer.install()
        summaries, first_spans = [], []

        def keep(k, result):
            summaries.append(tracer.pass_summary(result.wall_ref_s / result.wall_s))
            if k == 0:
                first_spans.extend(tracer.spans)

        traced = run_passes(workload, args.seed, half, 0, MIN_TRACE_PASSES,
                            tracer, keep)
        tracer.write_spans(os.path.join(args.out_dir, f"spans-{args.workload}.csv.gz"),
                           first_spans)
        missing = zero_call_errors(summaries[0], args.workload)
        if missing:
            out["trace_error"] = ("wrapped functions with zero calls on their home "
                                  f"workload {args.workload}: {missing}")
        overhead = (median(p.wall_ref_s for p in traced)
                    / median(p.wall_ref_s for p in plain))
        out["layers"] = layer_metrics(summaries[0], [s["self_s"] for s in summaries],
                                      overhead)
    out["passes"] = [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "wall_ref_s": p.wall_ref_s,
                      "cpu_ref_s": p.cpu_ref_s} for p in plain]
    out["attempted"] = sum(p.items for p in plain + traced)
    out["failures"] = [f"{item}: {why}" for p in plain + traced
                       for item, why in sorted(p.failures.items())]
    out["peak_rss_mb"] = peak_rss_mb()
    return out


if __name__ == "__main__":
    sys.exit(main())
