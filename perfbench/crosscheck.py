"""Cross-check the tracer's call counts against cProfile.

    python3 perfbench/crosscheck.py [--scale full|tiny]

For each workload, runs pass 0 at the default seed once under cProfile
without the tracer, then installs the tracer and runs the same pass
again.  Every wrapped function's traced count must equal cProfile's
`ncalls` for its code object; for the generator `cubes_at_level` both
count resumptions.  Prints one line per workload and exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")   # read when numpy loads OpenBLAS
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    sys.stdout, report = sys.stderr, sys.stdout
    import dyadiclab
    import dyadiclab.cli
    import dyadiclab.grid
    import dyadiclab.gridfn
    import dyadiclab.representation
    import dyadiclab.shifts
    import dyadiclab.space
    import dyadiclab.sparse
    from tracer import TARGETS, Tracer, _resolve
    from workloads import DEFAULT_SEED, WORKLOAD_NAMES, make_workload

    codes = {}
    for t in TARGETS:
        holder, name = _resolve(sys.modules[f"dyadiclab.{t.module}"], t.attr)
        code = holder.__dict__[name].__code__
        codes[t.metric] = (code.co_filename, code.co_firstlineno, code.co_name)

    profiled = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work_dir:
        for name in WORKLOAD_NAMES:
            workload = make_workload(dyadiclab, name, args.scale, work_dir, None)
            profiler = cProfile.Profile()
            profiler.runcall(workload.run_pass, DEFAULT_SEED, False)
            stats = pstats.Stats(profiler).stats
            profiled[name] = {m: stats[key][1] if key in stats else 0
                              for m, key in codes.items()}
        tracer = Tracer()
        tracer.install()
        status = 0
        for name in WORKLOAD_NAMES:
            workload = make_workload(dyadiclab, name, args.scale, work_dir, None)
            tracer.reset()
            workload.run_pass(DEFAULT_SEED, False, tracer)
            traced = dict(tracer.calls)
            traced["grid.cubes_at_level"] = sum(
                1 for span in tracer.spans if span[0] == "grid.cubes_at_level")
            bad = [f"{m}: traced {traced.get(m, 0)} vs cProfile {n}"
                   for m, n in profiled[name].items() if traced.get(m, 0) != n]
            total = sum(profiled[name].values())
            print(f"{name}: {len(codes)} functions, {total} calls, "
                  f"{'all counts equal' if not bad else 'MISMATCH'}", file=report)
            for line in bad:
                print(f"  {line}", file=report)
            status |= bool(bad)
    return status


if __name__ == "__main__":
    sys.exit(main())
