"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record.py

Runs pass 0 of each workload at the default seed, with one BLAS thread,
and writes `perfbench/reference/<workload>-<scale>.json`.  Run it only
when the expected outputs change on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")   # read when numpy loads OpenBLAS
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import dyadiclab
    import dyadiclab.cli
    import dyadiclab.grid
    import dyadiclab.gridfn
    import dyadiclab.shifts
    import dyadiclab.space
    import dyadiclab.sparse
    from workloads import (DEFAULT_SEED, SCALES, WORKLOAD_NAMES, make_workload,
                           reference_path)

    ref_dir = os.path.join(HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for scale in SCALES:
        for name in WORKLOAD_NAMES:
            with tempfile.TemporaryDirectory(dir=HERE) as work_dir:
                workload = make_workload(dyadiclab, name, scale, work_dir, None)
                doc = workload.record(DEFAULT_SEED)
            path = reference_path(ref_dir, name, scale)
            with open(path, "w") as stream:
                json.dump(doc, stream, indent=1, sort_keys=True)
                stream.write("\n")
            print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
