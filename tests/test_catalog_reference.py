"""The fast catalog report at seed 7 against its recorded reference.

`data/catalog_fast_seed7.csv` is the report of
`scripts/run_reports.py --fast --seed 7`.  Every row must keep its check id,
anchor, pass flag and seed, and its measured value and bound up to rounding
in the last bits (relative 1e-12, absolute 1e-12); runtime_ms is wall time
and is not compared.  The script also prints one `timing_ms` line per
experiment.
"""

import csv
import math
import os
import subprocess
import sys

from dyadiclab.experiments import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "data", "catalog_fast_seed7.csv")


def read_rows(path):
    with open(path, newline="") as stream:
        reader = csv.DictReader(stream)
        return [{key: value for key, value in row.items() if key != "runtime_ms"}
                for row in reader]


def test_fast_catalog_matches_reference(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_reports.py"),
                           "--fast", "--seed", "7", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    timing = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("timing_ms ")]
    assert timing == [f"{name}:" for name in sorted(EXPERIMENTS)]
    got, want = read_rows(tmp_path / "catalog.csv"), read_rows(REFERENCE)
    assert [row["check_id"] for row in got] == [row["check_id"] for row in want]
    for a, b in zip(got, want):
        for key in ("anchor", "pass", "seed"):
            assert a[key] == b[key], (a["check_id"], key)
        for key in ("measured", "bound"):
            assert math.isclose(float(a[key]), float(b[key]), rel_tol=1e-12,
                                abs_tol=1e-12), (a["check_id"], key, a[key], b[key])
