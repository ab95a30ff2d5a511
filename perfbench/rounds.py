"""Run the benchmark in interleaved rounds and summarise each metric.

    python3 perfbench/rounds.py --rounds 10 [--workload NAME ...] [--seed-base N]
                                [--against FILE]

Each round runs every chosen workload once, in an order rotated by one
per round, with seed `seed-base + round`.  For every end-to-end metric
the summary gives the median and quartiles over rounds and the spread,
(q3 - q1) / median, beside the metric's bound in BENCHMARK.json.
`--against` compares the medians with those of an earlier summary file
and flags a metric whose median got worse by more than its bound.
Results are written to `perfbench/out/rounds-<time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["machine"] = next((line[len("# machine: "):] for line in lines
                              if line.startswith("# machine: ")), None)
    return result


def summarise(results: dict, bench: dict) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, mid, q3 = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            rows[name] = {"median": mid, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / mid if mid else float("inf"),
                          "bound": bounds.get(name, {}).get("bound"),
                          "values": values}
        summary[workload] = {"metrics": rows, "machine": runs[0]["machine"],
                             "failed": sum(run["failed"] for run in runs),
                             "attempted": sum(run["attempted"] for run in runs)}
    return summary


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--against", help="earlier rounds file to compare medians with")
    args = parser.parse_args(argv)
    workloads = args.workload or names

    results = {w: [] for w in workloads}
    for r in range(args.rounds):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for workload in order:
            start = time.monotonic()
            result = run_once(workload, args.seed_base + r, bench["run_seconds"])
            results[workload].append(result)
            print(f"round {r} {workload} seed {args.seed_base + r}: "
                  f"{time.monotonic() - start:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                              result["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary = summarise(results, bench)
    earlier = None
    if args.against:
        with open(args.against) as stream:
            earlier = json.load(stream)["summary"]
    status = 0
    for workload, entry in summary.items():
        print(f"{workload}: {entry['failed']} of {entry['attempted']} items failed")
        if entry["failed"]:
            status = 1
        for name, row in entry["metrics"].items():
            line = (f"  {name:12s} median {row['median']:.5g}  quartiles "
                    f"{row['q1']:.5g} .. {row['q3']:.5g}  spread {row['spread']:.3f}")
            if row["bound"] is not None:
                line += f"  bound {row['bound']}"
                if name != "setup_s" and row["spread"] > row["bound"]:
                    line += "  SPREAD OVER BOUND"
                    status = 1
            if earlier is not None and row["bound"] is not None:
                old = earlier[workload]["metrics"][name]["median"]
                change = (row["median"] - old) / old
                line += f"  change {change:+.3f}"
                if change > row["bound"]:
                    line += "  WORSE THAN BOUND"
                    status = 1
            print(line)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", time.strftime("rounds-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as stream:
        json.dump({"args": vars(args), "summary": summary}, stream, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
