"""Command-line experiment runner with machine-readable reports.

Reports carry one CSV row per check (check_id, anchor, measured, bound,
pass, seed, runtime_ms) plus a JSON summary.  Identical configuration and
seed reproduce every column byte for byte except runtime_ms, which is
wall time.  Exit status: 0 all checks pass, 1 a check failed, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .experiments import EXPERIMENTS, run_experiment

CSV_HEADER = "check_id,anchor,measured,bound,pass,seed,runtime_ms"

CONFIG_KEYS = {"experiments", "seed", "params", "out_csv", "out_json"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line usage error, not a usage dump."""

    def error(self, message):
        raise UsageError(message)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as stream:
            doc = json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("config 'params' must map experiment names to overrides")
    for name, overrides in params.items():
        if name not in EXPERIMENTS:
            raise UsageError(f"config params for unknown experiment {name!r}")
        if not isinstance(overrides, dict):
            raise UsageError(f"config params for {name!r} must be an object")
        defaults = EXPERIMENTS[name].defaults
        bad = set(overrides) - set(defaults)
        if bad:
            raise UsageError(f"unknown parameters for {name!r}: {sorted(bad)}")
        for key, value in overrides.items():
            if not _fits(value, defaults[key]):
                raise UsageError(f"parameter {key!r} of {name!r} takes "
                                 f"{type(defaults[key]).__name__}, not "
                                 f"{type(value).__name__}")
    return doc


def _fits(value, default) -> bool:
    """Int takes int, float takes int or float, bool fits none.  A list takes
    a list: of the same length, fitting item by item, when the default mixes
    item types (a record such as [gamma, r]); else each item fits the first."""
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list) and isinstance(value, list) and default:
        if len({type(item) for item in default}) > 1:
            return len(value) == len(default) and all(map(_fits, value, default))
        return all(_fits(item, default[0]) for item in value)
    return isinstance(value, type(default))


def _flag_overrides(args, name: str) -> dict:
    defaults = EXPERIMENTS[name].defaults
    overrides = {}
    if args.depth is not None and "depth" in defaults:
        overrides["depth"] = args.depth
    if args.p and "p_list" in defaults:
        overrides["p_list"] = list(args.p)
    if args.gamma is not None and "gamma" in defaults:
        overrides["gamma"] = args.gamma
    if args.r is not None and "r" in defaults:
        overrides["r"] = args.r
    return overrides


def _format_row(check, runtime_ms: int) -> str:
    anchor = check.anchor.replace('"', "'")
    return (f'{check.check_id},"{anchor}",{check.measured!r},{check.bound!r},'
            f"{str(check.passed).lower()},{check.seed},{runtime_ms}")


def _run(args) -> int:
    config = _load_config(args.config)
    seed = args.seed
    if seed is None:
        seed = config.get("seed")
    if seed is None:
        seed = int(os.environ.get("DYADICLAB_SEED", "0"))
    names = list(args.experiment or config.get("experiments", []))
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {name!r}; see 'list'")

    def run_one(name: str):
        overrides = dict(config.get("params", {}).get(name, {}))
        overrides.update(_flag_overrides(args, name))
        start = time.perf_counter()
        checks = run_experiment(name, seed, overrides)
        elapsed_ms = int(round((time.perf_counter() - start) * 1000))
        return name, checks, elapsed_ms

    rows = []
    summary = {"seed": seed, "experiments": {}, "all_passed": True}
    for name, checks, elapsed_ms in map(run_one, names):
        summary["experiments"][name] = {
            "checks": len(checks),
            "failed": [c.check_id for c in checks if not c.passed],
        }
        summary.setdefault("timing_ms", {})[name] = elapsed_ms
        for check in checks:
            rows.append((check.check_id, _format_row(check, elapsed_ms), check.passed))
            summary["all_passed"] &= check.passed
    rows.sort(key=lambda item: item[0])

    out_csv = args.out or config.get("out_csv")
    csv_text = CSV_HEADER + "\n" + "".join(line + "\n" for _, line, _ in rows)
    if out_csv:
        with open(out_csv, "w") as stream:
            stream.write(csv_text)
        out_json = config.get("out_json") or os.path.splitext(out_csv)[0] + ".json"
        with open(out_json, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
            stream.write("\n")
    else:
        sys.stdout.write(csv_text)
    for _, line, passed in rows:
        if not passed:
            sys.stderr.write(f"FAIL {line.split(',')[0]}\n")
    return 0 if summary["all_passed"] else 1


def _list(args) -> int:
    entries = [{"name": name, "anchor": exp.anchor}
               for name, exp in sorted(EXPERIMENTS.items())]
    if args.json:
        sys.stdout.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    else:
        for entry in entries:
            sys.stdout.write(f"{entry['name']}: {entry['anchor']}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyadiclab",
        description="Quantitative checks for dyadic operator inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run experiments and write a report")
    runp.add_argument("--config", help="JSON configuration file")
    runp.add_argument("--experiment", action="append",
                      help="experiment name (repeatable; 'all' for the catalog)")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--depth", type=int, default=None)
    runp.add_argument("--p", action="append", type=float)
    runp.add_argument("--gamma", type=float, default=None)
    runp.add_argument("--r", type=int, default=None)
    runp.add_argument("--out", help="CSV report path (JSON summary alongside)")
    listp = sub.add_parser("list", help="print the experiment catalog")
    listp.add_argument("--json", action="store_true", help="emit a JSON array")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run(args) if args.command == "run" else _list(args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
