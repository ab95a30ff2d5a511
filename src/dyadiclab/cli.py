"""Command-line experiment runner with machine-readable reports.

Reports carry one CSV row per check (check_id, anchor, measured, bound,
pass, seed, runtime_ms), the anchor its experiment's and the seed the
run's, plus a JSON summary.  Identical configuration and
seed reproduce every column byte for byte except runtime_ms, which is
wall time.  Exit status: 0 all checks pass, 1 a check failed, 2 bad usage,
found before any experiment runs where the parameter table of
`experiments` can tell, else when the library rejects a value.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from .errors import InsufficientDataError, ResourceLimitError
from .experiments import EXPERIMENTS, is_kind, resolve_params, run_experiment

CSV_HEADER = "check_id,anchor,measured,bound,pass,seed,runtime_ms"

# config key -> (type spec, see `is_kind`; what it takes)
CONFIG_KEYS = {"experiments": ([str], "a list of names"), "seed": (int, "an integer"),
               "params": (dict, "an object"), "out_csv": (str, "a path"),
               "out_json": (str, "a path")}


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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or an over-long int
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    for key, value in doc.items():
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        spec, what = CONFIG_KEYS[key]
        if not is_kind(value, spec):
            raise UsageError(f"config {key!r} takes {what}, not {value!r}")
    for name, overrides in doc.get("params", {}).items():
        if name not in EXPERIMENTS:
            raise UsageError(f"config params for unknown experiment {name!r}")
        if not isinstance(overrides, dict):
            raise UsageError(f"config params for {name!r} must be an object")
    return doc


def _flag_overrides(args, names: list) -> dict:
    """Per selected experiment, the flags its parameter table gives it; a flag
    none takes is an error, and a list flag sets a scalar from one value only."""
    overrides = {name: {} for name in names}
    for flag in ("depth", "p", "gamma", "r"):
        value = getattr(args, flag)
        if value is None:
            continue
        takers = [(name, key, param) for name in names
                  for key, param in EXPERIMENTS[name].params.items() if param.flag == flag]
        if not takers:
            raise UsageError(f"no selected experiment takes --{flag}")
        for name, key, param in takers:
            single = isinstance(value, list) and param.kind != "exponent list"
            if single and len(value) > 1:
                raise UsageError(f"{name} takes a single --{flag}, not {len(value)}")
            overrides[name][key] = value[0] if single else value
    return overrides


def _format_row(check, anchor: str, seed: int, runtime_ms: int) -> str:
    anchor = anchor.replace('"', "'")
    return (f'{check.check_id},"{anchor}",{check.measured!r},{check.bound!r},'
            f"{str(check.passed).lower()},{seed},{runtime_ms}")


def _run(args) -> int:
    config = _load_config(args.config)
    seed = config.get("seed") if args.seed is None else args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("DYADICLAB_SEED", "0"))
        except ValueError:
            raise UsageError(f"DYADICLAB_SEED must be an integer, "
                             f"not {os.environ['DYADICLAB_SEED']!r}")
    if not 0 <= seed < 2**63:  # the random streams key on 63 bits of the seed
        raise UsageError(f"seed {seed} is outside [0, 2^63)")
    names = list(args.experiment or config.get("experiments", []))
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    if not names:
        raise UsageError("no experiment selected; see 'list'")
    for k, name in enumerate(names):
        if name not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {name!r}; see 'list'")
        if name in names[:k]:
            raise UsageError(f"experiment {name!r} is selected twice")
    overrides = _flag_overrides(args, names)
    params, resolved = config.get("params", {}), {}
    for name in dict.fromkeys([*names, *params]):  # config params of unselected ones too
        overrides[name] = {**params.get(name, {}), **overrides.get(name, {})}
        try:
            resolved[name] = resolve_params(name, overrides[name])
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}")
    out_csv = args.out or config.get("out_csv")
    if "out_json" in config and not out_csv:
        raise UsageError("config out_json needs a CSV report path: out_csv or --out")
    out_json = out_csv and (config.get("out_json") or os.path.splitext(out_csv)[0] + ".json")
    for path in filter(None, (out_csv, out_json)):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"report directory of {path} does not exist")
        if os.path.isdir(path):
            raise UsageError(f"report path {path} is a directory")

    rows = []  # (check, anchor, seed, runtime_ms)
    summary = {"seed": seed, "experiments": {}, "timing_ms": {}}
    for name in names:
        start = time.perf_counter()
        try:
            checks = run_experiment(name, seed, overrides[name])
        except (ValueError, ResourceLimitError, InsufficientDataError) as exc:  # library rejects
            raise UsageError(f"{name}: {exc}")
        elapsed_ms = int(round((time.perf_counter() - start) * 1000))
        summary["experiments"][name] = {
            "checks": len(checks), "failed": [c.check_id for c in checks if not c.passed],
            "params": resolved[name],
            "worst_at": {c.check_id: c.worst_at for c in checks if c.worst_at is not None}}
        summary["timing_ms"][name] = elapsed_ms
        rows += [(check, EXPERIMENTS[name].anchor, seed, elapsed_ms) for check in checks]
    rows.sort(key=lambda row: row[0].check_id)
    summary["all_passed"] = all(check.passed for check, *_ in rows)

    csv_text = CSV_HEADER + "\n" + "".join(_format_row(*row) + "\n" for row in rows)
    if out_csv:
        with open(out_csv, "w") as stream:
            stream.write(csv_text)
        with open(out_json, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
            stream.write("\n")
    else:
        sys.stdout.write(csv_text)
    for check, *_ in rows:
        if not check.passed:
            sys.stderr.write(f"FAIL {check.check_id}\n")
    return 0 if summary["all_passed"] else 1


def _list(args) -> int:
    entries = [{"name": name, "anchor": exp.anchor, "rules": [text for text, _ in exp.rules],
                "params": {key: vars(param) for key, param in exp.params.items()}}
               for name, exp in sorted(EXPERIMENTS.items())]
    if args.json:
        sys.stdout.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    else:
        for entry in entries:
            sys.stdout.write(f"{entry['name']}: {entry['anchor']}\n")
    return 0


@functools.cache  # one per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dyadiclab",
                     description="Quantitative checks for dyadic operator inequalities")
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
