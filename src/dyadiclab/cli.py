"""Command-line experiment runner with machine-readable reports.

Reports carry one CSV row per check (check_id, anchor, measured, bound,
pass, seed, runtime_ms) plus a JSON summary.  Identical configuration and
seed reproduce every column byte for byte except runtime_ms, which is
wall time.  Exit status: 0 all checks pass, 1 a check failed, 2 bad usage
(including an empty or repeated experiment selection, a flag that no
selected experiment takes, more than one --p for an experiment with a
scalar exponent and a parameter value the library rejects).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Optional

from .errors import InsufficientDataError, ResourceLimitError
from .experiments import EXPERIMENTS, resolve_params, run_experiment

CSV_HEADER = "check_id,anchor,measured,bound,pass,seed,runtime_ms"

# config key -> a value of the type it takes (see `_fits`)
CONFIG_KEYS = {"experiments": [""], "seed": 0, "params": {}, "out_csv": "", "out_json": ""}

# run flag -> the experiment parameters it sets; a scalar p takes a single --p
_FLAG_PARAMS = {"depth": ("depth",), "p": ("p_list", "p"), "gamma": ("gamma",), "r": ("r",)}

# what the library raises for a parameter value it cannot run with
_LIBRARY_ERRORS = (ValueError, ResourceLimitError, InsufficientDataError)


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
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if not _fits(value, CONFIG_KEYS[key]):
            raise UsageError(f"config {key!r} takes {_type_name(CONFIG_KEYS[key])}, "
                             f"not {_type_name(value)}")
    for name, overrides in doc.get("params", {}).items():
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
                                 f"{_type_name(defaults[key])}, not {_type_name(value)}")
    return doc


def _type_name(value) -> str:
    if isinstance(value, list) and value:
        return f"list of {type(value[0]).__name__}"
    return type(value).__name__


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


def _flag_overrides(args, names: list) -> dict:
    """Per selected experiment, the flags it takes; a flag none takes is an error."""
    overrides = {name: {} for name in names}
    for flag, keys in _FLAG_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        takers = [(name, key) for name in names for key in keys
                  if key in EXPERIMENTS[name].defaults]
        if not takers:
            raise UsageError(f"no selected experiment takes --{flag}")
        for name, key in takers:
            if key == "p" and len(value) > 1:
                raise UsageError(f"{name} takes a single --p, not {len(value)}")
            overrides[name][key] = value[0] if key == "p" else value
    return overrides


def _format_row(check, runtime_ms: int) -> str:
    anchor = check.anchor.replace('"', "'")
    return (f'{check.check_id},"{anchor}",{check.measured!r},{check.bound!r},'
            f"{str(check.passed).lower()},{check.seed},{runtime_ms}")


def _check_exponents(name: str, overrides: dict):
    """Exponents must lie in (1, inf), where the conjugate exponent is finite."""
    for key in ("p", "p_list"):
        values = overrides.get(key, [])
        for p in values if isinstance(values, list) else [values]:
            if not 1 < p < math.inf:
                raise UsageError(f"{name}: exponent {key} = {p!r} is outside (1, inf)")


def _run(args) -> int:
    config = _load_config(args.config)
    seed = args.seed
    if seed is None:
        seed = config.get("seed")
    if seed is None:
        try:
            seed = int(os.environ.get("DYADICLAB_SEED", "0"))
        except ValueError:
            raise UsageError(f"DYADICLAB_SEED must be an integer, "
                             f"not {os.environ['DYADICLAB_SEED']!r}")
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
    for name in names:
        overrides[name] = {**config.get("params", {}).get(name, {}), **overrides[name]}
        _check_exponents(name, overrides[name])
        try:
            resolve_params(name, overrides[name])
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}")
    out_csv = args.out or config.get("out_csv")
    out_json = out_csv and (config.get("out_json") or os.path.splitext(out_csv)[0] + ".json")
    for path in filter(None, (out_csv, out_json)):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"report directory of {path} does not exist")

    def run_one(name: str):
        start = time.perf_counter()
        try:
            checks = run_experiment(name, seed, overrides[name])
        except _LIBRARY_ERRORS as exc:
            raise UsageError(f"{name}: {exc}")
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

    csv_text = CSV_HEADER + "\n" + "".join(line + "\n" for _, line, _ in rows)
    if out_csv:
        with open(out_csv, "w") as stream:
            stream.write(csv_text)
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
