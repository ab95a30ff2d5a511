"""Every parameter set the repository ships resolves under the parameter table,
and every value the table admits runs or is refused in one line.

A range that rejected one of these would break the catalog run, the fast
report script, the acceptance criteria or every benchmark item.  The
benchmark's workload module is loaded from its file and only read.
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from dyadiclab.cli import main
from dyadiclab.experiments import EXPERIMENTS, KINDS, resolve_params

from test_acceptance import DETERMINISM_PARAMS
from test_cli import FAST_CONFIG

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(relative: str, name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses need it
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("perfbench/workloads.py", "shipped_workloads").CATALOG
SHIPPED = {
    "catalog-defaults": {name: {} for name in EXPERIMENTS},
    "run-reports-fast": load("scripts/run_reports.py", "shipped_run_reports").FAST_PARAMS,
    "acceptance-determinism": DETERMINISM_PARAMS,
    "cli-fast-config": FAST_CONFIG["params"],
    **{f"perfbench-{workload}-{scale}": params
       for workload, scales in WORKLOADS.items() for scale, params in scales.items()},
}


def test_every_benchmark_scale_is_covered():
    assert {key for key in SHIPPED if key.startswith("perfbench-")} == {
        f"perfbench-{workload}-{scale}" for workload in WORKLOADS for scale in ("full", "tiny")}


@pytest.mark.parametrize("source", sorted(SHIPPED))
def test_shipped_parameters_resolve(source):
    for name, overrides in SHIPPED[source].items():
        params = resolve_params(name, overrides)
        assert params == {**{key: p.default for key, p in EXPERIMENTS[name].params.items()},
                          **overrides}


# -- every in-range value runs or is refused in one line -------------------------------

# small sizes under which each value below is run, one parameter changed at a time
SWEEP_BASE = {
    "haar-completeness": {"n_funcs": 3, "depth_1d": 4, "depth_2d": 2},
    "shift-bound": {"depth": 4, "ij_cap": 1, "kernels_per_ij": 2, "inputs_per_kernel": 2},
    "paraproduct": {"depth": 4, "n_pairs": 2},
    "carleson": {"depth": 4, "n_funcs": 2},
    "pythagoras": {"depth": 3, "n_families": 2},
    "stopping": {"depth": 4, "n_funcs": 2},
    "decoupling": {"n_families": 2, "depth": 2, "max_children": 3, "mds_tests": 2},
    "condexp-sum": {"n_configs": 2},
    "stein": {"depth": 3, "n_configs": 2, "max_levels": 2},
    "rbound-calculus": {"n_configs": 2, "probe_budget": 3},
    "goodness": {"cases": [[0.5, 3]], "extra_gaps": 1, "factor_depth": 3},
    "matrix-decay": {"depth": 8},
    "paraproduct-extraction": {"depth": 3, "n_pairs": 2},
    "averaging-identity": {"depth": 4, "m_top": 3},
}


def in_range_values(param):
    """The values a parameter is swept at besides its base: 1.01 and 40 for an
    exponent, else each finite end its range includes, field by field for a record."""
    spec = KINDS[param.kind][0]
    if param.kind.startswith("exponent"):
        return [[1.01], [40.0]] if isinstance(spec, list) else [1.01, 40.0]
    item = spec[0] if isinstance(spec, list) else spec
    values = []
    for field, interval in enumerate(param.range.split(" x ")):
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        ends = [lo] * (interval[0] == "[") + [hi] * (interval[-1] == "]")
        for end in filter(math.isfinite, ends):
            x = (item[field] if isinstance(item, tuple) else item)(end)
            if isinstance(item, tuple):  # a record: this field at its end, the rest default
                x = [*param.default[0][:field], x, *param.default[0][field + 1:]]
            values.append([x] if isinstance(spec, list) else x)
    return values


# gate values no working run meets, just outside their open ranges: tol = 0 on a residual
# gated without slack fails on the rounding noise of an exact identity (1.6e-16 and 2.4e-17
# at these sizes), and a spread bound of 1 asks every complexity's peak to be the same;
# haar-completeness gates with slack, so its tol = 0 stays in range and passes
UNMET_GATES = [("averaging-identity", "tol", 0.0), ("paraproduct-extraction", "tol", 0.0),
               ("matrix-decay", "bounded_spread", 1.0)]


def sweep_cases():
    for name, exp in sorted(EXPERIMENTS.items()):
        yield pytest.param(name, None, None, id=f"{name}-base")
        for key, param in exp.params.items():
            for value in in_range_values(param):
                yield pytest.param(name, key, value, id=f"{name}-{key}-{value}".replace(" ", ""))


@pytest.mark.parametrize("name, key, value", list(sweep_cases()))
def test_in_range_value_runs_or_is_refused_in_one_line(tmp_path, capsys, name, key, value):
    params = dict(SWEEP_BASE[name], **({} if key is None else {key: value}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [name], "params": {name: params}}))
    status = main(["run", "--config", str(config), "--seed", "3",
                   "--out", str(tmp_path / "report.csv")])
    err = capsys.readouterr().err
    assert status in ((0,) if key is None else (0, 2)), err  # the base sizes run
    if status == 2:
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, key, value", UNMET_GATES,
                         ids=[f"{name}-{key}-{value}" for name, key, value in UNMET_GATES])
def test_gate_value_no_run_meets_is_refused_in_one_line(tmp_path, capsys, name, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [name],
                                  "params": {name: dict(SWEEP_BASE[name], **{key: value})}}))
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(config), "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    param_range = EXPERIMENTS[name].params[key].range
    assert err == f"error: {name}: {key} = {value} is outside {param_range}\n"
    assert not out.exists()
