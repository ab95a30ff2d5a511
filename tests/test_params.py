"""Every parameter set the repository ships resolves under the parameter table.

A range that rejected one of these would break the catalog run, the fast
report script, the acceptance criteria or every benchmark item.  The
benchmark's workload module is loaded from its file and only read.
"""

import importlib.util
import pathlib
import sys

import pytest

from dyadiclab.experiments import EXPERIMENTS, resolve_params

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
