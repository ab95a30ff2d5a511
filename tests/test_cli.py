import builtins
import csv
import json
import math
import os
import stat
import subprocess
import sys
import time

import pytest

from dyadiclab import cli
from dyadiclab.cli import main
from dyadiclab.errors import ResourceLimitError
from dyadiclab.experiments import (EXPERIMENTS, KINDS, Check, resolve_params, run_decoupling,
                                   run_experiment)

FAST_CONFIG = {
    "experiments": ["goodness", "condexp-sum", "pythagoras"],
    "seed": 11,
    "params": {
        "pythagoras": {"n_families": 5},
        "condexp-sum": {"n_configs": 10},
    },
}


def strip_runtime(csv_text: str) -> str:
    lines = []
    for line in csv_text.strip().splitlines():
        lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


def test_catalog_has_at_least_thirteen_entries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) >= 13
    for line in out:
        name, anchor = line.split(":", 1)
        assert anchor.strip()


def test_catalog_json_mode(capsys):
    assert main(["list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    names = {e["name"] for e in entries}
    for expected in ("shift-bound", "paraproduct", "carleson", "pythagoras",
                     "stopping", "decoupling", "condexp-sum", "stein",
                     "rbound-calculus", "goodness", "matrix-decay",
                     "paraproduct-extraction", "averaging-identity"):
        assert expected in names
    assert all(e["anchor"] for e in entries)
    decay = next(e for e in entries if e["name"] == "matrix-decay")
    assert decay["params"]["gamma"] == {"default": 0.4, "kind": "float", "range": "(0, 1)",
                                        "flag": "gamma"}
    assert decay["rules"] == ["i_lo <= i_hi"]


def test_unknown_experiment_is_usage_error():
    assert main(["run", "--experiment", "nope"]) == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiments": [], "junk": 1}))
    assert main(["run", "--config", str(config)]) == 2


def test_unknown_parameter_is_usage_error(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiments": ["goodness"],
                                  "params": {"goodness": {"bogus": 1}}}))
    assert main(["run", "--config", str(config)]) == 2


@pytest.mark.parametrize("params", [
    {"matrix-decay": {"depth": "3"}},
    {"matrix-decay": {"gamma": [0.4]}},
    {"matrix-decay": {"depth": True}},
    {"matrix-decay": {"depth": 9.0}},
    {"haar-completeness": {"tol": "1e-12"}},
    {"shift-bound": {"p_list": 2.0}},
    {"shift-bound": {"p_list": ["2"]}},
    {"goodness": {"cases": [[0.125, "3"]]}},
    {"goodness": {"cases": [[0.125, 3.5]]}},
    {"goodness": {"cases": [[0.125]]}},
    {"goodness": {"cases": [0.125]}},
    {"goodness": [["extra_gaps", 4]]},
])
def test_mistyped_config_parameter_is_one_line_usage_error(tmp_path, capsys, params):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiments": list(params), "params": params}))
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_error_line(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def no_experiment_runs(monkeypatch):
    """Replaces the runner; the test fails if any experiment starts."""
    def refuse(name, seed, overrides):
        raise AssertionError(f"{name} ran")
    monkeypatch.setattr(cli, "run_experiment", refuse)


@pytest.mark.parametrize("doc", [
    {"experiments": ["goodness"], "seed": 1.5},
    {"experiments": ["goodness"], "seed": "x"},
    {"experiments": ["goodness"], "seed": True},
    {"experiments": "stopping"},
    {"experiments": [["stopping"]]},
    {"experiments": ["goodness"], "out_csv": 5},
    {"experiments": ["goodness"], "out_json": ["a.json"]},
    {"experiments": ["goodness"], "params": [["goodness", {}]]},
])
def test_mistyped_config_key_is_one_line_usage_error(tmp_path, capsys, no_experiment_runs,
                                                     doc):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == 2
    assert_one_error_line(capsys, "error: config ")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**63, 10**23])
def test_seed_outside_63_bits_is_usage_error(tmp_path, capsys, no_experiment_runs, source,
                                             seed):
    """The streams key on 63 bits of the seed, so -1 and 2^63 - 1 used to draw alike."""
    argv = ["run", "--experiment", "goodness"]
    if source == "flag":
        argv += ["--seed", str(seed)]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": seed}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert_one_error_line(capsys, f"error: seed {seed} is outside [0, 2^63)")


@pytest.mark.parametrize("seed", [0, 2**63 - 1])
def test_seeds_at_the_ends_of_the_range_run(monkeypatch, capsys, seed):
    monkeypatch.setattr(cli, "run_experiment", lambda name, seed, overrides: [
        Check("goodness/forced", 0.0, 1.0, True)])
    assert main(["run", "--experiment", "goodness", "--seed", str(seed)]) == 0
    assert f",true,{seed}," in capsys.readouterr().out


def test_config_int_too_long_to_parse_is_usage_error(tmp_path, capsys, no_experiment_runs):
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": ' + "9" * 5000 + "}")
    assert main(["run", "--experiment", "goodness", "--config", str(config)]) == 2
    assert_one_error_line(capsys, "error: cannot read config ")


@pytest.mark.parametrize("option", ["--out", "--config"])
def test_missing_report_directory_fails_before_running(tmp_path, capsys,
                                                       no_experiment_runs, option):
    target = str(tmp_path / "missing" / "report.csv")
    argv = ["run", "--experiment", "goodness"]
    if option == "--out":
        argv += ["--out", target]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out_csv": str(tmp_path / "r.csv"),
                                      "out_json": target}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_config_json_path_without_csv_path_fails_before_running(tmp_path, capsys,
                                                                no_experiment_runs):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiments": ["goodness"],
                                  "out_json": str(tmp_path / "s.json")}))
    assert main(["run", "--config", str(config)]) == 2
    assert_one_error_line(capsys, "error: config out_json needs a CSV report path")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("which", ["csv", "json"])
def test_report_path_that_is_a_directory_fails_before_running(tmp_path, capsys,
                                                              no_experiment_runs, which):
    (tmp_path / "taken").mkdir()
    (tmp_path / "report.json").mkdir()
    argv = ["run", "--experiment", "goodness", "--out"]
    argv.append(str(tmp_path / ("taken" if which == "csv" else "report.csv")))
    assert main(argv) == 2
    assert_one_error_line(capsys, "error: report path ")
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--experiment", "carleson", "--p", "nan"],
    ["--experiment", "paraproduct", "--p", "1"],
    ["--experiment", "paraproduct", "--p", "0.5"],
    ["--experiment", "stein", "--p", "inf"],
    ["--experiment", "stein", "--p", "2", "--p", "-3"],
])
def test_exponent_flag_outside_one_to_infinity_is_usage_error(capsys, no_experiment_runs,
                                                              argv):
    assert main(["run", *argv]) == 2
    assert_one_error_line(capsys, f"error: {argv[1]}: exponent p_list = ")


@pytest.mark.parametrize("params", [
    {"condexp-sum": {"p_list": [2.0, 1.0]}},
    {"decoupling": {"p_list": [0.0]}},
    {"rbound-calculus": {"p": 1}},
    {"rbound-calculus": {"p": -2.0}},
])
def test_config_exponent_outside_one_to_infinity_is_usage_error(tmp_path, capsys,
                                                                no_experiment_runs, params):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiments": list(params), "params": params}))
    assert main(["run", "--config", str(config)]) == 2
    assert_one_error_line(capsys, f"error: {next(iter(params))}: exponent ")


@pytest.mark.parametrize("argv", [
    ["--experiment", "matrix-decay", "--depth", "-1"],
    ["--experiment", "matrix-decay", "--gamma", "2"],
    ["--experiment", "matrix-decay", "--r", "0"],
    ["--experiment", "shift-bound", "--depth", "2"],
    ["--experiment", "pythagoras", "--depth", "0"],
    ["--experiment", "matrix-decay", "--r", "9"],
    ["--experiment", "averaging-identity", "--depth", "30"],
    ["--experiment", "stopping", "--depth", "40"],
    ["--experiment", "paraproduct", "--depth", "30"],
])
def test_rejected_parameter_value_is_one_line_usage_error(capsys, argv):
    assert main(["run", *argv]) == 2
    assert_one_error_line(capsys, f"error: {argv[1]}: ")


def test_mesh_over_the_cell_cap_is_one_line_usage_error(tmp_path, capsys):
    assert run_with_params(tmp_path, {"haar-completeness": {"depth_2d": 16}}) == 2
    assert_one_error_line(capsys, "error: haar-completeness: a mesh of 2^34 cells exceeds ")


@pytest.mark.parametrize("depth, max_children", [
    (5, 4), (7, 2), (9, 4), (13, 4), (16, 4), (20, 4), (21, 2), (10**18, 2)])
def test_decoupling_past_the_cell_work_rule_fails_before_any_run(
        tmp_path, capsys, no_experiment_runs, depth, max_children):
    assert run_with_params(tmp_path, {"decoupling": {"depth": depth,
                                                     "max_children": max_children}}) == 2
    assert_one_error_line(capsys, "error: decoupling: needs (2 * max_children) ** depth "
                                  f"<= 4096, not depth = {depth}, max_children = "
                                  f"{max_children}\n")


@pytest.mark.parametrize("depth, max_children", [(4, 4), (6, 2), (1, 2048)])
def test_decoupling_at_the_cell_work_rule_is_admitted(depth, max_children):
    params = resolve_params("decoupling", {"depth": depth, "max_children": max_children})
    assert (params["depth"], params["max_children"]) == (depth, max_children)


def decoupling_params(depth):
    return {**{key: param.default for key, param in EXPERIMENTS["decoupling"].params.items()},
            "depth": depth}


@pytest.mark.parametrize("depth", [13, 16, 20])
def test_deep_decoupling_stops_at_the_chain_cap_within_seconds(depth):
    # the parameter rule refuses these depths before a run; the runner itself
    # stops while drawing the first hierarchy, as some chain has more
    # child-choice tuples than the exact evaluation allows
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^a root-to-leaf product of child counts "
                                                 "passes the chain cap "):
        run_decoupling(decoupling_params(depth), 0)
    assert time.perf_counter() - start < 5.0


def test_decoupling_past_the_cell_work_cap_stops_within_seconds():
    # the parameter rule refuses depth 9 before a run; in the runner, depth 9
    # passes the chain and sign caps, but a cell's choices times signs pass the
    # work cap, which is checked before any cell is evaluated
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^a chain of 9 atoms and "):
        run_decoupling(decoupling_params(9), 0)
    assert time.perf_counter() - start < 5.0


def test_flag_value_is_checked_for_every_selected_experiment_before_any_runs(
        capsys, no_experiment_runs):
    assert main(["run", "--experiment", "decoupling", "--experiment", "matrix-decay",
                 "--gamma", "2"]) == 2
    assert_one_error_line(capsys, "error: matrix-decay: gamma = 2.0 is outside (0, 1)\n")


@pytest.mark.parametrize("params, message", [
    ({"decoupling": {"mds_tests": 0}}, "mds_tests = 0 measures nothing"),
    ({"carleson": {"weighted_share": 2.0}}, "weighted_share = 2.0 is outside [0, 1]"),
    ({"carleson": {"weighted_share": -1.0}}, "weighted_share = -1.0 is outside [0, 1]"),
    ({"haar-completeness": {"tol": -1.0}}, "tol = -1.0 is outside [0, inf)"),
    ({"decoupling": {"depth": -2}}, "depth = -2 is outside [1, inf)"),
    ({"decoupling": {"max_children": 0}}, "max_children = 0 measures nothing"),
    ({"stein": {"max_levels": 0}}, "max_levels = 0 measures nothing"),
    ({"goodness": {"factor_level": 9}},
     "needs factor_level <= min(factor_depth, r + extra_gaps, r + 1) for each case, "
     "not factor_level = 9, factor_depth = 4, extra_gaps = 4, cases = "),
    ({"goodness": {"factor_level": 4, "cases": [[0.5, 3]], "extra_gaps": 0}},
     "needs factor_level <= min("),
    ({"matrix-decay": {"i_lo": 9, "i_hi": 5}}, "needs i_lo <= i_hi, not i_lo = 9, i_hi = 5"),
    ({"shift-bound": {"depth": 3}}, "needs ij_cap < depth, not ij_cap = 3, depth = 3"),
    ({"averaging-identity": {"m_top": 2}}, "needs m_top >= r, not m_top = 2, r = 3"),
    ({"paraproduct-extraction": {"depth": 0}}, "depth = 0 is outside [1, inf)"),
    ({"goodness": {"cases": [[0.5, 3, 1]]}}, "cases takes [gamma, r] list, not [[0.5, 3, 1]]"),
    ({"goodness": {"cases": [[1.5, 3]]}}, "cases has [1.5, 3], outside (0, 1) x [1, inf)"),
    ({"goodness": {"bogus": 1}}, "unknown parameters ['bogus']"),
])
def test_value_the_table_rejects_fails_before_any_run(tmp_path, capsys, no_experiment_runs,
                                                      params, message):
    assert run_with_params(tmp_path, params) == 2
    assert_one_error_line(capsys, f"error: {next(iter(params))}: {message}")


def values_outside_each_range():
    """(experiment, parameter, value) just outside each finite end of every range
    in the parameter table, per field of a record."""
    for name, exp in sorted(EXPERIMENTS.items()):
        for key, param in exp.params.items():
            spec = KINDS[param.kind][0]
            item = spec[0] if isinstance(spec, list) else spec
            for field, interval in enumerate(param.range.split(" x ")):
                lo, hi = (float(end) for end in interval[1:-1].split(","))
                ends = [(lo, interval[0] == "["), (hi, interval[-1] == "]")]
                for sign, (end, closed) in zip((-1, 1), ends):
                    if math.isinf(end):
                        continue
                    bad = (end + sign if closed else end)
                    bad = int(bad) if (item[field] if isinstance(item, tuple) else item) is int \
                        else float(bad)
                    if isinstance(item, tuple):
                        bad = [*param.default[0][:field], bad, *param.default[0][field + 1:]]
                    value = [bad] if isinstance(spec, list) else bad
                    yield pytest.param(name, key, value, id=f"{name}-{key}-{value}".replace(" ", ""))


OUTSIDE = list(values_outside_each_range())


def test_every_parameter_but_factor_level_has_a_range():
    # factor_level may be negative; rules bound it above by factor_depth and r
    ranged = {case.values[:2] for case in OUTSIDE}
    every = {(name, key) for name, exp in EXPERIMENTS.items() for key in exp.params}
    assert every - ranged == {("goodness", "factor_level")}


@pytest.mark.parametrize("name, key, value", OUTSIDE)
def test_value_outside_its_range_fails_before_any_run(tmp_path, capsys, no_experiment_runs,
                                                      name, key, value):
    assert run_with_params(tmp_path, {name: {key: value}}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and f"{key} " in err and err.count("\n") == 1


def test_no_experiment_is_usage_error(capsys, no_experiment_runs):
    assert main(["run"]) == 2
    assert_one_error_line(capsys, "error: no experiment selected")


def test_empty_experiment_list_is_usage_error(tmp_path, capsys, no_experiment_runs):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"experiments": []}))
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "error: no experiment selected")
    assert not out.exists()


def test_repeated_experiment_is_usage_error(capsys, no_experiment_runs):
    assert main(["run", "--experiment", "stein", "--experiment", "stein"]) == 2
    assert_one_error_line(capsys, "error: experiment 'stein' is selected twice")


@pytest.mark.parametrize("flag", [["--depth", "-1"], ["--gamma", "2"], ["--r", "0"],
                                  ["--p", "2"]])
def test_flag_no_selected_experiment_takes_is_usage_error(capsys, no_experiment_runs, flag):
    assert main(["run", "--experiment", "goodness", *flag]) == 2
    assert_one_error_line(capsys, f"error: no selected experiment takes {flag[0]}")


@pytest.fixture
def recorded_runs(monkeypatch):
    """Replaces the runner; maps each experiment that ran to its overrides."""
    seen = {}

    def record(name, seed, overrides):
        seen[name] = overrides
        return []
    monkeypatch.setattr(cli, "run_experiment", record)
    return seen


def test_flag_reaches_only_the_selected_experiments_that_take_it(recorded_runs):
    assert main(["run", "--experiment", "stopping", "--experiment", "goodness",
                 "--depth", "5"]) == 0
    assert recorded_runs == {"stopping": {"depth": 5}, "goodness": {}}


def test_single_p_flag_sets_a_scalar_exponent(recorded_runs):
    assert main(["run", "--experiment", "rbound-calculus", "--p", "3"]) == 0
    assert recorded_runs == {"rbound-calculus": {"p": 3.0}}
    assert main(["run", "--experiment", "all", "--p", "3"]) == 0
    assert recorded_runs["rbound-calculus"] == {"p": 3.0}
    assert recorded_runs["stein"] == {"p_list": [3.0]}


def test_the_parser_is_built_once_and_calls_share_no_list_state(recorded_runs):
    assert cli.build_parser() is cli.build_parser()
    assert main(["run", "--experiment", "stein", "--p", "3"]) == 0
    first = recorded_runs.pop("stein")
    assert first == {"p_list": [3.0]}
    first["p_list"].append(99.0)  # a caller's change to one call's list reaches no later call
    assert main(["run", "--experiment", "stein"]) == 0
    assert recorded_runs.pop("stein") == {}
    assert main(["run", "--experiment", "stein", "--p", "2", "--p", "4"]) == 0
    assert recorded_runs.pop("stein") == {"p_list": [2.0, 4.0]}
    assert main(["run", "--experiment", "stein", "--experiment", "rbound-calculus"]) == 0
    assert recorded_runs == {"stein": {}, "rbound-calculus": {}}


def test_usage_error_after_a_good_call_still_exits_two_in_one_line(capsys, recorded_runs):
    assert main(["run", "--experiment", "stein", "--p", "3"]) == 0
    capsys.readouterr()
    assert main(["run", "--experiment", "stein", "--p", "three"]) == 2
    assert_one_error_line(capsys, "error: argument --p: invalid float value")
    assert main(["run", "--no-such-flag"]) == 2
    assert_one_error_line(capsys)
    assert main(["run", "--experiment", "stein", "--p", "2"]) == 0
    assert recorded_runs["stein"] == {"p_list": [2.0]}


def test_repeated_p_flag_with_a_scalar_exponent_is_usage_error(capsys, no_experiment_runs):
    assert main(["run", "--experiment", "stein", "--experiment", "rbound-calculus",
                 "--p", "2", "--p", "3"]) == 2
    assert_one_error_line(capsys, "error: rbound-calculus takes a single --p, not 2")


def run_with_params(tmp_path, params) -> int:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiments": list(params), "params": params}))
    return main(["run", "--config", str(config)])


@pytest.mark.parametrize("name, key", [
    ("carleson", "n_funcs"), ("paraproduct", "n_pairs"), ("pythagoras", "n_families"),
    ("stein", "n_configs"), ("shift-bound", "kernels_per_ij"),
    ("shift-bound", "inputs_per_kernel"),
])
def test_trial_count_below_one_is_usage_error(tmp_path, capsys, name, key):
    assert run_with_params(tmp_path, {name: {key: 0}}) == 2
    assert_one_error_line(capsys, f"error: {name}: {key} = 0 measures nothing")


def test_haar_completeness_needs_two_functions(tmp_path, capsys):
    assert run_with_params(tmp_path, {"haar-completeness": {"n_funcs": 1}}) == 2
    assert_one_error_line(capsys, "error: haar-completeness: n_funcs = 1 measures nothing")


def test_negative_ij_cap_is_usage_error(tmp_path, capsys):
    assert run_with_params(tmp_path, {"shift-bound": {"ij_cap": -1}}) == 2
    assert_one_error_line(capsys, "error: shift-bound: ij_cap = -1 measures nothing")


@pytest.mark.parametrize("name, key", [("condexp-sum", "p_list"), ("goodness", "cases")])
def test_empty_list_parameter_is_usage_error(tmp_path, capsys, name, key):
    assert run_with_params(tmp_path, {name: {key: []}}) == 2
    assert_one_error_line(capsys, f"error: {name}: {key} = [] measures nothing")


def test_every_selected_experiment_is_checked_before_any_runs(tmp_path, capsys,
                                                              no_experiment_runs):
    assert run_with_params(tmp_path, {"decoupling": {}, "carleson": {"n_funcs": 0}}) == 2
    assert_one_error_line(capsys, "error: carleson: n_funcs = 0 measures nothing")


def test_failed_check_still_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", lambda name, seed, overrides: [
        Check("goodness/forced", 2.0, 1.0, False)])
    assert main(["run", "--experiment", "goodness"]) == 1
    assert capsys.readouterr().err == "FAIL goodness/forced\n"


def test_pairing_frames_past_the_byte_cap_are_usage_error(monkeypatch, capsys):
    # at depth 4 the 32 x 32 operator fits under this cap, but its 30 Haar
    # columns' frames and element matrices do not (the real cap is passed the
    # same way at depth 12, where they would take about 2 GiB)
    from dyadiclab import representation

    monkeypatch.setattr(representation, "_ASSEMBLE_BYTE_CAP", 8 * 32 * 32)
    assert main(["run", "--experiment", "paraproduct-extraction", "--depth", "4"]) == 2
    assert_one_error_line(capsys, "error: paraproduct-extraction: 30 Haar columns of 32 cells")


def test_float_parameter_takes_an_int(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiments": ["haar-completeness"],
        "params": {"haar-completeness": {"n_funcs": 2, "depth_1d": 4, "depth_2d": 2,
                                         "tol": 1}}}))
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert ",1.0,true," in out.read_text()


def test_list_parameters_take_well_typed_items(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiments": ["goodness", "condexp-sum"],
        "params": {"goodness": {"cases": [[0.5, 3]]},
                   "condexp-sum": {"n_configs": 2, "p_list": [2]}}}))
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text()
    assert "goodness/gamma=0.5/r=3/" in text and "gamma=0.125" not in text


def test_dim_flag_is_gone():
    assert main(["run", "--experiment", "goodness", "--dim", "1"]) == 2


def test_run_writes_report_and_summary(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(FAST_CONFIG))
    out = tmp_path / "report.csv"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_id,anchor,measured,bound,pass,seed,runtime_ms"
    ids = [line.split(",", 1)[0] for line in lines[1:]]
    assert ids == sorted(ids)
    assert any(name.startswith("pythagoras/counterexample") for name in ids)
    for row in csv.DictReader(lines):
        experiment = EXPERIMENTS[row["check_id"].split("/")[0]]
        assert row["anchor"] == experiment.anchor.replace('"', "'")
        assert row["seed"] == "11"
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["all_passed"] is True
    assert summary["seed"] == 11


def test_summary_gives_resolved_parameters_and_the_input_behind_each_row(tmp_path):
    """`params` is what the experiment ran with, flags and config merged; `worst_at`
    names, per row kept as a running maximum, the input that set it."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(FAST_CONFIG))
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(config), "--out", str(out), "--depth", "4"]) == 0
    summary = json.loads((tmp_path / "report.json").read_text())
    overrides = {"goodness": {}, "condexp-sum": {"n_configs": 10},
                 "pythagoras": {"n_families": 5, "depth": 4}}
    for name, given in overrides.items():
        entry = summary["experiments"][name]
        assert entry["params"] == resolve_params(name, given)
        assert entry["worst_at"] == {c.check_id: c.worst_at for c in run_experiment(
            name, 11, given) if c.worst_at is not None}
    assert summary["experiments"]["goodness"]["worst_at"] == {}  # every spread reads 0.0
    assert set(summary["experiments"]["condexp-sum"]["worst_at"].values()) <= set(range(10))
    pythagoras = summary["experiments"]["pythagoras"]["worst_at"]
    assert sorted(pythagoras) == sorted(f"pythagoras/{mode}/p={p}" for p in (1.5, 2.0, 3.0)
                                        for mode in ("direct", "reverse_cancellative",
                                                     "reverse_nonneg"))


def test_reports_are_deterministic(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(FAST_CONFIG))
    texts = []
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        texts.append(strip_runtime(out.read_text()))
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        doc.pop("timing_ms", None)
        summaries.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1]
    assert summaries[0] == summaries[1]


def _forced_check(monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda name, seed, overrides: [
        Check("goodness/forced", 0.0, 1.0, True)])


def test_reports_are_written_as_new_files(tmp_path, monkeypatch):
    """A rerun removes the old report and summary and creates new ones, so a hard link
    to an old one keeps its bytes."""
    _forced_check(monkeypatch)
    out = tmp_path / "report.csv"
    argv = ["run", "--experiment", "goodness", "--out", str(out)]
    assert main([*argv, "--seed", "1"]) == 0
    first = {name: (tmp_path / f"report.{name}").read_bytes() for name in ("csv", "json")}
    for name in first:
        os.link(tmp_path / f"report.{name}", tmp_path / f"keep.{name}")
    assert main([*argv, "--seed", "2"]) == 0
    for name in first:
        assert (tmp_path / f"keep.{name}").read_bytes() == first[name]
    assert ",true,2," in out.read_text()
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == 2


def test_symlink_and_fifo_reports_are_written_through(tmp_path, monkeypatch):
    """Only a regular file at a report path is removed: a symlink there is followed and
    stays, and a FIFO (like a device such as /dev/null) is opened and written to."""
    _forced_check(monkeypatch)
    argv = ["run", "--experiment", "goodness", "--seed", "4"]
    for name in ("csv", "json"):
        (tmp_path / f"target.{name}").write_text("old\n")
        (tmp_path / f"link.{name}").symlink_to(tmp_path / f"target.{name}")
    assert main([*argv, "--out", str(tmp_path / "link.csv")]) == 0
    for name in ("csv", "json"):
        assert (tmp_path / f"link.{name}").is_symlink()
    assert ",true,4," in (tmp_path / "target.csv").read_text()
    assert json.loads((tmp_path / "target.json").read_text())["seed"] == 4

    readers = {}
    for name in ("csv", "json"):
        os.mkfifo(tmp_path / f"pipe.{name}")
        readers[name] = os.open(tmp_path / f"pipe.{name}", os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main([*argv, "--out", str(tmp_path / "pipe.csv")]) == 0
        received = {name: os.read(fd, 1 << 16).decode() for name, fd in readers.items()}
    finally:
        for fd in readers.values():
            os.close(fd)
    for name in ("csv", "json"):
        assert stat.S_ISFIFO(os.lstat(tmp_path / f"pipe.{name}").st_mode)
    assert ",true,4," in received["csv"]
    assert json.loads(received["json"])["seed"] == 4


@pytest.mark.parametrize("which", ["csv", "json"])
def test_report_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys, which):
    _forced_check(monkeypatch)
    target = str(tmp_path / f"report.{which}")
    real_open = open

    def refuse(path, *args, **kwargs):
        if path == target:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refuse)
    assert main(["run", "--experiment", "goodness", "--out", str(tmp_path / "report.csv")]) == 2
    assert_one_error_line(capsys, f"error: cannot write report {target}: ")


def test_run_without_a_seed_uses_seed_zero(tmp_path, monkeypatch, capsys):
    """No --seed and no config seed: the seed is 0, whatever the environment holds."""
    monkeypatch.setenv("DYADICLAB_SEED", "99")
    seeds = []
    monkeypatch.setattr(cli, "run_experiment", lambda name, seed, overrides: (
        seeds.append(seed) or [Check("goodness/forced", 0.0, 1.0, True)]))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiments": ["goodness"]}))
    assert main(["run", "--config", str(config)]) == 0
    assert main(["run", "--experiment", "goodness"]) == 0
    assert seeds == [0, 0]
    assert capsys.readouterr().out.count(",true,0,") == 2


def test_flag_overrides_reach_experiments(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["run", "--experiment", "pythagoras", "--seed", "3",
                 "--depth", "5", "--p", "2.0", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "p=2.0" in body
    assert "p=3.0" not in body


def test_parallel_flag_is_gone(capsys):
    assert main(["run", "--experiment", "goodness", "--parallel"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --parallel\n"


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "dyadiclab.cli", "list", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == len(EXPERIMENTS)


def test_kernel_dim_that_disagrees_with_the_space_exits_2(tmp_path, monkeypatch, capsys):
    """A drawn kernel of 2 x 2 tables on scalar functions is refused in one line,
    naming both dims, not by a reshape error from inside numpy."""
    from dyadiclab import experiments, shifts

    monkeypatch.setattr(experiments, "RandomKernel",
                        lambda seed, cap: shifts.RandomKernel(seed, cap, matrix_dim=2))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": ["shift-bound"], "params": {"shift-bound": {
        "depth": 3, "ij_cap": 0, "kernels_per_ij": 1, "inputs_per_kernel": 1}}}))
    status = main(["run", "--config", str(config), "--seed", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err == ("error: shift-bound: kernel matrix_dim 2 does not match "
                   "the space dim 1\n")
