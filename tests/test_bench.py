"""scripts/bench.py on canned `perfbench/run.py` output; no benchmark is run."""

import json
import os
import subprocess

import pytest

from test_params import ROOT, load

bench = load("scripts/bench.py", "shipped_bench")

MACHINE = ("nproc=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31.188.0 "
           "blas_threads=1 thread_env={'OPENBLAS_NUM_THREADS': '1'}")
RESULT = {"correct": True, "attempted": 27, "failed": 0,
          "metrics": {"wall_s": {"value": 0.0791, "unit": "s"},
                      "cpu_s": {"value": 0.0785, "unit": "s"},
                      "setup_s": {"value": 0.27, "unit": "s"},
                      "peak_rss_mb": {"value": 44.7, "unit": "MiB"}}}
CANNED = "\n".join([
    f"# machine: {MACHINE}",
    "# workload=stopping-sparse seed=1 scale=full trace=0 passes=90 setups=5",
    "# wall_s = 0.0791 s  (quartiles 0.078 .. 0.081, n=90; measured 0.09 s)",
    "# fail_ratio = 0 ratio  (0 of 27 items failed)",
    json.dumps(RESULT),
]) + "\n"


def test_parse_run_reads_the_last_json_line_and_the_machine_line():
    run = bench.parse_run(CANNED, 0)
    assert run == {"exit": 0, "correct": True, "machine": MACHINE,
                   "metrics": {"wall_s": 0.0791, "cpu_s": 0.0785, "setup_s": 0.27,
                               "peak_rss_mb": 44.7}}


def test_parse_run_keeps_a_failing_verdict_and_its_exit_code():
    failing = CANNED.replace('"correct": true', '"correct": false')
    run = bench.parse_run(failing, 1)
    assert (run["exit"], run["correct"]) == (1, False)


def test_a_run_without_a_json_line_has_no_metrics():
    crashed = f"# machine: {MACHINE}\nerror: worker crashed\n"
    assert bench.parse_run(crashed, 4) == {"exit": 4, "correct": None, "metrics": {},
                                           "machine": MACHINE}


def test_medians_are_taken_per_workload_and_metric():
    runs = [{"workload": w, "seed": s, "exit": 0, "correct": True,
             "metrics": {"wall_s": v, "cpu_s": 2 * v}}
            for w, s, v in (("a", 1, 1.0), ("b", 1, 10.0), ("a", 2, 3.0), ("a", 3, 2.0))]
    assert bench.medians(runs) == {"a": {"wall_s": 2.0, "cpu_s": 4.0},
                                   "b": {"wall_s": 10.0, "cpu_s": 20.0}}


def test_record_moves_the_machine_line_out_of_the_runs(monkeypatch):
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": "abc", "dirty": False})
    runs = [{"workload": "a", "seed": 1, **bench.parse_run(CANNED, 0)}]
    rec = bench.record(str(ROOT), runs)
    assert rec["machine"] == MACHINE and rec["head"] == "abc"
    assert "machine" not in rec["runs"][0] and "machine" in runs[0]
    assert rec["medians"] == {"a": runs[0]["metrics"]}
    assert rec["src_lines"] == sum(len(p.read_text().splitlines())
                                   for p in (ROOT / "src" / "dyadiclab").glob("*.py"))


SUMMARY = json.dumps({"all_passed": True, "seed": 7,
                      "experiments": {"goodness": {"checks": 3, "failed": []},
                                      "stopping": {"checks": 2, "failed": []}},
                      "timing_ms": {"goodness": 256, "stopping": 141}}, indent=2)


def test_parse_summary_reads_each_experiments_timing():
    assert bench.parse_summary(SUMMARY) == {"goodness": 256, "stopping": 141}


def test_catalog_record_converts_to_reference_seconds():
    run = bench.catalog_run(0, 3.0, 0.5, SUMMARY)
    assert run == {"exit": 0, "wall_s": 3.0, "wall_ref_s": 1.5, "reference_factor": 0.5,
                   "timing_ms": {"goodness": 256, "stopping": 141}}
    crashed = bench.catalog_run(2, 0.4, 0.5, None)
    assert (crashed["exit"], crashed["timing_ms"]) == (2, {})


def test_catalog_record_takes_the_medians_of_its_runs():
    """wall_ref_s is the median wall time times the median factor (3.5 here), not the
    median of the runs' own products (3.0)."""
    slower = SUMMARY.replace("256", "300").replace("141", "100")
    runs = [bench.catalog_run(0, 2.0, 1.5, SUMMARY), bench.catalog_run(0, 3.0, 1.0, slower),
            bench.catalog_run(0, 2.5, 1.4, SUMMARY)]
    rec = bench.catalog_record(runs)
    assert rec == {"exit": 0, "wall_s": 2.5, "wall_ref_s": 2.5 * 1.4, "reference_factor": 1.4,
                   "timing_ms": {"goodness": 256, "stopping": 141}, "runs": runs}
    crashed = bench.catalog_record([bench.catalog_run(0, 2.0, 1.0, SUMMARY),
                                    bench.catalog_run(2, 0.4, 1.0, None)])
    assert crashed["exit"] == 2 and crashed["timing_ms"] == {"goodness": 256, "stopping": 141}


@pytest.mark.parametrize("writes_summary", [True, False])
def test_run_catalog_brackets_the_run_with_the_calibration_kernel(monkeypatch, writes_summary):
    """A stand-in for the catalog run: no experiment runs."""
    events, probes = [], iter([0.08, 0.10])

    def fake_catalog(cmd, cwd, capture_output, text, env):
        events.append(("catalog", cmd[1:], cwd, env))
        if writes_summary:
            with open(os.path.join(cmd[cmd.index("--out") + 1], "catalog.json"), "w") as out:
                out.write(SUMMARY)
        return subprocess.CompletedProcess(cmd, 0 if writes_summary else 2)

    def fake_probe():
        events.append("probe")
        return next(probes)

    monkeypatch.setattr(bench.subprocess, "run", fake_catalog)
    monkeypatch.setattr(bench.calibrate, "seconds", fake_probe)
    rec = bench.run_catalog("/some/tree")
    assert [e if e == "probe" else e[0] for e in events] == ["probe", "catalog", "probe"]
    script, *args = events[1][1]
    assert script == os.path.join("/some/tree", "scripts", "run_reports.py")
    assert args[:2] == ["--seed", "7"] and events[1][2] == "/some/tree"
    assert events[1][3] is None  # the child inherits this environment
    factor = bench.calibrate.REFERENCE_S / 0.09  # over the mean of the two probes
    assert rec["reference_factor"] == pytest.approx(factor)
    assert rec["wall_ref_s"] == pytest.approx(rec["wall_s"] * factor)
    assert rec["exit"] == (0 if writes_summary else 2)
    assert rec["timing_ms"] == ({"goodness": 256, "stopping": 141} if writes_summary else {})


def test_run_catalog_hands_the_child_the_environment_it_is_given(monkeypatch):
    seen = []

    def fake_catalog(cmd, cwd, capture_output, text, env):
        seen.append(env)
        return subprocess.CompletedProcess(cmd, 2)

    monkeypatch.setattr(bench.subprocess, "run", fake_catalog)
    monkeypatch.setattr(bench.calibrate, "seconds", lambda: 0.09)
    env = {"PATH": "/bin", **bench.ONE_THREAD}
    assert bench.run_catalog("/some/tree", env)["exit"] == 2
    assert seen == [env]
    assert bench.ONE_THREAD == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                "MKL_NUM_THREADS": "1"}


TRACED = {"correct": True, "attempted": 48, "failed": 0,
          "metrics": {"wall_s": {"value": 0.0942, "unit": "s"},
                      "representation.matrix_element.calls": {"value": 9, "unit": "count"},
                      "representation.matrix_element.self_s": {"value": 0.002, "unit": "s"},
                      "gridfn.haar_vector.calls": {"value": 8, "unit": "count"},
                      "grid.is_good.good_ratio": {"value": 0.5, "unit": "ratio"}}}
CANNED_TRACED = "\n".join([
    f"# machine: {MACHINE}",
    "# workload=haar-representation seed=0 scale=full trace=1 passes=30 setups=5",
    "# representation.matrix_element.calls = 9 count",
    json.dumps(TRACED),
]) + "\n"
CALLS = {"representation.matrix_element.calls": 9, "gridfn.haar_vector.calls": 8}


def test_traced_record_keeps_the_call_counts_and_the_exit_code():
    assert bench.traced_record(CANNED_TRACED, 0) == {"exit": 0, "correct": True,
                                                     "calls": CALLS}
    zero_calls = bench.traced_record(CANNED_TRACED.replace('"correct": true',
                                                           '"correct": false'), 3)
    assert zero_calls == {"exit": 3, "correct": False, "calls": CALLS}
    assert bench.traced_record("error: worker crashed\n", 4) == {"exit": 4, "correct": None,
                                                                 "calls": {}}


def test_run_traced_runs_the_checkouts_run_py_traced_at_seed_zero(monkeypatch):
    """A stand-in for the traced run: no workload runs."""
    seen = []

    def fake_run(cmd, cwd, capture_output, text):
        seen.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=CANNED_TRACED)

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    rec = bench.run_traced("/some/tree", "haar-representation")
    [(args, cwd)] = seen
    assert args == [os.path.join("/some/tree", "perfbench", "run.py"), "--workload",
                    "haar-representation", "--seed", "0", "--seconds", "4.0", "--trace", "1"]
    assert cwd == "/some/tree"
    assert rec == {"exit": 0, "correct": True, "calls": CALLS}


PYTEST_PASSING = "\n".join([
    "........................................................................ [  7%]",
    "..............x......................................................... [100%]",
    "955 passed, 1 xfailed in 97.12s (0:01:37)",
]) + "\n"
PYTEST_FAILING = "\n".join([
    "....F...x................................................................ [100%]",
    "=================================== FAILURES ===================================",
    "_____________________________ test_seed_is_zero ______________________________",
    "E   assert 1 == 0",
    "=========================== short test summary info ============================",
    "FAILED tests/test_cli.py::test_seed_is_zero - assert 1 == 0",
    "12 failed, 943 passed, 1 xfailed, 2 warnings, 1 error in 101.50s (0:01:41)",
]) + "\n"


def test_tier1_record_reads_the_summary_line():
    assert bench.tier1_record(PYTEST_PASSING, 0, 98.0) == {
        "exit": 0, "wall_s": 98.0, "passed": 955, "failed": 0, "xfailed": 1}
    assert bench.tier1_record(PYTEST_FAILING, 1, 102.0) == {
        "exit": 1, "wall_s": 102.0, "passed": 943, "failed": 12, "xfailed": 1,
        "warnings": 2, "error": 1}
    assert bench.tier1_record("==== 3 passed in 0.12s ====\n", 0, 1.0)["passed"] == 3


def test_a_tier1_run_without_a_summary_line_counts_nothing():
    crashed = "ImportError while loading conftest '/some/tree/tests/conftest.py'.\n"
    assert bench.tier1_record(crashed, 4, 0.5) == {"exit": 4, "wall_s": 0.5, "passed": 0,
                                                   "failed": 0, "xfailed": 0}


def test_run_tier1_runs_the_checkouts_suite_on_its_own_src(monkeypatch):
    """A stand-in for the suite: no test runs."""
    seen = []

    def fake_pytest(cmd, cwd, capture_output, text, env):
        seen.append((cmd, cwd, env))
        return subprocess.CompletedProcess(cmd, 0, stdout=PYTEST_PASSING)

    monkeypatch.setattr(bench.subprocess, "run", fake_pytest)
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    rec = bench.run_tier1("/some/tree")
    [(cmd, cwd, env)] = seen
    assert cmd[1:] == ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"]
    assert cwd == "/some/tree"
    assert env["PYTHONPATH"] == os.pathsep.join([os.path.join("/some/tree", "src"),
                                                 "/elsewhere"])
    assert (rec["exit"], rec["passed"], rec["failed"], rec["xfailed"]) == (0, 955, 0, 1)
    assert rec["wall_s"] >= 0.0


def fake_tier1_run(order, exit_code=0):
    def run(tree):
        order.append(("tier1", tree))
        return bench.tier1_record(PYTEST_PASSING, exit_code, 98.0)
    return run


def fake_traced_run(order, exit_code=0):
    def run(tree, workload):
        order.append(("traced", workload, tree))
        return bench.traced_record(CANNED_TRACED, exit_code)
    return run


def fake_catalog_run(order, exit_code=0, one_thread_exit_code=0, one_thread_wall_s=2.0):
    """Default-thread runs take 3.0 s, one-thread runs `one_thread_wall_s`."""
    def run(tree, env=None):
        one = env is not None and all(env.get(k) == "1" for k in bench.ONE_THREAD)
        order.append(("catalog", tree, "one" if one else "default"))
        if one:
            return bench.catalog_run(one_thread_exit_code, one_thread_wall_s, 0.5, SUMMARY)
        return bench.catalog_run(exit_code, 3.0, 0.5, SUMMARY)
    return run


def test_main_interleaves_checkouts_and_writes_one_record_each(monkeypatch, tmp_path):
    order = []

    def fake_run(tree, workload, seed, seconds):
        order.append((seed, workload, tree))
        return {"workload": workload, "seed": seed, **bench.parse_run(CANNED, 0)}

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run(order))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run(order))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run(order))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": tree, "dirty": False})
    out, old, new = (str(tmp_path / name) for name in ("bench.json", "old", "new"))
    status = bench.main(["--out", out, "--tree", f"old={old}", "--tree", f"new={new}"])
    assert status == 0
    assert order == [(s, w, tree) for s in (1, 2, 3) for w in bench.WORKLOADS
                     for tree in (old, new)] + [
                         ("catalog", tree, threads) for threads in ("default", "one")
                         for tree in (old, new)] * 5 + [
                         ("traced", w, tree) for w in bench.WORKLOADS for tree in (old, new)] + [
                         ("tier1", tree) for tree in (old, new)]
    with open(out) as stream:
        doc = json.load(stream)
    assert list(doc["checkouts"]) == ["old", "new"]
    assert [run["seed"] for run in doc["checkouts"]["new"]["runs"]] == [1] * 4 + [2] * 4 + [3] * 4
    assert list(doc["checkouts"]["new"]["medians"]) == list(bench.WORKLOADS)
    assert doc["checkouts"]["old"]["head"] == old
    assert (doc["catalog_seed"], doc["catalog_runs"]) == (7, 5)
    assert doc["one_thread_env"] == bench.ONE_THREAD
    catalog = doc["checkouts"]["new"]["catalog"]
    assert len(catalog["runs"]) == 5 and catalog["wall_ref_s"] == 1.5
    assert catalog["timing_ms"] == {"goodness": 256, "stopping": 141}
    one_thread = doc["checkouts"]["new"]["catalog_one_thread"]
    assert len(one_thread["runs"]) == 5 and one_thread["wall_ref_s"] == 1.0
    assert one_thread["timing_ms"] == {"goodness": 256, "stopping": 141}
    assert (doc["trace_seed"], doc["trace_seconds"]) == (0, 4.0)
    assert doc["checkouts"]["old"]["traced"] == {
        w: {"exit": 0, "correct": True, "calls": CALLS} for w in bench.WORKLOADS}
    assert doc["checkouts"]["new"]["tier1"] == {"exit": 0, "wall_s": 98.0, "passed": 955,
                                                "failed": 0, "xfailed": 1}


def test_a_failing_run_makes_the_exit_status_one(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "workload": workload, "seed": seed, **bench.parse_run(CANNED, 1)})
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run([]))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run([]))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run([]))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": None, "dirty": None})
    assert bench.main(["--out", str(tmp_path / "b.json")]) == 1


def test_a_failing_catalog_makes_the_exit_status_one(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "workload": workload, "seed": seed, **bench.parse_run(CANNED, 0)})
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run([], exit_code=1))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run([]))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run([]))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": None, "dirty": None})
    assert bench.main(["--out", str(tmp_path / "b.json")]) == 1


def test_a_failing_one_thread_catalog_makes_the_exit_status_one(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "workload": workload, "seed": seed, **bench.parse_run(CANNED, 0)})
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run([], one_thread_exit_code=1))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run([]))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run([]))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": None, "dirty": None})
    assert bench.main(["--out", str(tmp_path / "b.json")]) == 1


def test_a_traced_run_left_with_zero_calls_makes_the_exit_status_one(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "workload": workload, "seed": seed, **bench.parse_run(CANNED, 0)})
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run([]))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run([], exit_code=3))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run([]))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": None, "dirty": None})
    assert bench.main(["--out", str(tmp_path / "b.json")]) == 1


def test_a_failing_tier1_suite_makes_the_exit_status_one(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds: {
        "workload": workload, "seed": seed, **bench.parse_run(CANNED, 0)})
    monkeypatch.setattr(bench, "run_catalog", fake_catalog_run([]))
    monkeypatch.setattr(bench, "run_traced", fake_traced_run([]))
    monkeypatch.setattr(bench, "run_tier1", fake_tier1_run([], exit_code=1))
    monkeypatch.setattr(bench, "git_state", lambda tree: {"head": None, "dirty": None})
    assert bench.main(["--out", str(tmp_path / "b.json")]) == 1
