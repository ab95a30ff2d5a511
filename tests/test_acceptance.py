"""Acceptance suite: one test per quantitative criterion, at stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -s`).  The
experiment runners behind the command-line interface are the single source
of truth, so every criterion here is also reproducible via `dyadiclab run`.
"""

import json
import time

import pytest

from dyadiclab.cli import main as cli_main
from dyadiclab.errors import InsufficientDataError
from dyadiclab.experiments import run_experiment
from dyadiclab.grid import DyadicSystem, GoodnessParams
from dyadiclab.representation import assemble, decay_check, hilbert_kernel


# trial counts of the determinism criterion; every other criterion runs at defaults
DETERMINISM_PARAMS = {"rbound-calculus": {"n_configs": 30}, "decoupling": {"n_families": 20},
                      "carleson": {"n_funcs": 30}}


def report(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def run_and_report(criterion: str, name: str, overrides=None, seed: int = 7,
                   time_limit: float = None):
    start = time.perf_counter()
    checks = run_experiment(name, seed, overrides or {})
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    detail = f"{len(checks)} checks, {elapsed:.1f}s"
    if failed:
        detail += "; failed: " + ", ".join(
            f"{c.check_id} measured={c.measured!r} bound={c.bound!r}" for c in failed)
    ok = not failed
    if time_limit is not None:
        ok &= elapsed <= time_limit
        detail += f", limit {time_limit:.0f}s"
    report(criterion, ok, detail)
    return checks


def test_criterion_01_haar_completeness():
    checks = run_and_report("criterion 01 haar-completeness", "haar-completeness",
                            time_limit=10.0)
    assert {c.check_id: c.measured.hex() for c in checks} == HAAR_COMPLETENESS_SEED7


# shift-bound's measured values at catalog defaults and seed 7, bit for bit: batching
# the inputs, the kernel keys and the exponents must not move one of them
SHIFT_BOUND_SEED7 = {
    "shift-bound/p=1.5/normalized": "0x1.67ff22abdbd4ap-6",
    "shift-bound/p=1.5/max-ratio": "0x1.67ff22abdbd4ap-2",
    "shift-bound/p=2.0/normalized": "0x1.72f9297d35a4bp-4",
    "shift-bound/p=2.0/max-ratio": "0x1.72f9297d35a4bp-2",
    "shift-bound/p=3.0/normalized": "0x1.99280a7b317abp-6",
    "shift-bound/p=3.0/max-ratio": "0x1.99280a7b317abp-2",
}

# paraproduct's and haar-completeness's measured values at catalog defaults and seed 7,
# bit for bit: stacking the pairs and the functions must not move one of them
PARAPRODUCT_SEED7 = {
    "paraproduct/p=1.5/normalized": "0x1.8ec00090fa791p-9",
    "paraproduct/p=2.0/normalized": "0x1.e428c97ed913fp-8",
    "paraproduct/p=3.0/normalized": "0x1.e07a8abbd7c49p-9",
}
HAAR_COMPLETENESS_SEED7 = {
    "haar-completeness/1d": "0x1.8000000000000p-50",
    "haar-completeness/2d": "0x1.0000000000000p-50",
}

# matrix-decay's and paraproduct-extraction's measured values at catalog defaults and
# seed 7, bit for bit: the kept Haar patterns, the coefficient sign rows and the decay
# scan's per-level goodness masks must not move one of them.  averaging-identity is not
# pinned: its dense T @ W product rounds differently at one BLAS thread
MATRIX_DECAY_SEED7 = {
    "matrix-decay/far_disjoint/slope": "-0x1.e7f54d1b9c8fdp-2",
    "matrix-decay/deeply_nested/slope": "-0x1.7c15832d06f57p-1",
    "matrix-decay/near_disjoint/bounded-spread": "0x1.c7f76a7e1e7d0p+0",
    "matrix-decay/shallowly_nested/bounded-spread": "0x1.675ada3886738p+0",
    "matrix-decay/equal/vs-wbp-and-decay": "0x1.8000000000000p-53",
    "matrix-decay/empty-good-set-guard": "0x0.0p+0",
}
PARAPRODUCT_EXTRACTION_SEED7 = {
    "paraproduct-extraction/identity": "0x1.8000000000000p-56",
    "paraproduct-extraction/raw-equals-pairing": "0x1.6000000000000p-55",
}

AVERAGING_IDENTITY_SEED7 = {
    "averaging-identity/relative-residual": "0x1.8181d4fd7d301p-51",
    "averaging-identity/full-sum-sanity": "0x1.4000000000000p-56",
    "averaging-identity/truncation-remainder": "0x1.1b4033528a39bp-58",
    "averaging-identity/pi-good": "0x1.0000000000000p-2",
}

# stopping's, carleson's and pythagoras's measured values at catalog defaults and seed 7,
# bit for bit: the owner-array `locate` and the start-cell `children` of the subcube
# walk must not move one of them
STOPPING_SEED7 = {
    "stopping/sparse-exact": "0x0.0p+0",
    "stopping/average-control": "0x1.fff3fa4a79831p+0",
    "stopping/child-control": "0x1.e63b149e9c1fdp+1",
}
CARLESON_SEED7 = {
    "carleson/p=1.5/vs-stated": "0x1.a4ed5d8e530a1p-3",
    "carleson/p=1.5/vs-proof-constant": "0x1.092ae2f22b073p-2",
    "carleson/p=2.0/vs-stated": "0x1.1cde74d1c227cp-2",
    "carleson/p=2.0/vs-proof-constant": "0x1.92dd9566419abp-2",
    "carleson/p=3.0/vs-stated": "0x1.55cea4a03816dp-2",
    "carleson/p=3.0/vs-proof-constant": "0x1.0f4ae4d201e6ep-1",
}
PYTHAGORAS_SEED7 = {
    "pythagoras/direct/p=1.5": "0x1.e36a9674c0074p-3",
    "pythagoras/direct/p=2.0": "0x1.7e8034e445c5bp-3",
    "pythagoras/direct/p=3.0": "0x1.1b2b4c6ef25a5p-3",
    "pythagoras/reverse_cancellative/p=1.5": "0x1.d68eb31629895p-5",
    "pythagoras/reverse_cancellative/p=2.0": "0x1.5555555555557p-4",
    "pythagoras/reverse_cancellative/p=3.0": "0x1.c71c71c71c71cp-4",
    "pythagoras/reverse_nonneg/p=1.5": "0x1.c2beef0c592f4p-5",
    "pythagoras/reverse_nonneg/p=2.0": "0x1.51ad15632ffadp-4",
    "pythagoras/reverse_nonneg/p=3.0": "0x1.c390320a82108p-4",
    "pythagoras/counterexample/sum-norm": "0x0.0p+0",
    "pythagoras/counterexample/power-sum": "0x0.0p+0",
}

# decoupling's, condexp-sum's, rbound-calculus's and stein's measured values at catalog
# defaults and seed 7, bit for bit; they are the same at one BLAS thread
DECOUPLING_SEED7 = {
    "decoupling/two-sided/p=2.0": "0x1.0000000000002p+0",
    "decoupling/two-sided/p=3.0": "0x1.1bde64382057dp-1",
    "decoupling/martingale-differences": "0x1.2fb4478cf2738p-45",
}
CONDEXP_SUM_SEED7 = {
    "condexp-sum/p=1.5": "0x1.0000000000001p+0",
    "condexp-sum/p=2.0": "0x1.0000000000001p+0",
    "condexp-sum/p=3.0": "0x1.0000000000001p+0",
}
RBOUND_CALCULUS_SEED7 = {
    "rbound-calculus/averaging": "0x1.6020d1a3a8df9p-1",
    "rbound-calculus/triangle": "0x1.6b8f79a745c4ep-1",
}
STEIN_SEED7 = {
    "stein/p=1.5/normalized": "0x1.0000000000000p-1",
    "stein/p=2.0/normalized": "0x1.0000000000000p+0",
    "stein/p=3.0/normalized": "0x1.0000000000000p-1",
}


def test_criterion_02_shift_bound():
    checks = run_and_report("criterion 02 shift-bound", "shift-bound",
                            time_limit=300.0)
    # at least 200 kernel draws back the sweep: 16 parameter pairs x 13 draws
    assert 16 * 13 >= 200
    assert {c.check_id: c.measured.hex() for c in checks} == SHIFT_BOUND_SEED7


def test_criterion_03_pythagoras():
    checks = run_and_report("criterion 03 pythagoras", "pythagoras")
    ids = {c.check_id for c in checks}
    assert "pythagoras/counterexample/sum-norm" in ids
    assert "pythagoras/counterexample/power-sum" in ids
    assert {c.check_id: c.measured.hex() for c in checks} == PYTHAGORAS_SEED7


def test_criterion_04_carleson():
    checks = run_and_report("criterion 04 carleson", "carleson")
    assert any("vs-proof-constant" in c.check_id for c in checks)
    assert {c.check_id: c.measured.hex() for c in checks} == CARLESON_SEED7


def test_criterion_05_stopping():
    checks = run_and_report("criterion 05 stopping", "stopping")
    assert {c.check_id: c.measured.hex() for c in checks} == STOPPING_SEED7


def test_criterion_06_paraproduct():
    checks = run_and_report("criterion 06 paraproduct", "paraproduct")
    assert {c.check_id: c.measured.hex() for c in checks} == PARAPRODUCT_SEED7


def test_criterion_07_decoupling():
    checks = run_and_report("criterion 07 decoupling", "decoupling")
    assert {c.check_id: c.measured.hex() for c in checks} == DECOUPLING_SEED7


def test_criterion_08_condexp_sum():
    checks = run_and_report("criterion 08 condexp-sum", "condexp-sum")
    assert {c.check_id: c.measured.hex() for c in checks} == CONDEXP_SUM_SEED7


def test_criterion_09_rbound_calculus_and_stein():
    checks = run_and_report("criterion 09a rbound-calculus", "rbound-calculus")
    assert {c.check_id: c.measured.hex() for c in checks} == RBOUND_CALCULUS_SEED7
    checks = run_and_report("criterion 09b stein", "stein")
    assert {c.check_id: c.measured.hex() for c in checks} == STEIN_SEED7


def test_criterion_10_goodness():
    run_and_report("criterion 10 goodness", "goodness")


@pytest.mark.xfail(
    strict=True,
    raises=InsufficientDataError,
    reason="the stated configuration (gamma=1/8, r=3) admits no good cube: the "
    "threshold-3 ancestor inequality needs distance above 2^(21/8) > 6 side "
    "lengths inside an ancestor only 8 side lengths wide, which is impossible; "
    "slope fits are therefore unattainable as stated",
)
def test_criterion_11_matrix_decay_as_stated():
    system = DyadicSystem(d=1, m_top=0, depth=10)
    operator = assemble(hilbert_kernel(), system)
    params = GoodnessParams(gamma=0.125, r=3)
    result = decay_check(operator, "far_disjoint", range(4, 9), params, alpha=1.0)
    report("criterion 11 matrix-decay (stated parameters)",
           result.slope <= -0.65, f"slope {result.slope}")


def test_criterion_11_matrix_decay_feasible_configuration():
    start = time.perf_counter()
    checks = run_experiment("matrix-decay", 7)
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    guard = next(c for c in checks if "empty-good-set-guard" in c.check_id)
    detail = (f"feasible gamma=0.4, r=4: {len(checks)} checks, {elapsed:.1f}s; "
              f"stated gamma=1/8, r=3 correctly reported unattainable")
    report("criterion 11 matrix-decay (feasible parameters)",
           not failed and elapsed <= 600.0 and guard.passed, detail)
    assert {c.check_id: c.measured.hex() for c in checks} == MATRIX_DECAY_SEED7


def test_criterion_12_paraproduct_extraction():
    checks = run_and_report("criterion 12 paraproduct-extraction", "paraproduct-extraction")
    assert {c.check_id: c.measured.hex() for c in checks} == PARAPRODUCT_EXTRACTION_SEED7


def test_criterion_13_averaging_identity():
    checks = run_and_report("criterion 13 averaging-identity", "averaging-identity")
    by_id = {c.check_id: c for c in checks}
    assert by_id["averaging-identity/relative-residual"].measured <= 1e-2
    assert by_id["averaging-identity/full-sum-sanity"].measured <= 1e-10
    assert {c.check_id: c.measured.hex() for c in checks} == AVERAGING_IDENTITY_SEED7


def test_criterion_14_determinism(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiments": ["goodness", "rbound-calculus", "averaging-identity",
                        "decoupling", "carleson"],
        "seed": 7,
        "params": DETERMINISM_PARAMS,
    }))

    def one(tag):
        out = tmp_path / f"{tag}.csv"
        code = cli_main(["run", "--config", str(config), "--out", str(out)])
        body = out.read_text()
        stripped = "\n".join(line.rsplit(",", 1)[0]
                             for line in body.strip().splitlines())
        summary = json.loads((tmp_path / f"{tag}.json").read_text())
        summary.pop("timing_ms", None)
        return code, stripped, json.dumps(summary, sort_keys=True)

    first = one("first")
    second = one("second")
    same = first == second
    report("criterion 14 determinism", same and first[0] == 0,
           "two seeded runs agree byte for byte on every report column except "
           "wall time")
