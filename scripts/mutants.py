#!/usr/bin/env python3
"""Mutation checks: each listed defect must make its named tests fail.

Usage:
    python3 scripts/mutants.py

For each entry of MUTANTS the script copies the whole checkout (the tests
read files outside `src/` and `tests/`, such as `perfbench/workloads.py`)
into a temporary directory, replaces the entry's old text, which must occur
exactly once in its file, with the new text, and runs pytest on the entry's
tests against the copy.  A mutant is killed when pytest reports failed tests
(exit 1); the named tests must first pass on an unmutated copy.  Exit status:
0 every mutant killed, 1 some mutant survived, 2 the list is stale (an old
text not found exactly once, or a named test that does not pass unmutated).
EQUIVALENT lists the mutants left out, each with the reason no test can
kill it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                 "__pycache__", "out", ".work", "reports")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str     # relative to the checkout
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the checkout, that must fail


SPARSE = "src/dyadiclab/sparse.py"
TEST_SPARSE = "tests/test_sparse.py::"
GRIDFN = "src/dyadiclab/gridfn.py"
TEST_GRIDFN = "tests/test_gridfn.py::"
REPRESENTATION = "src/dyadiclab/representation.py"
TEST_REPRESENTATION = "tests/test_representation.py::"
EXPERIMENTS = "src/dyadiclab/experiments.py"
TEST_EXPERIMENTS = "tests/test_experiments.py::"

MUTANTS = (
    Mutant("sparse-lebesgue-half-boundary", SPARSE,
           "kept * vol >= 0.5 * whole * vol - _EXACT_TOL",
           "kept * vol > 0.5 * whole * vol - _EXACT_TOL",
           (TEST_SPARSE + "test_exact_half_is_sparse_without_the_tolerance",)),
    Mutant("sparse-weighted-half-boundary", SPARSE,
           "kept * vol >= 0.5 * whole * vol - _EXACT_TOL",
           "kept * vol >= 0.5 * whole * vol + _EXACT_TOL",
           (TEST_SPARSE + "test_member_keeping_exactly_half_its_weighted_measure_is_sparse",)),
    Mutant("sparse-whole-without-the-childrens-whole", SPARSE,
           "whole[self.parents[idx]] += whole[idx]",
           "whole[self.parents[idx]] += kept[idx]",
           (TEST_SPARSE + "test_hand_built_families_decide_as_the_two_branch_rule",)),
    Mutant("sparse-sweep-start-off-by-one-block", SPARSE,
           "start = tuple(r + b * size for b, r in zip(block, root_start))",
           "start = tuple(r + (b + 1) * size for b, r in zip(block, root_start))",
           (TEST_SPARSE + "test_swept_members_equal_their_checked_cubes",
            TEST_SPARSE + "test_sweep_matches_per_cube_build")),
    Mutant("sparse-cancellative-integral-tolerance", SPARSE,
           "* family.root.system.cell_volume > 1e-9",
           "* family.root.system.cell_volume > 1e-3",
           (TEST_SPARSE + "test_member_integral_of_one_millionth_is_not_cancellative",)),
    Mutant("sparse-stack-root-labels-all-zero", SPARSE,
           "labels = np.arange(n).reshape((n,) + (1,) * sysm.d)",
           "labels = np.zeros((n,) + (1,) * sysm.d, dtype=np.intp)",
           (TEST_SPARSE + "test_sweep_matches_per_cube_build",)),
    Mutant("sparse-stack-new-labels-off-by-one", SPARSE,
           "labels[new] = np.arange(len(bases), len(bases) + len(hits))",
           "labels[new] = np.arange(len(bases) + 1, len(bases) + len(hits) + 1)",
           (TEST_SPARSE + "test_sweep_matches_per_cube_build",)),
    Mutant("sparse-carleson-stack-first-row-only", SPARSE,
           "fsum, wsum = (a[(row, *block)] for a in sums[cube.level])",
           "fsum, wsum = (a[(0, *block)] for a in sums[cube.level])",
           (TEST_SPARSE + "test_carleson_list_form_equals_per_family_calls",)),
    Mutant("sparse-stopping-threshold-non-strict", SPARSE,
           "new = avg > 2.0 * bases[labels]",
           "new = avg >= 2.0 * bases[labels]",
           (TEST_SPARSE + "test_quarter_indicator_family",)),
    Mutant("gridfn-analysis-last-eta-sign-flipped", GRIDFN,
           "for row, eta_layer in zip(signs, layer):",
           "for row, eta_layer in zip(np.vstack([signs[:-1], -signs[-1:]]), layer):",
           (TEST_GRIDFN + "test_every_analyzed_coefficient_matches_its_cube",)),
    Mutant("gridfn-analysis-first-two-children-swapped", GRIDFN,
           "kids = [means[at].copy() for at in _CHILDREN[d]]",
           "kids = [means[at].copy() for at in _CHILDREN[d][1::-1] + _CHILDREN[d][2:]]",
           (TEST_GRIDFN + "test_analysis_and_synthesis_equal_the_block_oracles_bit_for_bit",)),
    Mutant("gridfn-synthesis-scale-times-two-to-the-d", GRIDFN,
           "np.empty(means.shape), 2.0 ** (level * d / 2.0)",
           "np.empty(means.shape), 2.0 ** (level * d / 2.0) * 2**d",
           (TEST_GRIDFN + "test_completeness_two_dimensional",)),
    Mutant("gridfn-analysis-means-summed-in-turn", GRIDFN,
           "pairs = d == 2 and means.shape[1] == 1 and means.shape[-1] > 2",
           "pairs = False",
           (TEST_GRIDFN + "test_analysis_and_synthesis_equal_the_block_oracles_bit_for_bit",)),
    Mutant("gridfn-bmo-skips-two-finest-levels", GRIDFN,
           "for level in range(sysm.min_level, sysm.depth):",
           "for level in range(sysm.min_level, sysm.depth - 1):",
           (TEST_GRIDFN + "test_bmo_norm_matches_per_exponent_oracle",)),
    Mutant("gridfn-list-coefficient-sign-row-reversed", GRIDFN,
           "terms = _sign_row(eta)[:, None] * kid_means",
           "terms = _sign_row(eta)[::-1, None] * kid_means",
           (TEST_GRIDFN + "test_haar_list_forms_equal_the_per_cube_oracles_bit_for_bit",)),
    Mutant("representation-list-element-h-i-at-j-level", REPRESENTATION,
           "haar_block(Is[0], etaI).reshape(-1)",
           "haar_block(Js[0], etaI).reshape(-1)",
           (TEST_REPRESENTATION
            + "test_matrix_element_list_form_equals_per_cube_oracle_bit_for_bit",)),
    Mutant("representation-full-sum-frame-etas-reversed", REPRESENTATION,
           "H[:, cols] = haar_vector(cubes, eta)",
           "H[:, cols] = haar_vector(cubes, etas(sysm.d)[-1 - e])",
           (TEST_REPRESENTATION + "test_full_pairing_sum_equals_the_per_cube_sum_bit_for_bit",)),
    Mutant("decoupling-hierarchy-levels-filled-right-to-left", "src/dyadiclab/decoupling.py",
           "levels[node_depth].append(cells)",
           "levels[node_depth].insert(0, cells)",
           ("tests/test_decoupling.py::test_random_hierarchy_equals_the_tree_oracle",)),
    Mutant("decoupling-work-cap-non-strict", "src/dyadiclab/decoupling.py",
           "if choices << len(chain) > _CELL_WORK_CAP:",
           "if choices << len(chain) >= _CELL_WORK_CAP:",
           ("tests/test_decoupling.py::test_a_chain_whose_work_equals_the_cap_is_evaluated",)),
    Mutant("grid-good-mask-extra-bit", "src/dyadiclab/grid.py",
           "u = [w >> (system.depth - level) for w in system._words]",
           "u = [w >> (system.depth - level + 1) for w in system._words]",
           ("tests/test_grid.py::test_good_mask_matches_is_good_per_cube",)),
    Mutant("grid-level-cubes-axes-reversed", "src/dyadiclab/grid.py",
           "return tuple(out.reshape(2, self.d, -1))",
           "return tuple(out.reshape(2, self.d, -1)[:, ::-1])",
           ("tests/test_grid.py::test_level_cubes_match_cubes_at_level",
            "tests/test_grid.py::test_good_mask_matches_is_good_per_cube")),
    Mutant("grid-level-cubes-starts-unshifted", "src/dyadiclab/grid.py",
           "(self.d - 1 - ax), self.origin_cell + s",
           "(self.d - 1 - ax), self.origin_cell",
           ("tests/test_grid.py::test_level_cubes_match_cubes_at_level",)),
    Mutant("cli-anchor-of-first-experiment", "src/dyadiclab/cli.py",
           "EXPERIMENTS[name].anchor",
           "EXPERIMENTS[names[0]].anchor",
           ("tests/test_catalog_reference.py::test_fast_catalog_matches_reference",)),
    Mutant("cli-report-rewritten-in-place", "src/dyadiclab/cli.py",
           """        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        with open(path, "w") as stream:""",
           """        with open(path, "w") as stream:""",
           ("tests/test_cli.py::test_reports_are_written_as_new_files",)),
    Mutant("cli-report-removes-what-is-not-a-file", "src/dyadiclab/cli.py",
           "if os.path.isfile(path) and not os.path.islink(path):",
           "if os.path.lexists(path):",
           ("tests/test_cli.py::test_symlink_and_fifo_reports_are_written_through",)),
    Mutant("shifts-matrix-scale-mean-norm", "src/dyadiclab/shifts.py",
           "np.linalg.norm(raw, 2, axis=(-2, -1)).max()",
           "np.linalg.norm(raw, 2, axis=(-2, -1)).mean()",
           ("tests/test_shifts.py::test_matrix_kernel_shift_runs_and_respects_cap",)),
    Mutant("representation-exclusive-chain-full-side", REPRESENTATION,
           "else (finer, list(shifts % half)))",
           "else (finer, list(shifts % size)))",
           (TEST_REPRESENTATION + "test_zero_operator_identity",)),
    Mutant("rademacher-zero-step-power-iteration", "src/dyadiclab/rademacher.py",
           "def _power_iteration_vector(op: np.ndarray, gen, iters: int = 12)",
           "def _power_iteration_vector(op: np.ndarray, gen, iters: int = 0)",
           ("tests/test_rademacher.py::test_probe_of_single_matrix_reaches_operator_norm",)),
    Mutant("experiments-worst-keeps-the-last-maximum", EXPERIMENTS,
           "if x > self.get(key, (0.0,))[0]:",
           "if x >= self.get(key, (0.0,))[0]:",
           (TEST_EXPERIMENTS + "test_stein_rows_name_their_first_identity_configuration",)),
    Mutant("experiments-worst-keeps-the-old-label", EXPERIMENTS,
           "self[key] = x, label",
           "self[key] = x, self.get(key, (0.0, None))[1]",
           (TEST_EXPERIMENTS + "test_the_first_of_equal_maxima_keeps_its_label",)),
)

# Mutants that no test can kill because the program behaves the same.
EQUIVALENT = (
    (Mutant("grid-good-mask-distance-non-strict", "src/dyadiclab/grid.py",
            "good &= dist > 2.0 ** (s * (1.0 - gamma)) + _GOOD_TIE_TOL",
            "good &= dist >= 2.0 ** (s * (1.0 - gamma)) + _GOOD_TIE_TOL", ()),
     "the integer distance is compared with 2^(s(1-gamma)) + 1e-12, which is not an "
     "integer for the gaps and gammas of any mesh the lab builds, so `>` and `>=` agree"),
    (Mutant("sparse-sweep-sort-by-walk-key-only", SPARSE,
            "for _, label, level, block, parent in sorted(members):",
            "for _, label, level, block, parent in sorted(members, key=lambda m: m[0]):", ()),
     "walk keys are distinct within a family, so sorting never compares past the key"),
)


def apply(mutant: Mutant, tree: str) -> bool:
    """Write the mutant into the copy at `tree`; False if its old text is not
    found exactly once."""
    path = os.path.join(tree, mutant.path)
    with open(path) as stream:
        text = stream.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w") as stream:
        stream.write(text.replace(mutant.old, mutant.new))
    return True


def run(mutant, tests) -> int:
    """pytest's exit status on `tests` in a fresh copy of the checkout with
    `mutant` applied (none if None), or None if its old text is stale."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if mutant is not None and not apply(mutant, tree):
            return None
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=tree, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    tests = sorted({test for m in MUTANTS for test in m.tests})
    if run(None, tests) != 0:
        print(f"STALE    the named tests do not all pass unmutated: {' '.join(tests)}")
        return 2
    status = 0
    for mutant in MUTANTS:
        code = run(mutant, mutant.tests)
        if code is None:
            print(f"STALE    {mutant.name}: old text not found exactly once in {mutant.path}")
            return 2
        if code == 1:
            print(f"killed   {mutant.name}")
        else:
            print(f"SURVIVED {mutant.name} (pytest exit {code})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
