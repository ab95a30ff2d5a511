import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab.errors import DegenerateInputError, ResourceLimitError
from dyadiclab.grid import DyadicSystem
from dyadiclab.gridfn import random_grid_function
from dyadiclab import rademacher
from dyadiclab.rademacher import (OperatorFamily, averaging_check, rbound_probe,
                                  rbound_witness, sign_patterns, stein_check, triangle_check)
from dyadiclab.rng import substream
from dyadiclab.space import NormedSpace, umd_beta_scalar

from oracles import (brute_rademacher_pnorm, per_assignment_rbound_probe, rademacher_pnorm,
                     scalar_family)


def test_two_equal_scalars_p2():
    assert rademacher_pnorm(np.array([[1.0], [1.0]]), 2) == pytest.approx(np.sqrt(2.0))


def test_sup_norm_basis_vectors():
    space = NormedSpace(2, np.inf)
    assert rademacher_pnorm(np.eye(2), 2, space=space) == pytest.approx(1.0)


def test_two_equal_scalars_p4_matches_bruteforce():
    oracle = brute_rademacher_pnorm([np.array([1.0]), np.array([1.0])], 4,
                                    lambda v: abs(v[0]))
    res = rademacher_pnorm(np.array([[1.0], [1.0]]), 4)
    assert res == pytest.approx(oracle)
    assert res == pytest.approx(8.0**0.25)


@given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from([1.5, 2.0, 3.0]))
def test_exhaustive_matches_bruteforce(seed, n, p):
    gen = np.random.default_rng(seed)
    elements = gen.standard_normal((n, 3))
    space = NormedSpace(3, 2.0)
    oracle = brute_rademacher_pnorm(list(elements), p, space.norm)
    assert rademacher_pnorm(elements, p, space=space) == pytest.approx(oracle)


def test_exhaustive_cap():
    with pytest.raises(ResourceLimitError):
        sign_patterns(21)


# -- witnesses and probes -------------------------------------------------------------


def test_identity_witness_is_one():
    family = OperatorFamily((np.eye(3),), NormedSpace(3, 2.0))
    gen = np.random.default_rng(0)
    assignment = [(0, gen.standard_normal(3)) for _ in range(3)]
    assert rbound_witness(family, assignment, 2) == pytest.approx(1.0)


def test_scaled_identity_witness_is_the_scale():
    family = OperatorFamily((-2.5 * np.eye(2),), NormedSpace(2, 2.0))
    assert rbound_witness(family, [(0, np.array([1.0, 3.0]))], 3) == pytest.approx(2.5)


def test_mixed_scalar_family_witness():
    family = scalar_family([1.0, 0.5])
    mixed = rbound_witness(family, [(0, np.array([1.0])), (1, np.array([1.0]))], 2)
    pure = rbound_witness(family, [(0, np.array([1.0])), (0, np.array([2.0]))], 2)
    assert mixed < 1.0
    assert pure == pytest.approx(1.0)


def test_zero_input_raises():
    family = scalar_family([1.0])
    with pytest.raises(DegenerateInputError):
        rbound_witness(family, [(0, np.array([0.0]))], 2)


def test_probe_of_single_matrix_reaches_operator_norm():
    gen = np.random.default_rng(3)
    matrix = gen.standard_normal((4, 4))
    family = OperatorFamily((matrix,), NormedSpace(4, 2.0))
    top_singular = np.linalg.svd(matrix)[1][0]  # oracle for the l2 operator norm
    probe = rbound_probe(family, 2, budget=40, seed=0)
    assert probe == pytest.approx(top_singular, rel=1e-9)


def test_probe_of_scalar_family_reaches_supremum():
    family = scalar_family([0.3, -0.9, 0.5])
    assert rbound_probe(family, 2, budget=20, seed=0) == pytest.approx(0.9)


def test_probe_of_zero_family_is_zero():
    family = OperatorFamily((np.zeros((2, 2)),), NormedSpace(2, 2.0))
    assert rbound_probe(family, 2, budget=5, seed=0) == 0.0


def test_probe_monotone_in_budget():
    gen = np.random.default_rng(8)
    family = OperatorFamily(tuple(gen.standard_normal((3, 3)) for _ in range(3)),
                            NormedSpace(3, 3.0))
    values = [rbound_probe(family, 2, budget, seed=5) for budget in (1, 5, 20, 60)]
    assert values == sorted(values)


@st.composite
def probe_cases(draw):
    """A family, exponent, budget, seed and extra assignments for one probe."""
    space = draw(st.builds(NormedSpace, st.integers(1, 3),
                           st.sampled_from([1.0, 2.0, 3.0, np.inf])))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [gen.standard_normal((space.dim, space.dim)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        ops.append(np.zeros((space.dim, space.dim)))
    if draw(st.booleans()):
        ops.append(ops[0])
    extra = [[(int(gen.integers(0, len(ops))), gen.standard_normal(space.dim))
              for _ in range(draw(st.integers(0, 4)))] for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        extra.append([(0, np.zeros(space.dim))])
    return (OperatorFamily(tuple(ops), space), draw(st.sampled_from([1.5, 2.0, 3.0])),
            draw(st.integers(1, 30)), draw(st.integers(0, 10**6)), extra)


@given(probe_cases())
def test_grouped_probe_matches_the_per_assignment_probe(case):
    family, p, budget, seed, extra = case
    want = per_assignment_rbound_probe(family, p, budget, seed, extra)
    assert rbound_probe(family, p, budget, seed, extra) == pytest.approx(want, rel=1e-15,
                                                                         abs=0.0)


def test_probe_builds_one_sign_array_per_assignment_length(monkeypatch):
    gen = np.random.default_rng(4)
    family = OperatorFamily(tuple(gen.standard_normal((3, 3)) for _ in range(3)),
                            NormedSpace(3, 2.0))
    extra = [[(0, gen.standard_normal(3))] * 5, []]
    lengths = {1, 5} | {int(substream(9, "probe-trial", t).integers(1, 5)) for t in range(30)}
    built = []

    def counting(n):
        built.append(n)
        return sign_patterns(n)

    monkeypatch.setattr(rademacher, "sign_patterns", counting)
    rbound_probe(family, 2.0, 30, 9, extra_assignments=extra)
    assert sorted(built) == sorted(lengths)


# -- conditional expectations -----------------------------------------------------------


SYS = DyadicSystem(d=1, m_top=0, depth=5)


def test_single_level_contraction():
    f = random_grid_function(SYS, 4)
    res = stein_check([f], [2], 2.0)
    assert res.ratio <= 1.0 + 1e-12


def test_identity_when_function_is_level_constant():
    from dyadiclab.gridfn import conditional_expectation

    f = conditional_expectation(random_grid_function(SYS, 4), 2)
    res = stein_check([f], [2], 3.0)
    assert res.ratio == pytest.approx(1.0)


@given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 3.0]))
def test_stein_ratio_below_scalar_bound(seed, p):
    gen = substream(seed, "stein-test")
    n = int(gen.integers(2, 5))
    fs = [random_grid_function(SYS, seed, label=f"stein-{k}") for k in range(n)]
    levels = sorted(int(x) for x in gen.integers(0, SYS.depth + 1, size=n))
    res = stein_check(fs, levels, p)
    assert res.bound == pytest.approx(umd_beta_scalar(p))
    assert res.ratio <= res.bound + 1e-9


def test_stein_check_rejects_non_scalar_functions():
    f = random_grid_function(SYS, 4, space=NormedSpace(2, 2.0))
    with pytest.raises(ValueError, match="scalar"):
        stein_check([f], [2], 2.0)


# -- calculus -------------------------------------------------------------------------------


@given(st.integers(0, 200))
def test_averaging_witness_below_pointwise_probe(seed):
    gen = substream(seed, "avg-test")
    dim = int(gen.integers(2, 4))
    space = NormedSpace(dim, float(gen.choice([1.0, 2.0, np.inf])))
    npts = int(gen.integers(2, 5))
    n_ops = int(gen.integers(1, 3))
    measure = gen.uniform(0.1, 1.0, size=npts)
    pointwise = [gen.standard_normal((npts, dim, dim)) for _ in range(n_ops)]
    weights = []
    for s in range(n_ops):
        lam = gen.standard_normal(npts)
        weights.append(lam / np.abs(lam * measure).sum())
    assignment = [(int(gen.integers(0, n_ops)), gen.standard_normal(dim))
                  for _ in range(int(gen.integers(1, 4)))]
    res = averaging_check(pointwise, weights, measure, assignment, 2.0, space,
                          probe_budget=25, seed=seed)
    assert res.probe > 0 and res.witness / res.probe <= 1 + 1e-9  # the catalog's gate


@given(st.integers(0, 200))
def test_triangle_witness_below_probe_sum(seed):
    gen = substream(seed, "tri-test")
    dim = int(gen.integers(2, 4))
    space = NormedSpace(dim, 2.0)
    n_ops = int(gen.integers(1, 4))
    left = OperatorFamily(tuple(gen.standard_normal((dim, dim))
                                for _ in range(n_ops)), space)
    right = OperatorFamily(tuple(gen.standard_normal((dim, dim))
                                 for _ in range(n_ops)), space)
    assignment = [((int(gen.integers(0, n_ops)), int(gen.integers(0, n_ops))),
                   gen.standard_normal(dim)) for _ in range(int(gen.integers(1, 4)))]
    res = triangle_check(left, right, assignment, 2.0, probe_budget=25, seed=seed)
    assert res.probe > 0 and res.witness / res.probe <= 1 + 1e-9  # the catalog's gate
