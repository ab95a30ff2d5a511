import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadiclab import decoupling
from dyadiclab.decoupling import (AdaptedFamily, AtomHierarchy, FiniteProbSpace,
                                  check_mds, condexp_sum_check, construct_uv,
                                  decoupled_pnorm, plain_pnorm, random_adapted_family,
                                  random_hierarchy)
from dyadiclab.errors import AdaptednessError, ResourceLimitError
from dyadiclab.rademacher import sign_average
from dyadiclab.rng import substream
from dyadiclab.space import SCALAR, NormedSpace, umd_beta_scalar

from oracles import (active_atoms_by_scan, chain_through_by_scan, check_mds_per_stream,
                     decoupled_pnorm_full_product, decoupled_pnorm_per_choice,
                     random_hierarchy_by_tree, recovery_violation)

TWO = AtomHierarchy(np.array([1.0, 1.0]), (((0, 1),), ((0,), (1,))))


def two_child_family(a=2.0):
    return AdaptedFamily(TWO, {(0, (0, 1)): np.array([[a], [-a]])})


def test_two_child_tables():
    uv = construct_uv(two_child_family())
    u = uv.symmetric[(0, (0, 1))][..., 0]
    v = uv.antisymmetric[(0, (0, 1))][..., 0]
    assert np.allclose(u, [[2.0, 0.0], [0.0, -2.0]])
    assert np.allclose(v, [[0.0, 2.0], [-2.0, 0.0]])


def test_zero_family_gives_zero_tables():
    fam = AdaptedFamily(TWO, {(0, (0, 1)): np.zeros((2, 1))})
    uv = construct_uv(fam)
    assert np.abs(uv.symmetric[(0, (0, 1))]).max() == 0.0
    assert np.abs(uv.antisymmetric[(0, (0, 1))]).max() == 0.0


def test_three_child_tables_satisfy_defining_equations():
    hierarchy = AtomHierarchy(np.array([2.0, 1.0, 1.0]),
                              (((0, 1, 2),), ((0,), (1,), (2,))))
    fam = AdaptedFamily(hierarchy, {(0, (0, 1, 2)): np.array([[0.0], [3.0], [-3.0]])})
    uv = construct_uv(fam)
    assert recovery_violation(uv) == 0.0
    u = uv.symmetric[(0, (0, 1, 2))]
    v = uv.antisymmetric[(0, (0, 1, 2))]
    assert np.abs(u - np.transpose(u, (1, 0, 2))).max() == 0.0
    assert np.abs(v + np.transpose(v, (1, 0, 2))).max() == 0.0
    assert np.abs(np.diagonal(v[..., 0])).max() == 0.0


def test_non_cancellative_family_rejected():
    with pytest.raises(AdaptednessError):
        AdaptedFamily(TWO, {(0, (0, 1)): np.array([[1.0], [1.0]])})


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_adaptedness_does_not_depend_on_the_weight_scale(scale):
    # centring leaves a rounding residue in the weighted sum that grows with
    # the weights; the weighted mean stays at rounding size
    hierarchy = AtomHierarchy(np.array([0.3, 0.7, 1.1, 1.9]) * scale,
                              (((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))))
    masses = hierarchy.cell_weights
    vals = np.random.default_rng(5).standard_normal((4, 1))
    centred = vals - masses @ vals / masses.sum()
    AdaptedFamily(hierarchy, {(0, (0, 1, 2, 3)): centred})
    with pytest.raises(AdaptednessError, match="nonzero weighted mean"):
        AdaptedFamily(hierarchy, {(0, (0, 1, 2, 3)): centred + 1e-3})


@pytest.mark.parametrize("depth, max_children", [(-1, 4), (-2, 4), (3, 0), (3, -1)])
def test_random_hierarchy_rejects_a_shape_it_cannot_build(depth, max_children):
    with pytest.raises(ValueError, match="needs depth >= 0 and max_children >= 1"):
        random_hierarchy(0, depth=depth, max_children=max_children)


def test_mds_checks_vanish_on_symmetric_case():
    uv = construct_uv(two_child_family())
    assert check_mds(uv, 10, seed=0) == 0.0


@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(0, 5))
def test_mds_checks_match_one_stream_per_test_function(seed, dim, test_functions):
    hierarchy = random_hierarchy(seed, depth=3, max_children=4)
    uv = construct_uv(random_adapted_family(hierarchy, seed, NormedSpace(dim, 2.0)))
    assert check_mds(uv, test_functions, seed) == check_mds_per_stream(uv, test_functions, seed)


@given(st.integers(0, 10**6))
def test_mds_checks_on_random_hierarchies(seed):
    hierarchy = random_hierarchy(seed, depth=3, max_children=4)
    fam = random_adapted_family(hierarchy, seed)
    uv = construct_uv(fam)
    assert check_mds(uv, 20, seed=seed) <= 1e-12
    assert recovery_violation(uv) <= 1e-12


def test_single_atom_decoupled_norm_is_plain_norm():
    fam = two_child_family()
    value = decoupled_pnorm(fam, 2.0)
    assert value == pytest.approx(plain_pnorm(fam, 2.0))


def test_disjoint_atoms_change_nothing():
    hierarchy = AtomHierarchy(
        np.ones(4), (((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))))
    values = {(0, (0, 1)): np.array([[1.0], [-1.0]]),
              (0, (2, 3)): np.array([[2.0], [-2.0]])}
    fam = AdaptedFamily(hierarchy, values)
    dec = decoupled_pnorm(fam, 2.0)
    assert dec == pytest.approx(plain_pnorm(fam, 2.0))


def test_hierarchy_without_active_atoms_has_zero_norms():
    fam = AdaptedFamily(AtomHierarchy(np.ones(3), (((0, 1, 2),),)), {})
    assert decoupled_pnorm(fam, 2.0) == 0.0
    assert plain_pnorm(fam, 2.0) == 0.0


def test_zero_family_norms():
    fam = AdaptedFamily(TWO, {(0, (0, 1)): np.zeros((2, 1))})
    assert decoupled_pnorm(fam, 3.0) == 0.0
    assert plain_pnorm(fam, 3.0) == 0.0


@given(st.integers(0, 500), st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=15)
def test_decoupled_norm_matches_full_product_oracle(seed, p):
    hierarchy = random_hierarchy(seed, depth=2, max_children=3)
    if len(hierarchy.active_atoms()) > 5:
        return
    fam = random_adapted_family(hierarchy, seed)
    fast = decoupled_pnorm(fam, p)
    oracle = decoupled_pnorm_full_product(fam, p)
    assert fast == pytest.approx(oracle, rel=1e-10)


SPACES = [SCALAR, NormedSpace(2, 1.0), NormedSpace(2, 2.0), NormedSpace(3, np.inf)]


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from(SPACES))
@settings(max_examples=40, deadline=None)
def test_decoupled_norm_equals_the_per_choice_oracle(seed, depth, max_children, p, space):
    fam = random_adapted_family(random_hierarchy(seed, depth=depth, max_children=max_children),
                                seed, space)
    assert decoupled_pnorm(fam, p) == decoupled_pnorm_per_choice(fam, p)


# cells 0 and 1 share a chain, as do cells 3 and 4; the level-1 atom (3, 4) has one child
SHARED_CHAINS = AtomHierarchy(np.array([0.5, 1.5, 1.0, 2.0, 0.25]), (
    ((0, 1, 2, 3, 4),),
    ((0, 1, 2), (3, 4)),
    ((0, 1), (2,), (3, 4)),
    ((0,), (1,), (2,), (3,), (4,))))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("space", SPACES)
def test_shared_chains_are_evaluated_once_each(monkeypatch, p, space):
    fam = random_adapted_family(SHARED_CHAINS, 3, space)
    calls = []

    def counted(elements, *args):
        calls.append(elements.shape)
        return sign_average(elements, *args)

    monkeypatch.setattr(decoupling, "sign_average", counted)
    assert decoupled_pnorm(fam, p) == decoupled_pnorm_per_choice(fam, p)
    # one call per level-2 atom, each over its chain's child-choice tuples
    assert calls == [(8, 3, space.dim), (4, 3, space.dim), (4, 3, space.dim)]


@given(st.integers(0, 10**6))
def test_two_sided_decoupling_at_p2_is_equality(seed):
    hierarchy = random_hierarchy(seed, depth=3, max_children=4)
    fam = random_adapted_family(hierarchy, seed)
    dec = decoupled_pnorm(fam, 2.0)
    assert dec == pytest.approx(plain_pnorm(fam, 2.0), rel=1e-10)


@given(st.integers(0, 10**6))
def test_two_sided_decoupling_at_p3(seed):
    hierarchy = random_hierarchy(seed, depth=3, max_children=4)
    fam = random_adapted_family(hierarchy, seed)
    dec = decoupled_pnorm(fam, 3.0)
    plain = plain_pnorm(fam, 3.0)
    beta = umd_beta_scalar(3.0)
    assert plain <= beta * dec + 1e-9
    assert dec <= beta * plain + 1e-9


# -- sums of independent conditional expectations ----------------------------------------


def test_full_algebra_is_identity():
    spaces = [FiniteProbSpace(np.ones(4))]
    fs = [np.arange(4.0)[:, None]]
    parts = [[[0], [1], [2], [3]]]
    assert condexp_sum_check(spaces, fs, parts, 2.0) == pytest.approx(1.0)


def test_trivial_algebra_mean_zero_gives_zero():
    spaces = [FiniteProbSpace(np.ones(4))]
    f = np.arange(4.0)[:, None]
    f = f - f.mean(axis=0)
    assert condexp_sum_check(spaces, [f], [[[0, 1, 2, 3]]], 2.0) == 0.0


@given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 3.0]))
def test_random_products_are_contractive(seed, p):
    gen = substream(seed, "condexp-oracle")
    n = int(gen.integers(2, 4))
    spaces, fs, parts = [], [], []
    for _ in range(n):
        size = int(gen.integers(2, 5))
        spaces.append(FiniteProbSpace(gen.uniform(0.2, 1.0, size=size)))
        fs.append(gen.standard_normal((size, 2)))
        pool = list(range(size))
        blocks = []
        while pool:
            take = int(gen.integers(1, len(pool) + 1))
            blocks.append(pool[:take])
            pool = pool[take:]
        parts.append(blocks)
    ratio = condexp_sum_check(spaces, fs, parts, p, NormedSpace(2, 2.0))
    assert ratio <= 1.0 + 1e-12


def refuse_evaluation(monkeypatch):
    def evaluated(*args):
        raise AssertionError("a chain was evaluated before the cap was checked")

    monkeypatch.setattr(decoupling, "sign_average", evaluated)


def test_cell_work_cap_fires_before_any_cell_is_evaluated(monkeypatch):
    hierarchy = random_hierarchy(1, depth=3, max_children=4)
    fam = random_adapted_family(hierarchy, 1)
    choices = largest_chain_product(hierarchy)
    monkeypatch.setattr(decoupling, "_CELL_WORK_CAP", (choices << 3) - 1)  # 3 atoms a chain
    refuse_evaluation(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"3 atoms and {choices} child choices"):
        decoupled_pnorm(fam, 2.0)


def test_a_chain_whose_work_equals_the_cap_is_evaluated(monkeypatch):
    hierarchy = random_hierarchy(1, depth=3, max_children=4)
    fam = random_adapted_family(hierarchy, 1)
    expected = decoupled_pnorm(fam, 2.0)
    monkeypatch.setattr(decoupling, "_CELL_WORK_CAP", largest_chain_product(hierarchy) << 3)
    assert decoupled_pnorm(fam, 2.0) == expected


def largest_chain_product(h):
    return max(math.prod(len(kids) for (_, _, kids, _) in h.chain_through(cell))
               for cell in range(h.n_cells))


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 4), st.integers(1, 40))
def test_hierarchy_draw_stops_at_the_chain_cap(seed, depth, max_children, cap):
    # below the cap the draw is unchanged; past it, the draw raises
    uncapped = random_hierarchy(seed, depth=depth, max_children=max_children)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoupling, "_CHAIN_CAP", cap)
        if largest_chain_product(uncapped) > cap:
            with pytest.raises(ResourceLimitError, match="root-to-leaf product"):
                random_hierarchy(seed, depth=depth, max_children=max_children)
        else:
            capped = random_hierarchy(seed, depth=depth, max_children=max_children)
            assert capped.levels == uncapped.levels
            assert np.array_equal(capped.cell_weights, uncapped.cell_weights)


@given(st.integers(0, 10**6), st.integers(0, 4), st.integers(1, 4), st.integers(1, 300))
def test_random_hierarchy_equals_the_tree_oracle(seed, depth, max_children, cap):
    # the same draws in the same order: the same levels and weights, or the same
    # chain-cap error (the caps up to 300 fire on some draws and not on others)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoupling, "_CHAIN_CAP", cap)
        outcomes = []
        for build in (random_hierarchy, random_hierarchy_by_tree):
            try:
                h = build(seed, depth=depth, max_children=max_children)
                outcomes.append((h.levels, h.cell_weights.tolist()))
            except ResourceLimitError as err:
                outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


def test_long_single_child_chain_hits_the_sign_cap(monkeypatch):
    # every child count is 1, but 2^21 sign patterns pass the cell work cap, as they
    # pass the sign enumeration cap of 20 atoms
    hierarchy = random_hierarchy(0, depth=21, max_children=1)
    fam = random_adapted_family(hierarchy, 0)
    refuse_evaluation(monkeypatch)
    with pytest.raises(ResourceLimitError, match="21 atoms and 1 child choices passes the "
                                                 "cell work cap 4096"):
        decoupled_pnorm(fam, 2.0)


def test_atoms_out_of_cell_order_are_rejected():
    with pytest.raises(ValueError, match="ascending cell order"):
        AtomHierarchy(np.ones(2), (((0, 1),), ((1,), (0,))))


# -- the indexed hierarchy against the set-scan walk ----------------------------------


def long_chain_hierarchy():
    """256 unit cells; cell 0's atom splits off 15 singletons at each of 17 levels."""
    return AtomHierarchy(np.ones(256), tuple(
        ((0, *range(15 * lv + 1, 256)),) + tuple((c,) for c in range(1, 15 * lv + 1))
        for lv in range(18)))


HAND_BUILT = [
    TWO,
    AtomHierarchy(np.array([2.0, 1.0, 1.0]), (((0, 1, 2),), ((0,), (1,), (2,)))),
    AtomHierarchy(np.ones(4), (((0, 1), (2, 3)), ((0,), (1,), (2,), (3,)))),
    AtomHierarchy(np.array([0.5, 2.0, 1.0]), (((0, 1, 2),), ((0, 2), (1,)), ((0,), (1,), (2,)))),
    AtomHierarchy(np.ones(3), (((0, 1, 2),),)),
    long_chain_hierarchy(),
]


def assert_matches_scan(h):
    stored = h.active_atoms()
    scanned = active_atoms_by_scan(h)
    assert [(lv, atom, list(kids)) for lv, atom, kids, _ in stored] == scanned
    for (_, _, kids, masses) in stored:
        assert np.array_equal(masses, np.array([h.atom_weight(k) for k in kids]))
    for cell in range(h.n_cells):
        chain = [(lv, atom, list(kids)) for lv, atom, kids, _ in h.chain_through(cell)]
        assert chain == chain_through_by_scan(h, cell)


@pytest.mark.parametrize("h", HAND_BUILT)
def test_hand_built_hierarchies_match_the_scan(h):
    assert_matches_scan(h)


@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
def test_random_hierarchies_match_the_scan(seed, depth, max_children):
    assert_matches_scan(random_hierarchy(seed, depth=depth, max_children=max_children))


@pytest.mark.parametrize("weights, levels, match", [
    ([1.0, 0.0], (((0, 1),),), "positive"),
    ([1.0, 1.0, 1.0], (((0, 1),),), "partition"),
    ([1.0, 1.0], (((0, 1),), ((0,), (0, 1))), "partition"),
    ([1.0] * 4, (((0, 1), (2, 3)), ((0,), (1, 2), (3,))), "refine"),
    ([np.nan, 1.0], (((0, 1),),), "finite"),
    ([np.inf, 1.0], (((0, 1),),), "finite"),
])
def test_malformed_hierarchies_are_rejected(weights, levels, match):
    with pytest.raises(ValueError, match=match):
        AtomHierarchy(np.array(weights), levels)


@pytest.mark.parametrize("weights", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 1.0]])
def test_probability_space_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        FiniteProbSpace(np.array(weights))


def test_chain_product_cap_does_not_wrap(monkeypatch):
    # cell 0's chain has 17 atoms of 16 children: 16**17 wraps to 0 in int64
    fam = random_adapted_family(long_chain_hierarchy(), 0)
    refuse_evaluation(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"17 atoms and {16**17} child choices passes "
                                                 f"the cell work cap"):
        decoupled_pnorm(fam, 2.0)
