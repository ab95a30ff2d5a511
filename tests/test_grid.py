import itertools
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab.errors import AmbientRangeError, ResourceLimitError
from dyadiclab.grid import (MESH_CELL_BITS, DyadicCube, DyadicSystem, GoodnessParams,
                            good_mask, goodness_bound, goodness_position_joint,
                            goodness_probability, is_good)

import oracles


def test_mesh_cell_cap_fires_before_any_allocation():
    assert DyadicSystem(d=1, depth=MESH_CELL_BITS - 1).n_cells == 1 << MESH_CELL_BITS
    assert DyadicSystem(d=2, m_top=1, depth=MESH_CELL_BITS // 2 - 2).n_cells == 1 << MESH_CELL_BITS
    for shape in ({"d": 1, "depth": MESH_CELL_BITS}, {"d": 2, "depth": MESH_CELL_BITS // 2},
                  {"d": 1, "m_top": 3, "depth": MESH_CELL_BITS - 3}, {"d": 1, "depth": 10**9}):
        with pytest.raises(ResourceLimitError, match="cells exceeds 2"):
            DyadicSystem(**shape)


def test_translation_of_half_interval():
    system = DyadicSystem(d=1, m_top=0, depth=3, omega=((0,), (1,), (0,)))
    cube = system.cube(1, (0,))
    assert np.allclose(oracles.interval(cube), [[0.25, 0.75]])


def test_translation_identity_when_bits_vanish():
    system = DyadicSystem(d=1, m_top=1, depth=4)
    cube = system.cube(2, (-3,))
    assert np.allclose(oracles.interval(cube), [[-0.75, -0.5]])


def test_translation_of_quarter_interval():
    system = DyadicSystem(d=1, m_top=0, depth=3, omega=((0,), (0,), (1,)))
    cube = system.cube(2, (0,))
    assert np.allclose(oracles.interval(cube), [[0.125, 0.375]])


def test_translation_uses_strictly_finer_scales_only():
    # bits at the cube's own scale and coarser must not move it
    system = DyadicSystem(d=1, m_top=0, depth=3, omega=((1,), (0,), (0,)))
    cube = system.cube(1, (0,))
    assert np.allclose(oracles.interval(cube), [[0.0, 0.5]])


def test_out_of_ambient_raises():
    system = DyadicSystem(d=1, m_top=0, depth=3, omega=((0,), (0,), (1,)))
    with pytest.raises(AmbientRangeError):
        system.cube(2, (3,))  # rightmost quarter shifted right leaves [-1, 1)


def test_children_partition_square():
    system = DyadicSystem(d=2, m_top=0, depth=3)
    cube = system.cube(0, (0, 0))
    kids = cube.children()
    assert len(kids) == 4
    corners = sorted(k.corner for k in kids)
    assert corners == [(0, 0), (0, 1), (1, 0), (1, 1)]
    mask = np.zeros((system.cells_per_axis,) * 2, dtype=int)
    for kid in kids:
        mask[kid.cell_slices()] += 1
    sub = mask[cube.cell_slices()]
    assert (sub == 1).all()
    assert mask.sum() == sub.size


def test_common_ancestor_of_adjacent_siblings():
    system = DyadicSystem(d=1, m_top=0, depth=4)
    left = system.cube(2, (0,))
    right = system.cube(2, (1,))
    assert oracles.common_ancestor(left, right).key() == (1, (0,))


def test_common_ancestor_of_nested_pair_is_the_larger():
    system = DyadicSystem(d=1, m_top=0, depth=4)
    small = system.cube(3, (2,))
    large = system.cube(1, (0,))
    assert oracles.common_ancestor(small, large).key() == large.key()


def test_common_ancestor_missing_raises():
    system = DyadicSystem(d=1, m_top=0, depth=3)
    with pytest.raises(AmbientRangeError):
        oracles.common_ancestor(system.cube(1, (-1,)), system.cube(1, (0,)))


@given(st.integers(0, 2**20), st.integers(0, 3))
def test_translated_nesting_is_consistent(seed, level):
    system = DyadicSystem.random(seed, d=1, m_top=1, depth=5)
    for cube in system.cubes_at_level(level + 1):
        try:
            parent = cube.parent()
        except AmbientRangeError:
            continue  # the parent of a near-edge cube may leave the ambient
        geo_child = oracles.interval(cube)
        geo_parent = oracles.interval(parent)
        assert geo_parent[0, 0] <= geo_child[0, 0]
        assert geo_child[0, 1] <= geo_parent[0, 1] + 1e-12
        assert any(kid.key() == cube.key() for kid in parent.children())


@given(st.integers(0, 2**20))
def test_levels_partition_in_translated_systems(seed):
    system = DyadicSystem.random(seed, d=1, m_top=0, depth=5)
    for level in range(0, 5):
        mask = np.zeros(system.cells_per_axis, dtype=int)
        for cube in system.cubes_at_level(level):
            mask[cube.cell_slices()[0]] += 1
        assert mask.max() <= 1  # inside-ambient cubes never overlap


def test_boundary_touching_cube_is_bad():
    system = DyadicSystem(d=1, m_top=0, depth=3)
    params = GoodnessParams(gamma=0.5, r=2)
    assert not is_good(system.cube(3, (0,)), params)


def test_goodness_of_central_cube_single_ancestor():
    # distance 3/8 beats (1/8)^(1/2) when only the unit ancestor is inspected
    system = DyadicSystem(d=1, m_top=0, depth=3)
    params = GoodnessParams(gamma=0.5, r=3)
    assert is_good(system.cube(3, (3,)), params)


def test_goodness_fails_at_quarter_position():
    # distance 1/8 does not beat (1/4)^(1/2) * 1/2
    system = DyadicSystem(d=1, m_top=0, depth=3)
    params = GoodnessParams(gamma=0.5, r=2)
    assert not is_good(system.cube(3, (2,)), params)


def test_vacuous_goodness_when_no_ancestor_is_eligible():
    system = DyadicSystem(d=1, m_top=0, depth=3)
    params = GoodnessParams(gamma=0.5, r=5)
    assert is_good(system.cube(2, (1,)), params)


# gamma = 1/2 and 3/4 make the threshold 2^(s(1-gamma)) an integer at even gaps
# and at gaps divisible by 4, so a cell distance can tie it; every cube is bad at a
# gap of 1 or 2, so only r >= 3 makes the flags depend on the ancestors' bits
MASK_PARAMS = (GoodnessParams(gamma=0.5, r=2), GoodnessParams(gamma=0.75, r=1),
               GoodnessParams(gamma=0.4, r=1),
               GoodnessParams(gamma=0.5, r=1, max_generations=4),
               GoodnessParams(gamma=0.3, r=2, max_generations=3),
               GoodnessParams(gamma=0.5, r=3), GoodnessParams(gamma=0.75, r=3, max_generations=4))


@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 6), st.integers(0, 2**20),
       st.sampled_from(MASK_PARAMS))
def test_good_mask_matches_is_good_per_cube(d, m_top, depth, seed, params):
    system = DyadicSystem.random(seed, d=d, m_top=m_top, depth=min(depth, 8 // d - m_top))
    for level in range(system.min_level, system.depth + 1):
        mask = good_mask(system, level, params)
        assert mask.dtype == bool
        assert mask.tolist() == [is_good(cube, params) for cube in system.cubes_at_level(level)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m_top", [0, 1, 2])
@pytest.mark.parametrize("seed", [None, 3, 17])
def test_level_cubes_match_cubes_at_level(d, m_top, seed):
    depth = 4 if d == 1 else 3
    system = (DyadicSystem(d=d, m_top=m_top, depth=depth) if seed is None
              else DyadicSystem.random(seed, d=d, m_top=m_top, depth=depth))
    for level in range(system.min_level, system.depth + 1):
        corners, starts = system.level_cubes(level)
        cubes = list(system.cubes_at_level(level))
        assert corners.dtype == starts.dtype == np.int64
        assert corners.shape == starts.shape == (d, len(cubes))
        assert corners.T.tolist() == [list(cube.corner) for cube in cubes]
        assert starts.T.tolist() == [list(cube.start_cells()) for cube in cubes]


def test_good_mask_counts_a_tie_as_bad():
    # at level 4 the gap-4 ancestor is the unit cube, whose threshold is 2^2:
    # corner 4 sits exactly 4 cells from its left edge, corner 5 beyond it
    system = DyadicSystem(d=1, m_top=0, depth=4)
    params = GoodnessParams(gamma=0.5, r=4)
    mask = good_mask(system, 4, params)
    corners = [cube.corner[0] for cube in system.cubes_at_level(4)]
    assert not mask[corners.index(4)] and mask[corners.index(5)]
    assert not is_good(system.cube(4, (4,)), params) and is_good(system.cube(4, (5,)), params)


def test_analytic_bound_value():
    assert goodness_bound(GoodnessParams(gamma=0.5, r=10), 1) == pytest.approx(0.5)


def test_goodness_probability_enumeration_matches_bruteforce():
    # oracle: loop over every bit pattern with explicit offset arithmetic
    params = GoodnessParams(gamma=0.5, r=3)
    max_gap = 5
    good = 0
    for word in range(1 << max_gap):
        ok = True
        for s in range(params.r, max_gap + 1):
            offset = word % (1 << s)
            dist = min(offset, (1 << s) - 1 - offset)
            if not dist > 2.0 ** (s * (1 - params.gamma)) + 1e-12:
                ok = False
                break
        good += ok
    res = goodness_probability(max_gap, params, 1)
    assert (res.good_count, res.total) == (good, 1 << max_gap)
    # frozen from the oracle: the pair (gamma=1/2, r=3) admits no good offsets
    assert res.good_count == 0


def test_goodness_probability_independent_of_base_cube():
    params = GoodnessParams(gamma=0.5, r=3)
    reference = goodness_probability(6, params, 1).good_count
    for corner in (1, -7, 13):
        assert goodness_probability(6, params, 1, base_corner=(corner,)).good_count \
            == reference


def test_goodness_probability_vacuous_bound_stays_in_unit_interval():
    params = GoodnessParams(gamma=0.125, r=3)
    res = goodness_probability(5, params, 1)
    assert res.analytic_bound <= 0
    assert 0.0 <= res.value <= 1.0


def test_goodness_probability_beats_positive_bound():
    params = GoodnessParams(gamma=0.5, r=10)
    res = goodness_probability(14, params, 1)
    assert res.analytic_bound == pytest.approx(0.5)
    assert res.value >= res.analytic_bound


def test_goodness_probability_cap():
    with pytest.raises(ResourceLimitError):
        goodness_probability(30, GoodnessParams(gamma=0.5, r=3), 1)  # 2^30 patterns


def test_goodness_position_joint_cap():
    params = GoodnessParams(gamma=0.5, r=1, max_generations=2)
    with pytest.raises(ResourceLimitError, match="exceed cap"):  # 2^24 patterns
        goodness_position_joint(2, level=2, depth=12, m_top=2, params=params)


def test_goodness_probability_two_dimensional():
    params = GoodnessParams(gamma=0.5, r=4)
    res = goodness_probability(6, params, 2)
    assert res.total == 1 << 12
    # a cube good in d=2 must be good per axis, so the probability is smaller
    res1 = goodness_probability(6, params, 1)
    assert res.value <= res1.value


def test_position_goodness_factorization_is_exact():
    params = GoodnessParams(gamma=0.5, r=3, max_generations=4)
    joint = goodness_position_joint(1, level=2, depth=4, m_top=2, params=params)
    total = joint.sum()
    rows = joint.sum(axis=1, keepdims=True)
    cols = joint.sum(axis=0, keepdims=True)
    assert (joint * total == rows * cols).all()
    # positions are uniform
    assert (rows == rows[0]).all()


# (level, depth, max_generations, gamma, r): mixed good and bad cubes, all bad
# (gap 1 or 2 never leaves room), all good (r above the generations), a depth-0 mesh
JOINT_SHAPES = [(3, 4, 3, 0.5, 3), (2, 3, 3, 0.75, 3), (1, 2, 1, 0.5, 1), (0, 2, 1, 0.5, 2),
                (2, 4, 4, 0.5, 3), (0, 0, 2, 0.5, 1)]


@pytest.mark.parametrize("m_top", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_goodness_position_joint_matches_per_pattern_oracles(d, m_top):
    """Each pattern's position and goodness read without the axis words give
    the same joint counts, on every shape the system's levels allow."""
    mixed = 0
    for level, depth, gens, gamma, r in JOINT_SHAPES:
        if level - gens < -m_top:
            continue
        params = GoodnessParams(gamma=gamma, r=r, max_generations=gens)
        joint = goodness_position_joint(d, level, depth, m_top, params)
        want = oracles.goodness_position_joint_by_oracles(d, level, depth, m_top, params)
        assert joint.dtype == want.dtype and np.array_equal(joint, want), (level, depth, gens)
        mixed += bool(joint[:, 0].any() and joint[:, 1].any())
    assert mixed >= 1


@st.composite
def translated_systems(draw, levels_1d=5, levels_2d=3):
    """Random translated systems with at most this many levels below the top."""
    d = draw(st.sampled_from([1, 2]))
    m_top = draw(st.integers(0, 2))
    depth = draw(st.integers(0, (levels_1d if d == 1 else levels_2d) - m_top))
    return DyadicSystem.random(draw(st.integers(0, 2**20)), d=d, m_top=m_top, depth=depth)


def _all_cubes(system):
    return [cube for level in range(system.min_level, system.depth + 1)
            for cube in system.cubes_at_level(level)]


@given(translated_systems())
def test_cached_geometry_matches_bitwise_oracle(system):
    for level in range(system.min_level, system.depth + 1):
        expected = oracles.shift_cells_by_bits(system, level)
        assert system.shift_cells(level) == tuple(int(v) for v in expected)
        cubes = list(system.cubes_at_level(level))
        # every corner next to the enumerated ones is built iff it is inside
        corners = np.array([cube.corner for cube in cubes])
        axes = [range(lo - 1, hi + 2) for lo, hi in zip(corners.min(0), corners.max(0))]
        for corner in itertools.product(*axes):
            if oracles.inside_ambient(system, level, corner):
                assert system.cube(level, corner) in cubes
            else:
                with pytest.raises(AmbientRangeError):
                    system.cube(level, corner)
        size = 1 << (system.depth - level)
        for cube in cubes:
            start = oracles.start_cells_array(system, level, cube.corner)
            assert cube.start_cells() == tuple(int(v) for v in start)
            assert cube.size_cells == size
            assert cube.cell_slices() == tuple(slice(int(v), int(v) + size)
                                               for v in start)
            if level > system.min_level:
                corner = oracles.parent_corner_by_cells(cube)
                if oracles.inside_ambient(system, level - 1, corner):
                    assert cube.parent().corner == corner
                else:
                    with pytest.raises(AmbientRangeError):
                        cube.parent()
            if level < system.depth:
                kids = cube.children()
                assert sorted(kid.corner for kid in kids) == \
                    oracles.child_corners_by_cells(cube)


@given(translated_systems())
def test_children_equal_constructed_cubes(system):
    """`children` builds its cubes from the parent's start cell, not through
    `DyadicCube(...)`: they equal the checked cubes at the oracle's corners, in
    order, field for field and cell for cell; a finest cube still has none."""
    for cube in _all_cubes(system):
        if cube.level == system.depth:
            with pytest.raises(AmbientRangeError, match="finest-level cube has no children"):
                cube.children()
            continue
        kids = cube.children()
        want = [DyadicCube(system, cube.level + 1, corner)
                for corner in oracles.child_corners_by_cells(cube)]
        assert [vars(kid) for kid in kids] == [vars(w) for w in want]
        assert kids == want and [hash(k) for k in kids] == [hash(w) for w in want]
        for kid, w in zip(kids, want):
            assert kid.start_cells() == w.start_cells() and kid.size_cells == w.size_cells
            assert kid.cell_slices() == w.cell_slices()


@given(translated_systems())
def test_listed_cubes_equal_constructed_cubes(system):
    """`cubes_at_level` builds its cubes from start cells, not through
    `DyadicCube(...)`: both give the same cubes."""
    for level in range(system.min_level, system.depth + 1):
        listed = list(system.cubes_at_level(level))
        ranges = system.corner_ranges(level)
        assert [cube.corner for cube in listed] == list(itertools.product(*ranges))
        for cube in listed:
            built = DyadicCube(system, level, cube.corner)
            assert cube == built and hash(cube) == hash(built) and repr(cube) == repr(built)
            assert type(cube.corner) is tuple and all(type(m) is int for m in cube.corner)
            assert cube.start_cells() == built.start_cells()
            assert cube.size_cells == built.size_cells
            assert cube.cell_slices() == built.cell_slices()


@given(translated_systems())
def test_out_of_range_cubes_still_raise(system):
    for level in range(system.min_level, system.depth + 1):
        ranges = system.corner_ranges(level)
        for ax in range(system.d):
            for m in (ranges[ax].start - 1, ranges[ax].stop):
                corner = tuple(m if k == ax else r.start for k, r in enumerate(ranges))
                with pytest.raises(AmbientRangeError, match="leaves the ambient"):
                    DyadicCube(system, level, corner)
        with pytest.raises(AmbientRangeError, match="corner dimension"):
            DyadicCube(system, level, (0,) * (system.d + 1))
    for level in (system.min_level - 1, system.depth + 1):
        with pytest.raises(AmbientRangeError, match="outside"):
            DyadicCube(system, level, (0,) * system.d)


@given(translated_systems(), st.integers(0, 8))
def test_shifts_of_a_short_omega_match_bitwise_oracle(system, keep):
    """Scales past the end of omega carry zero bits."""
    short = DyadicSystem(d=system.d, m_top=system.m_top, depth=system.depth,
                         omega=system.omega[:keep])
    for level in range(short.min_level, short.depth + 1):
        expected = oracles.shift_cells_by_bits(short, level)
        assert short.shift_cells(level) == tuple(int(v) for v in expected)


@given(translated_systems(), st.integers(0, 8))
def test_omega_bits_of_other_types_give_the_same_system(system, keep):
    """bool, numpy-integer and float bits are accepted as today: the system is
    equal to the int one, its shifts are the same Python ints, and so are its
    goodness flags.  A short omega pads the unsampled fine scales with zeros."""
    omega = system.omega[:keep]
    base = DyadicSystem(d=system.d, m_top=system.m_top, depth=system.depth, omega=omega)
    params = GoodnessParams(gamma=0.5, r=3)
    for cast in (bool, np.int64, float):
        twin = DyadicSystem(d=system.d, m_top=system.m_top, depth=system.depth,
                            omega=tuple(tuple(cast(b) for b in bits) for bits in omega))
        assert twin == base and hash(twin) == hash(base)
        for level in range(base.min_level, base.depth + 1):
            shift = twin.shift_cells(level)
            assert shift == base.shift_cells(level) == tuple(
                int(v) for v in oracles.shift_cells_by_bits(base, level))
            assert all(type(v) is int for v in shift)
            assert np.array_equal(good_mask(twin, level, params),
                                  good_mask(base, level, params))


@pytest.mark.parametrize("d, omega, message", [
    (1, ((2,),), "omega entries must be bits in {0,1}^d"),
    (1, ((0,), (-1,)), "omega entries must be bits in {0,1}^d"),
    (1, ((1,), (0.5,)), "omega entries must be bits in {0,1}^d"),
    (1, ((0, 1),), "omega entries must be bits in {0,1}^d"),
    (1, ((0,), ()), "omega entries must be bits in {0,1}^d"),
    (2, ((0, 1), (1, 2)), "omega entries must be bits in {0,1}^d"),
    (2, ((0,),), "omega entries must be bits in {0,1}^d"),
    (2, ((0, 1, 1),), "omega entries must be bits in {0,1}^d"),
    (1, ((0,),) * 4, "too many translation bits for the level range"),
    (2, ((0, 2),) * 4, "too many translation bits for the level range"),
])
def test_malformed_omega_raises_one_message(d, omega, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DyadicSystem(d=d, m_top=1, depth=2, omega=omega)


@given(translated_systems(), st.integers(0, 2**20))
def test_contains_cube_matches_array_oracle(system, pick_seed):
    cubes = _all_cubes(system)
    rng = random.Random(pick_seed)
    pairs = [(rng.choice(cubes), rng.choice(cubes)) for _ in range(100)]
    for cube in cubes:
        if cube.level < system.depth:
            pairs += [(cube, kid) for kid in cube.children()]
            pairs += [(kid, cube) for kid in cube.children()]
    for outer, inner in pairs:
        assert outer.contains_cube(inner) == oracles.contains_cube_array(outer, inner)


@given(translated_systems(levels_1d=8, levels_2d=5), st.integers(0, 2**20))
def test_is_good_matches_offset_oracle(system, pick_seed):
    cubes = _all_cubes(system)
    cubes = random.Random(pick_seed).sample(cubes, min(len(cubes), 50))
    for gamma, r, generations in itertools.product((0.25, 0.5, 0.9), (1, 3, 4),
                                                   (None, 3)):
        params = GoodnessParams(gamma=gamma, r=r, max_generations=generations)
        for cube in cubes:
            assert is_good(cube, params) == oracles.is_good_by_offsets(cube, params)


def test_cached_geometry_stays_out_of_eq_hash_and_repr():
    system = DyadicSystem.random(3, d=2, m_top=1, depth=3)
    twin = DyadicSystem(d=2, m_top=1, depth=3, omega=system.omega)
    assert system == twin and hash(system) == hash(twin)
    assert "_words" not in repr(system) and "_shifts" not in repr(system)
    cube = system.cube(1, (0, 0))
    assert cube == twin.cube(1, (0, 0)) and hash(cube) == hash(twin.cube(1, (0, 0)))
    assert "_start" not in repr(cube)
    with pytest.raises(AmbientRangeError):
        system.shift_cells(system.depth + 1)


def test_cube_identity_is_its_fields_before_and_after_cached_geometry():
    system = DyadicSystem(d=1, m_top=1, depth=2, omega=((1,), (0,), (1,)))
    assert repr(system) == "DyadicSystem(d=1, m_top=1, depth=2, omega=((1,), (0,), (1,)))"
    assert hash(system) == hash((1, 1, 2, ((1,), (0,), (1,))))
    cube = system.cube(0, (0,))
    fresh = system.cube(0, (0,))
    cube.cell_slices()  # builds the slices on one of the two only
    assert repr(cube) == repr(fresh) == f"DyadicCube(system={system!r}, level=0, corner=(0,))"
    assert cube == fresh and hash(cube) == hash(fresh) == hash((system, 0, (0,)))
    assert cube != system.cube(0, (-1,)) and cube != system.cube(1, (0,))


@given(translated_systems(), st.integers(0, 2**20), st.booleans())
def test_pickled_cubes_and_systems_round_trip(system, pick_seed, sliced):
    cube = random.Random(pick_seed).choice(_all_cubes(system))
    if sliced:
        cube.cell_slices()
    twin = pickle.loads(pickle.dumps(cube))
    assert twin == cube and hash(twin) == hash(cube) and repr(twin) == repr(cube)
    assert twin.system == system and hash(twin.system) == hash(system)
    for level in range(system.min_level, system.depth + 1):
        assert twin.system.shift_cells(level) == system.shift_cells(level)
    assert twin.start_cells() == cube.start_cells() and twin.size_cells == cube.size_cells
    assert twin.cell_slices() == cube.cell_slices()
    if cube.level < system.depth:
        assert twin.children() == cube.children()
