import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab.errors import MeshDepthError
from dyadiclab.grid import DyadicSystem
from dyadiclab.experiments import run_haar_completeness
from dyadiclab.gridfn import (_PATTERN_CELLS, _STACK_CELLS, GridFunction, HaarCoefficients,
                              _block_means, _blocks, _expand_blocks, _haar_pattern, _unblocks,
                              analyze, bmo_norm, conditional_expectation, cube_average, etas,
                              from_callable, haar_block, haar_coefficient, haar_vector,
                              indicator, lp_norm, pair, random_grid_function,
                              random_grid_functions, synthesize)
from dyadiclab.representation import assemble, hilbert_kernel, matrix_element
from dyadiclab.space import NormedSpace, conjugate_exponent

from oracles import (analyze_by_blocks, block_means_by_mean, bmo_norm_per_exponent,
                     haar_coefficient_by_child_loop, haar_coefficient_by_eval,
                     haar_coefficient_per_cube, haar_vector_per_cube,
                     random_grid_function_by_mode, shifted_projection, synthesize_by_blocks)

SYS4 = DyadicSystem(d=1, m_top=0, depth=4)
UNIT = SYS4.cube(0, (0,))


# -- grid function values ------------------------------------------------------


def test_caller_array_is_copied_once_and_frozen():
    arr = np.arange(SYS4.cells_per_axis, dtype=float)[:, None]
    f = GridFunction(SYS4, arr)
    arr[0] = 99.0
    assert f.values[0, 0] == 0.0 and not f.values.flags.writeable
    assert arr.flags.writeable
    assert GridFunction(SYS4, arr.astype(int)).values.dtype == float


# -- value space axioms --------------------------------------------------------


@given(st.integers(0, 10**6), st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]))
def test_norm_axioms_sampled(seed, q):
    gen = np.random.default_rng(seed)
    space = NormedSpace(3, q)
    u, v = gen.standard_normal((2, 3))
    t = float(gen.uniform(-3, 3))
    assert space.norm(t * u) == pytest.approx(abs(t) * space.norm(u))
    assert space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-12


@given(st.integers(0, 10**6), st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]))
def test_dual_pairing_holder(seed, q):
    gen = np.random.default_rng(seed)
    space = NormedSpace(3, q)
    u, v = gen.standard_normal((2, 3))
    dual = NormedSpace(3, conjugate_exponent(q))
    assert abs(u @ v) <= space.norm(u) * dual.norm(v) + 1e-12


# -- Haar values ------------------------------------------------------------------


def haar_function(cube, eta) -> GridFunction:
    """The scalar grid function of h^eta on `cube`."""
    return GridFunction(cube.system, haar_vector(cube, eta)[..., None])


def test_haar_l2_normalization_all_levels():
    for level in range(0, 4):
        h = haar_function(SYS4.cube(level, (0,)), (1,))
        assert lp_norm(h, 2) == pytest.approx(1.0, abs=1e-12)


def test_haar_orthonormality_on_mesh():
    cubes = [(lv, c) for lv in range(0, 3) for c in range(-(2**lv), 2**lv)]
    for a in cubes:
        for b in cubes:
            ha = haar_function(SYS4.cube(a[0], (a[1],)), (1,))
            hb = haar_function(SYS4.cube(b[0], (b[1],)), (1,))
            expect = 1.0 if a == b else 0.0
            assert pair(ha, hb) == pytest.approx(expect, abs=1e-12)


SYS2 = DyadicSystem(d=2, m_top=0, depth=3)
CUBE2 = SYS2.cube(1, (0, 0))


def test_haar_patterns_are_read_only_and_kept_while_small():
    small, large = SYS4.cube(1, (0,)), DyadicSystem(d=1, m_top=0, depth=13).cube(0, (0,))
    assert large.size_cells > _PATTERN_CELLS >= small.size_cells
    for cube in (small, large):
        block = haar_block(cube, (1,))
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            block *= 2.0
    assert haar_block(small, (1,)) is haar_block(small, [1])
    assert haar_block(large, (1,)) is not haar_block(large, (1,))
    assert np.array_equal(haar_block(large, (1,)), haar_block(large, (1,)))


def test_haar_patterns_of_a_deep_2d_system_retain_a_bounded_cache():
    """Every level's patterns of a d=2, depth-11 system (2^22 cells, a level-0 pattern
    of 32 MiB) keep only those of at most `_PATTERN_CELLS` cells: per level of side s,
    2^d etas of s^d cells, so at most 8 * 2^d * _PATTERN_CELLS * 2^d / (2^d - 1) bytes
    of values (171 KiB), plus up to 1 KiB of array header and cache entry for each
    (about 430 B measured)."""
    d, system = 2, DyadicSystem(d=2, m_top=0, depth=11)
    bound = 8 * 2**d * _PATTERN_CELLS * 2**d / (2**d - 1)
    _haar_pattern.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for level in range(system.depth + 1):
            cube = system.cube(level, (0, 0))
            for eta in [(0, 0)] + (etas(d) if level < system.depth else []):
                assert haar_block(cube, eta).shape == (cube.size_cells,) * d
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = _haar_pattern.cache_info().currsize
    _haar_pattern.cache_clear()
    assert kept == 4 * 6 + 1  # levels 5..10 with every eta, level 11's indicator
    assert retained <= bound + 1024 * kept


@pytest.mark.parametrize("eta", [(1,), (2, 0), (1, 1, 1), (0.0, 1.0), "10", 1, None,
                                 [[1, 0]], np.array([1, 2]), np.array([1.0, 0.0]),
                                 np.array(1), np.array([[1, 0]]), np.eye(2, dtype=int)])
def test_malformed_eta_is_refused_in_one_line_everywhere(eta):
    f = random_grid_function(SYS2, 3)
    T = assemble(hilbert_kernel(), SYS2)
    calls = (lambda: haar_block(CUBE2, eta), lambda: haar_vector(CUBE2, eta),
             lambda: haar_coefficient(f, CUBE2, eta),
             lambda: matrix_element(T, CUBE2, eta, CUBE2, (1, 0)),
             lambda: matrix_element(T, CUBE2, (1, 0), CUBE2, eta))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        message = str(err.value)
        shown = eta.tolist() if isinstance(eta, np.ndarray) else eta  # an array as a list
        assert "\n" not in message and repr(shown) in message and "d = 2" in message


def test_equal_etas_share_one_pattern_and_one_coefficient():
    f = random_grid_function(SYS2, 3)
    forms = [(1, 0), [1, 0], (True, False), np.array([1, 0]), (np.int64(1), np.int64(0)),
             (np.True_, np.False_)]
    assert all(haar_block(CUBE2, eta) is haar_block(CUBE2, (1, 0)) for eta in forms)
    assert all(np.array_equal(haar_coefficient(f, CUBE2, eta),
                              haar_coefficient(f, CUBE2, (1, 0))) for eta in forms)
    # h^(1,0) on a cube of 4 x 4 cells and volume 1/4 changes sign along the first axis
    assert np.array_equal(haar_block(CUBE2, (1, 0)), np.repeat([[2.0], [-2.0]], 2, 0)
                          * np.ones((4, 4)))


def test_zero_eta_is_the_normalized_indicator():
    f = random_grid_function(SYS2, 3)
    for level in range(SYS2.depth + 1):
        cube = SYS2.cube(level, (0, 0))
        assert np.array_equal(haar_block(cube, (0, 0)),
                              np.full((cube.size_cells,) * 2, cube.volume**-0.5))
        assert np.allclose(haar_coefficient(f, cube, (0, 0)),
                           cube_average(f, cube) * cube.volume**0.5, rtol=1e-13)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m_top", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 3])
def test_haar_coefficient_equals_the_child_loop_bit_for_bit(d, m_top, dim):
    """Every cube of every level of two random translated systems, every eta with the
    zero one: the sign row's sum has the loop's bits."""
    for seed in (d * 10 + m_top, 100 + dim):
        system = DyadicSystem.random(seed, d=d, m_top=m_top, depth=(5 if d == 1 else 3))
        f = random_grid_function(system, seed, NormedSpace(dim, 2.0))
        for level in range(system.min_level, system.depth + 1):
            for cube in system.cubes_at_level(level):
                for eta in itertools.product((0, 1), repeat=d):
                    if level == system.depth and any(eta):
                        for coeff in (haar_coefficient, haar_coefficient_by_child_loop):
                            with pytest.raises(MeshDepthError):
                                coeff(f, cube, eta)
                        continue
                    got = haar_coefficient(f, cube, eta)
                    want = haar_coefficient_by_child_loop(f, cube, eta)
                    assert got.shape == want.shape == (dim,)
                    assert np.array_equal(got, want)
                    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m_top", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 3])
def test_haar_list_forms_equal_the_per_cube_oracles_bit_for_bit(d, m_top, dim):
    """Every level of a standard and a random translated system, every eta with the zero
    one, as the whole level in order and as every other cube in reverse: each row of the
    list forms has the bits of the per-cube bodies and of a lone call."""
    depth = 5 if d == 1 else 3
    for system in (DyadicSystem(d=d, m_top=m_top, depth=depth),
                   DyadicSystem.random(10 * d + m_top + dim, d=d, m_top=m_top, depth=depth)):
        f = random_grid_function(system, m_top + dim, NormedSpace(dim, 2.0))
        for level in range(system.min_level, system.depth + 1):
            level_cubes = list(system.cubes_at_level(level))
            for cubes in (level_cubes, level_cubes[::-2]):
                for eta in itertools.product((0, 1), repeat=d):
                    if level == system.depth and any(eta):
                        continue  # refused, see the next test
                    vectors, coeffs = haar_vector(cubes, eta), haar_coefficient(f, cubes, eta)
                    assert vectors.shape == (len(cubes),) + (system.cells_per_axis,) * d
                    assert coeffs.shape == (len(cubes), dim)
                    for k, cube in enumerate(cubes):
                        assert np.array_equal(vectors[k], haar_vector_per_cube(cube, eta))
                        want = haar_coefficient_per_cube(f, cube, eta).tobytes()
                        assert coeffs[k].tobytes() == want
                        assert haar_coefficient(f, cube, eta).tobytes() == want


@pytest.mark.parametrize("d", [1, 2])
def test_list_forms_refuse_an_oscillating_eta_at_the_finest_level(d):
    system = DyadicSystem.random(5, d=d, m_top=1, depth=2)
    f = random_grid_function(system, 5)
    T = assemble(hilbert_kernel(), system)
    cubes = list(system.cubes_at_level(system.depth))
    eta, zero = (1,) + (0,) * (d - 1), (0,) * d
    for form in (cubes, cubes[1:3], cubes[0]):
        for call in (lambda: haar_vector(form, eta), lambda: haar_coefficient(f, form, eta),
                     lambda: matrix_element(T, form, eta, form, zero),
                     lambda: matrix_element(T, form, zero, form, eta)):
            with pytest.raises(MeshDepthError, match="children"):
                call()
    assert haar_coefficient(f, cubes, zero).shape == (len(cubes), 1)


def test_list_forms_refuse_mixed_levels_and_empty_lists():
    f = random_grid_function(SYS4, 1)
    T = assemble(hilbert_kernel(), SYS4)
    mixed = [UNIT, SYS4.cube(1, (0,))]
    for call in (lambda: haar_vector(mixed, (1,)), lambda: haar_coefficient(f, [], (1,)),
                 lambda: matrix_element(T, mixed, (1,), mixed, (1,)),
                 lambda: matrix_element(T, [UNIT], (1,), [], (1,)),
                 lambda: haar_vector([UNIT, DyadicSystem(depth=5).cube(0, (0,))], (1,))):
        with pytest.raises(ValueError, match="one level of one system"):
            call()
    with pytest.raises(ValueError, match="2 cubes J against 1 cubes I"):
        matrix_element(T, mixed[:1] * 2, (1,), mixed[:1], (1,))


# -- coefficients and completeness ---------------------------------------------------


def test_left_half_indicator_coefficient():
    f = indicator(SYS4.cube(1, (0,)))
    assert haar_coefficient(f, UNIT, (1,))[0] == pytest.approx(0.5)


def test_linear_function_coefficient_against_quadrature_oracle():
    f = from_callable(SYS4, lambda p: p[..., 0] * ((p[..., 0] >= 0) & (p[..., 0] < 1)))
    oracle = haar_coefficient_by_eval(f, UNIT, (1,))[0]
    value = haar_coefficient(f, UNIT, (1,))[0]
    assert value == pytest.approx(oracle, abs=1e-14)
    # frozen: the closed-form integral of x against the unit Haar factor
    assert value == pytest.approx(-0.25, abs=1e-14)


def test_constant_has_no_oscillating_coefficients():
    f = from_callable(SYS4, lambda p: np.full(p.shape[:-1], 3.25))
    hc = analyze(f, SYS4.min_level)
    for level, arr in hc.coeffs.items():
        assert np.abs(arr).max() < 1e-14


@given(st.integers(0, 10**6))
def test_completeness_one_dimensional(seed):
    system = DyadicSystem(d=1, m_top=0, depth=6)
    f = random_grid_function(system, seed, NormedSpace(3, 2.0))
    back = synthesize(analyze(f, system.min_level))
    assert np.abs(back.values - f.values).max() < 1e-12


@given(st.integers(0, 10**6))
def test_completeness_two_dimensional(seed):
    system = DyadicSystem(d=2, m_top=0, depth=4)
    f = random_grid_function(system, seed)
    back = synthesize(analyze(f, system.min_level))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_partial_analysis_reproduces_through_coarse_averages():
    system = DyadicSystem(d=1, m_top=0, depth=6)
    f = random_grid_function(system, 5)
    hc = analyze(f, 2, 4)
    back = synthesize(hc)
    coarse = conditional_expectation(f, 2)
    fine = conditional_expectation(f, 5)
    assert np.abs(back.values - (fine.values - coarse.values
                                 + hc.coarse.repeat(16, axis=0))).max() < 1e-12


def coefficient(hc, cube, eta):
    """The cube's coefficient in `analyze`'s per-level arrays: its block is its start
    cells over its side, and eta's place is its index in etas(d)."""
    block = tuple(s // cube.size_cells for s in cube.start_cells())
    return hc.coeffs[cube.level][block][etas(hc.system.d).index(eta)]


def test_coefficient_lookup_matches_per_cube_value():
    f = random_grid_function(SYS4, 9)
    hc = analyze(f, SYS4.min_level)
    cube = SYS4.cube(2, (-3,))
    assert coefficient(hc, cube, (1,))[0] == pytest.approx(
        haar_coefficient(f, cube, (1,))[0], abs=1e-13)


@pytest.mark.parametrize("d, m_top", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_every_analyzed_coefficient_matches_its_cube(d, m_top):
    system = DyadicSystem(d=d, m_top=m_top, depth=4 if d == 1 else 3)
    f = random_grid_function(system, 17, NormedSpace(3, 2.0))
    hc = analyze(f, system.min_level)
    for level in range(system.min_level, system.depth):
        for cube in system.cubes_at_level(level):
            for eta in etas(d):
                assert coefficient(hc, cube, eta) == pytest.approx(
                    haar_coefficient(f, cube, eta), abs=1e-12)


@pytest.mark.parametrize("d, m_top", [(1, 0), (1, 2), (2, 0), (2, 1)])
@pytest.mark.parametrize("dim", [1, 3])
def test_analysis_of_a_list_equals_one_call_per_function(d, m_top, dim):
    system = DyadicSystem(d=d, m_top=m_top, depth=4 if d == 1 else 3)
    fs = [random_grid_function(system, 11, NormedSpace(dim, 2.0), label=f"stack-{r}")
          for r in range(3)]
    for lo in range(system.min_level, system.depth):
        for hi in range(lo, system.depth):
            stacked = analyze(fs, lo, hi)
            assert isinstance(stacked, list) and len(stacked) == len(fs)
            for f, got in zip(fs, stacked):
                want = analyze(f, lo, hi)
                assert isinstance(want, HaarCoefficients)
                assert (got.system, got.space, got.level_lo, got.level_hi) == \
                    (want.system, want.space, want.level_lo, want.level_hi)
                assert sorted(got.coeffs) == sorted(want.coeffs) == list(range(lo, hi + 1))
                for level in want.coeffs:
                    assert np.array_equal(got.coeffs[level], want.coeffs[level])
                assert np.array_equal(got.coarse, want.coarse)
            backs = synthesize(stacked)
            assert isinstance(backs, list) and len(backs) == len(fs)
            for hc, back in zip(stacked, backs):
                single = synthesize(hc)
                assert isinstance(single, GridFunction)
                assert np.array_equal(back.values, single.values)
                assert back.system == system and back.space == hc.space


def _outcome(call, *args):
    """A call's result, or its error's type and message."""
    try:
        return call(*args)
    except (ValueError, MeshDepthError) as exc:
        return type(exc), str(exc)


@given(st.sampled_from([1, 2]), st.integers(0, 2), st.sampled_from([1, 3]), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2**20), st.booleans())
def test_analysis_and_synthesis_equal_the_block_oracles_bit_for_bit(d, m_top, dim, depth, rows,
                                                                     seed, translated):
    """The butterflies against `analyze_by_blocks` and `synthesize_by_blocks`, the
    transpose-and-broadcast bodies they replace, on every (level_lo, level_hi), one
    function and a list, values spread over twelve decades.  `np.array_equal` calls
    -0.0 and 0.0 equal; those are the only bits allowed to differ."""
    depth = min(depth, 3) if d == 2 else depth
    system = (DyadicSystem.random(seed, d=d, m_top=m_top, depth=depth) if translated
              else DyadicSystem(d=d, m_top=m_top, depth=depth))
    gen = np.random.default_rng(seed)
    shape = (rows,) + (system.cells_per_axis,) * d + (dim,)
    values = gen.standard_normal(shape) * 10.0 ** gen.integers(-6, 7, shape)
    fs = [GridFunction(system, v, NormedSpace(dim, 2.0)) for v in values]
    for lo in range(system.min_level, system.depth):
        for hi in range(lo, system.depth):
            for arg in (fs[0], fs):
                got, want = _outcome(analyze, arg, lo, hi), _outcome(analyze_by_blocks, arg, lo, hi)
                if isinstance(want, tuple):  # an unaligned level of a translated system
                    assert got == want and translated
                    continue
                assert type(got) is type(want)
                for g, w in zip(got if isinstance(got, list) else [got],
                                want if isinstance(want, list) else [want]):
                    assert sorted(g.coeffs) == sorted(w.coeffs) == list(range(lo, hi + 1))
                    for level in w.coeffs:
                        assert g.coeffs[level].shape == w.coeffs[level].shape
                        assert np.array_equal(g.coeffs[level], w.coeffs[level])
                    assert g.coarse.shape == w.coarse.shape
                    assert np.array_equal(g.coarse, w.coarse)
                back, ref = synthesize(got), synthesize_by_blocks(got)
                assert type(back) is type(ref)
                for b, r in zip(back if isinstance(back, list) else [back],
                                ref if isinstance(ref, list) else [ref]):
                    assert b.values.flags.c_contiguous
                    assert np.array_equal(b.values, r.values)


@pytest.mark.parametrize("d, m_top", [(1, 0), (1, 2), (2, 1)])
@pytest.mark.parametrize("dim", [1, 3])
def test_conditional_expectation_of_a_list_equals_one_call_per_function(d, m_top, dim):
    system = DyadicSystem(d=d, m_top=m_top, depth=4 if d == 1 else 3)
    fs = [random_grid_function(system, 12, NormedSpace(dim, 2.0), label=f"stack-{r}")
          for r in range(4)]
    for level in range(system.min_level, system.depth + 1):
        stacked = conditional_expectation(fs, level)
        assert isinstance(stacked, list) and len(stacked) == len(fs)
        for f, got in zip(fs, stacked):
            want = conditional_expectation(f, level)
            assert np.array_equal(got.values, want.values)
            assert got.system == system and got.space == f.space


def test_lists_that_disagree_are_refused():
    fs = [random_grid_function(SYS4, 1), random_grid_function(SYS4, 2)]
    other = random_grid_function(DyadicSystem(d=1, m_top=0, depth=3), 3)
    vector = random_grid_function(SYS4, 4, NormedSpace(2, 2.0))
    calls = [lambda g: conditional_expectation(g, 1), lambda g: analyze(g, 0),
             lambda g: bmo_norm(g, [2.0])]
    for call in calls:
        for bad, message in (([], "nonempty"), (fs + [other], "share one system"),
                             (fs + [vector], "share one system and space")):
            with pytest.raises(ValueError, match=message) as err:
                call(bad)
            assert "\n" not in str(err.value)
    parts = [analyze(fs[0], 0), analyze(fs[1], 1), analyze(vector, 0)]
    for bad in ([], parts[:2], [parts[0], parts[2]]):
        with pytest.raises(ValueError, match="nonempty and of one frame") as err:
            synthesize(bad)
        assert "\n" not in str(err.value)


def test_haar_completeness_run_stacks_in_bounded_chunks():
    """A haar-completeness run's peak allocation does not grow with its number of
    functions: each (d, space)'s functions are stacked in chunks of at most
    `_STACK_CELLS` cells."""
    def peak(n_funcs):
        tracemalloc.start()
        try:
            run_haar_completeness({"n_funcs": n_funcs, "depth_1d": 15, "depth_2d": 7,
                                   "tol": 1e-12}, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 4 * 2 ** 16 == _STACK_CELLS  # four functions of 2^16 cells fill a chunk
    peak(2)  # fills the module caches
    few, many = peak(8), peak(32)
    assert many < 1.2 * few


# -- projections (the per-cube oracle) -------------------------------------------------


def test_projection_examples():
    f = indicator(SYS4.cube(2, (0,)))
    out = shifted_projection(f, UNIT, 1)
    expected = indicator(SYS4.cube(2, (0,))).values - 0.5 * indicator(
        SYS4.cube(1, (0,))).values
    assert np.abs(out.values - expected).max() < 1e-14


def test_zero_gap_projection_is_haar_projection():
    f = random_grid_function(SYS4, 2)
    haar = haar_coefficient(f, UNIT, (1,))[0] * haar_vector(UNIT, (1,))
    assert np.abs(shifted_projection(f, UNIT, 0).values[..., 0] - haar).max() < 1e-14


def test_projection_of_constant_vanishes():
    f = from_callable(SYS4, lambda p: np.full(p.shape[:-1], 2.0))
    for gap in range(0, 3):
        assert np.abs(shifted_projection(f, UNIT, gap).values).max() == 0.0


def test_projection_has_zero_mean_and_support():
    f = random_grid_function(SYS4, 3)
    out = shifted_projection(f, SYS4.cube(1, (0,)), 2)
    assert abs(cube_average(out, SYS4.cube(1, (0,)))[0]) < 1e-14
    outside = np.array(out.values)
    outside[SYS4.cube(1, (0,)).cell_slices()] = 0.0
    assert np.abs(outside).max() == 0.0


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2))
def test_distinct_gap_projections_annihilate(seed, i, m):
    f = random_grid_function(SYS4, seed)
    first = shifted_projection(f, UNIT, i)
    second = shifted_projection(first, UNIT, m)
    if i == m:
        assert np.abs(second.values - first.values).max() < 1e-12
    else:
        assert np.abs(second.values).max() < 1e-12


@given(st.integers(0, 10**6))
def test_projection_telescoping_under_root(seed):
    # sum of Haar projections over all subcubes of a root reproduces
    # the mean-zero part of anything supported there
    system = DyadicSystem(d=1, m_top=0, depth=5)
    root = system.cube(1, (0,))
    f = random_grid_function(system, seed, support=root)
    total = np.zeros_like(f.values)
    for level in range(root.level, system.depth):
        for cube in system.cubes_at_level(level):
            if root.contains_cube(cube):
                total = total + shifted_projection(f, cube, 0).values
    expected = f.values - cube_average(f, root) * indicator(root).values
    assert np.abs(total - expected).max() < 1e-12


def test_too_deep_projection_raises():
    with pytest.raises(MeshDepthError):
        shifted_projection(random_grid_function(SYS4, 0), UNIT, SYS4.depth)


# -- norms, pairings, oscillation ------------------------------------------------------


def test_lp_norm_examples():
    assert lp_norm(indicator(UNIT), 3.0) == pytest.approx(1.0)
    vec = NormedSpace(2, np.inf)
    f = GridFunction(SYS4, np.ones((SYS4.cells_per_axis, 2))
                     * indicator(UNIT).values, vec)
    assert lp_norm(f, 3.0) == pytest.approx(1.0)
    assert lp_norm(f, np.inf) == pytest.approx(1.0)


@given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 3.0]))
def test_pairing_holder_inequality(seed, p):
    f = random_grid_function(SYS4, seed, label="holder-f")
    g = random_grid_function(SYS4, seed, label="holder-g")
    q = p / (p - 1)
    assert abs(pair(g, f)) <= lp_norm(g, q) * lp_norm(f, p) + 1e-12


def test_bmo_examples():
    assert bmo_norm(from_callable(SYS4, lambda p: np.full(p.shape[:-1], 5.0)), [2.0]) \
        == pytest.approx([0.0])
    assert bmo_norm(haar_function(UNIT, (1,)), [3.0]) == pytest.approx([1.0])
    assert bmo_norm(indicator(SYS4.cube(1, (0,))), [1.0]) == pytest.approx([0.5])
    assert bmo_norm(indicator(SYS4.cube(1, (0,))), []) == []


@st.composite
def translated_systems(draw, levels_1d=6, levels_2d=3):
    """Random systems, standard or translated, with d in {1, 2} and m_top in {0, 1, 2}."""
    d = draw(st.sampled_from([1, 2]))
    m_top = draw(st.integers(0, 2))
    depth = draw(st.integers(0, (levels_1d if d == 1 else levels_2d) - m_top))
    if draw(st.booleans()):
        return DyadicSystem(d=d, m_top=m_top, depth=depth)
    return DyadicSystem.random(draw(st.integers(0, 2**20)), d=d, m_top=m_top, depth=depth)


BMO_EXPONENTS = [1.0, 1.5, 2.0, 3.0, 7.5, np.inf]


@given(translated_systems(), st.sampled_from([1, 3]), st.integers(0, 2**20),
       st.lists(st.sampled_from(BMO_EXPONENTS), max_size=6))
def test_bmo_norm_matches_per_exponent_oracle(system, dim, seed, ps):
    b = random_grid_function(system, seed, NormedSpace(dim, 2.0), label="bmo-symbol")
    aligned = not any(any(system.shift_cells(level))
                      for level in range(system.min_level, system.depth + 1))
    if not aligned:  # both reject the unaligned levels of a translated system
        with pytest.raises(ValueError, match="not cell-grid aligned"):
            bmo_norm(b, BMO_EXPONENTS)
        with pytest.raises(ValueError, match="not cell-grid aligned"):
            bmo_norm_per_exponent(b, 2.0)
        return
    got = bmo_norm(b, BMO_EXPONENTS + ps)
    assert got == [bmo_norm_per_exponent(b, p) for p in BMO_EXPONENTS + ps]


@given(st.sampled_from([1, 2]), st.integers(0, 2), st.sampled_from([1, 3]),
       st.integers(0, 2**20), st.integers(1, 4),
       st.lists(st.sampled_from(BMO_EXPONENTS), max_size=6))
def test_bmo_norm_of_a_list_matches_the_per_exponent_oracle_row_by_row(d, m_top, dim, seed,
                                                                       m, ps):
    system = DyadicSystem(d=d, m_top=m_top, depth=(5 if d == 1 else 3) - m_top)
    bs = [random_grid_function(system, seed, NormedSpace(dim, 2.0), label=f"bmo-{r}")
          for r in range(m)]
    got = bmo_norm(bs, BMO_EXPONENTS + ps)
    assert len(got) == m
    for b, row in zip(bs, got):
        assert row == bmo_norm(b, BMO_EXPONENTS + ps)
        assert row == [bmo_norm_per_exponent(b, p) for p in BMO_EXPONENTS + ps]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dim", [1, 3])
def test_block_means_match_ndarray_mean(d, dim):
    gen = np.random.default_rng(d * 10 + dim)
    for factor in range(1, 65):
        arr = gen.standard_normal((factor * 2,) * d + (dim,)) * 10.0**gen.integers(-3, 4)
        assert np.array_equal(_block_means(arr, d, factor),
                              block_means_by_mean(arr, d, factor))
        view = arr[(slice(None),) * (d - 1) + (slice(factor, None),)]  # not contiguous in 2-d
        assert np.array_equal(_block_means(view, d, factor),
                              block_means_by_mean(view, d, factor))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dim", [1, 3])
def test_kernels_on_a_stack_equal_one_row_at_a_time(d, dim):
    gen = np.random.default_rng(d * 10 + dim)
    stack = gen.standard_normal((3,) + (8,) * d + (dim,))
    view = stack[(slice(None),) * d + (slice(4, None),)]  # a box, not contiguous
    for arr in (stack, view):
        for size in (1, 2, 4):
            means = _block_means(arr, d, size)
            blocks = _blocks(arr, d, size, 1)
            assert np.array_equal(_unblocks(blocks, d, size, 1), arr)
            assert np.array_equal(_expand_blocks(means, d, size),
                                  np.stack([_expand_blocks(m, d, size) for m in means]))
            for row, m, b in zip(arr, means, blocks):
                assert np.array_equal(m, _block_means(row, d, size))
                assert np.array_equal(b, _blocks(row, d, size))


@pytest.mark.parametrize("d, m_top, dim", [(1, 0, 1), (1, 2, 3), (2, 1, 1), (2, 0, 3)])
def test_batched_inputs_equal_one_draw_per_label(d, m_top, dim):
    system = DyadicSystem.random(d + m_top, d=d, m_top=m_top, depth=3)
    space = NormedSpace(dim, 2.0)
    labels = [f"batch-in-{k}" for k in range(5)] + ["batch-in-0"]
    got = list(random_grid_functions(system, 7, labels, space))
    assert len(got) == len(labels)
    for label, f in zip(labels, got):
        want = random_grid_function(system, 7, space, label=label)
        assert np.array_equal(f.values, want.values) and not f.values.flags.writeable
        assert f.system == system and f.space == space
    assert list(random_grid_functions(system, 7, [], space)) == []


@pytest.mark.parametrize("d, dim, q", [(1, 1, 2.0), (1, 3, 3.0), (2, 1, np.inf), (2, 3, 1.5)])
def test_lp_norm_of_an_exponent_list_equals_one_call_per_exponent(d, dim, q):
    system = DyadicSystem.random(d, d=d, m_top=1, depth=3)
    f = random_grid_function(system, 3, NormedSpace(dim, q))
    ps = [1.5, 2.0, 3.0, np.inf]
    assert lp_norm(f, ps) == [lp_norm(f, p) for p in ps]
    assert lp_norm(f, tuple(ps)) == lp_norm(f, ps)
    assert isinstance(lp_norm(f, 2.0), float) and lp_norm(f, []) == []


@pytest.mark.parametrize("mode", [None, "global", "per_top"])
@pytest.mark.parametrize("d, m_top", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_centring_equals_one_branch_per_mode(d, m_top, mode):
    """One loop over centring regions gives, bit for bit, the old branches: per top
    cube by `cube_average` or by a support mask, or globally, with or without a
    support, on standard and translated systems."""
    depth = 3 if d == 1 else 2
    for system in (DyadicSystem(d=d, m_top=m_top, depth=depth),
                   DyadicSystem.random(d + m_top, d=d, m_top=m_top, depth=depth)):
        supports = [None]
        for level in sorted({system.min_level, system.min_level + 1, system.depth}):
            cubes = list(system.cubes_at_level(level))
            supports += cubes[::max(1, len(cubes) // 3)]
        for support, dim, seed in itertools.product(supports, (1, 3), (0, 5)):
            space = NormedSpace(dim, 2.0)
            got = random_grid_function(system, seed, space, support, mode, label="centred")
            want = random_grid_function_by_mode(system, seed, space, support, mode, "centred")
            assert np.array_equal(got.values, want.values)


# -- argument checks and two-dimensional etas ----------------------------------------------


def test_unknown_mean_zero_is_rejected():
    with pytest.raises(ValueError, match="mean_zero"):
        random_grid_function(SYS4, 0, mean_zero="pertop")


def test_conditional_expectation_requires_alignment():
    system = DyadicSystem(d=1, m_top=0, depth=3, omega=((0,), (1,), (0,)))
    f = random_grid_function(system, 1)
    for g in (f, [f, f]):
        with pytest.raises(ValueError, match="not cell-grid aligned"):
            conditional_expectation(g, 1)
    # per-cube operations remain exact on translated systems
    cube = system.cube(1, (0,))
    view = f.values[cube.cell_slices()]
    assert cube_average(f, cube)[0] == pytest.approx(view.mean())


def test_two_dimensional_eta_orthonormality():
    system = DyadicSystem(d=2, m_top=0, depth=3)
    cube = system.cube(0, (0, 0))
    from dyadiclab.gridfn import etas
    for ea in etas(2):
        for eb in etas(2):
            value = pair(haar_function(cube, ea), haar_function(cube, eb))
            assert value == pytest.approx(1.0 if ea == eb else 0.0, abs=1e-12)
