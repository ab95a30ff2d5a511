import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadiclab import shifts
from dyadiclab.experiments import run_paraproduct, run_shift_bound
from dyadiclab.grid import DyadicSystem
from dyadiclab.gridfn import (_STACK_CELLS, GridFunction, cube_average, from_callable,
                              haar_vector, indicator, pair, random_grid_function)
from dyadiclab.shifts import (ExplicitKernel, ParaproductSpec, RandomKernel, ShiftSpec,
                              adjoint_spec, apply_paraproduct, apply_shift, fill_tables)
from dyadiclab.space import NormedSpace

from oracles import apply_paraproduct_per_level, apply_shift_per_cube, dense_shift_matrix

SYS = DyadicSystem(d=1, m_top=0, depth=6)
UNIT = SYS.cube(0, (0,))


def test_shift_of_constant_vanishes():
    spec = ShiftSpec(1, 2, SYS, RandomKernel(0, 1.0))
    f = from_callable(SYS, lambda p: np.full(p.shape[:-1], 4.0))
    assert np.abs(apply_shift(spec, f).values).max() == 0.0


def test_unit_kernel_zero_parameter_shift_vanishes():
    tables = {}
    probe = ShiftSpec(0, 0, SYS, RandomKernel(0, 1.0))
    for level in probe.level_range():
        for cube in SYS.cubes_at_level(level):
            tables[cube.key()] = np.ones((2, 2))
    spec = ShiftSpec(0, 0, SYS, ExplicitKernel(tables))
    f = random_grid_function(SYS, 2)
    assert np.abs(apply_shift(spec, f).values).max() < 1e-14


def test_explicit_kernel_of_drawn_tables_applies_the_same_shift():
    for matrix_dim in (1, 2):
        space = NormedSpace(matrix_dim, 2.0)
        drawn = ShiftSpec(0, 1, SYS, RandomKernel(6, 1.0, matrix_dim), space, k_levels=(0, 1))
        tables = {cube.key(): drawn.kernel.table(cube, drawn.blocks_per_axis())
                  for level in drawn.level_range() for cube in SYS.cubes_at_level(level)}
        spec = ShiftSpec(0, 1, SYS, ExplicitKernel(tables), space, k_levels=(0, 1))
        f = random_grid_function(SYS, 14, space)
        assert np.array_equal(apply_shift(spec, f).values, apply_shift(drawn, f).values)


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2))
def test_shift_matches_dense_composition_oracle(seed, i, j):
    spec = ShiftSpec(i, j, SYS, RandomKernel(seed, 1.0))
    f = random_grid_function(SYS, seed, label="dense-oracle-input")
    fast = apply_shift(spec, f).values[..., 0]
    dense = dense_shift_matrix(spec) @ f.values[..., 0]
    assert np.abs(fast - dense).max() < 1e-10


def test_single_cube_shift_against_three_factor_composition():
    spec = ShiftSpec(0, 1, SYS, RandomKernel(17, 1.0), k_levels=(0, 0))
    f = random_grid_function(SYS, 3)
    dense = dense_shift_matrix(spec)
    assert np.abs(apply_shift(spec, f).values[..., 0]
                  - dense @ f.values[..., 0]).max() < 1e-10


@given(st.integers(0, 10**6))
def test_shift_linearity(seed):
    spec = ShiftSpec(1, 1, SYS, RandomKernel(seed, 1.0))
    f = random_grid_function(SYS, seed, label="lin-f")
    g = random_grid_function(SYS, seed, label="lin-g")
    lhs = apply_shift(spec, f + 2.0 * g).values
    rhs = apply_shift(spec, f).values + 2.0 * apply_shift(spec, g).values
    assert np.abs(lhs - rhs).max() < 1e-12


@given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 2))
def test_adjoint_consistency(seed, i, j):
    spec = ShiftSpec(i, j, SYS, RandomKernel(seed, 1.0))
    f = random_grid_function(SYS, seed, label="adj-f")
    g = random_grid_function(SYS, seed, label="adj-g")
    lhs = pair(g, apply_shift(spec, f))
    rhs = pair(apply_shift(adjoint_spec(spec), g), f)
    assert abs(lhs - rhs) < 1e-10


def test_matrix_kernel_shift_runs_and_respects_cap():
    space = NormedSpace(2, 2.0)
    kernel = RandomKernel(4, cap=0.5, matrix_dim=2)
    spec = ShiftSpec(1, 0, SYS, kernel, space=space)
    f = random_grid_function(SYS, 5, space)
    out = apply_shift(spec, f)
    assert out.values.shape == f.values.shape
    table = kernel.table(SYS.cube(0, (0,)), 4)
    assert np.linalg.norm(table, 2, axis=(-2, -1)).max() == pytest.approx(0.5, rel=1e-12)


# -- paraproducts -----------------------------------------------------------------------


def test_constant_symbol_gives_zero():
    b = from_callable(SYS, lambda p: np.full(p.shape[:-1], 7.0))
    f = random_grid_function(SYS, 6)
    assert np.abs(apply_paraproduct(ParaproductSpec(b), f).values).max() < 1e-13


def test_constant_argument_telescopes():
    b = random_grid_function(SYS, 7)
    spec = ParaproductSpec(b, root=UNIT)
    f = from_callable(SYS, lambda p: np.full(p.shape[:-1], 3.0))
    out = apply_paraproduct(spec, f)
    expected = 3.0 * (b.values - cube_average(b, UNIT)) * indicator(UNIT).values
    assert np.abs(out.values - expected).max() < 1e-13


def test_haar_symbol_single_term():
    b = GridFunction(SYS, haar_vector(UNIT, (1,))[..., None])
    f = indicator(SYS.cube(1, (0,)))
    out = apply_paraproduct(ParaproductSpec(b), f)
    assert np.abs(out.values[..., 0] - 0.5 * haar_vector(UNIT, (1,))).max() < 1e-14


@given(st.integers(0, 10**6))
def test_paraproduct_bilinearity(seed):
    b = random_grid_function(SYS, seed, label="bilin-b")
    c = random_grid_function(SYS, seed, label="bilin-c")
    f = random_grid_function(SYS, seed, label="bilin-f")
    lhs = apply_paraproduct(ParaproductSpec(b + 0.5 * c), f).values
    rhs = (apply_paraproduct(ParaproductSpec(b), f).values
           + 0.5 * apply_paraproduct(ParaproductSpec(c), f).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_matrix_symbol_acts_on_vectors():
    space = NormedSpace(2, 2.0)
    symbol_space = NormedSpace(4, 2.0)
    b = random_grid_function(SYS, 8, symbol_space)
    f = random_grid_function(SYS, 9, space)
    out = apply_paraproduct(ParaproductSpec(b), f)
    assert out.values.shape == f.values.shape


@given(st.integers(0, 2**20), st.sampled_from([1, 2]), st.integers(0, 2),
       st.sampled_from(["scalar", "matrix"]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_paraproduct_matches_per_level_expectations(seed, d, m_top, symbol, with_levels,
                                                     with_root):
    system = DyadicSystem(d=d, m_top=m_top, depth=(4 if d == 1 else 3) - m_top)
    gen = np.random.default_rng(seed)
    n = 2 if symbol == "matrix" else 1
    b = random_grid_function(system, seed, NormedSpace(n * n, 2.0), label="pp-b")
    f = random_grid_function(system, seed, NormedSpace(n, 2.0), label="pp-f")
    levels = None
    if with_levels:
        lo = int(gen.integers(system.min_level, system.depth))
        levels = (lo, int(gen.integers(lo - 1, system.depth)))  # hi < lo: no level
    root = None
    if with_root:
        level = int(gen.integers(system.min_level, system.depth + 1))
        cubes = list(system.cubes_at_level(level))
        root = cubes[gen.integers(len(cubes))]
    spec = ParaproductSpec(b, levels, root)
    assert np.array_equal(apply_paraproduct(spec, f).values,
                          apply_paraproduct_per_level(spec, f).values)


def test_paraproduct_takes_each_symbol_expectation_once(monkeypatch):
    import dyadiclab.shifts as shifts

    calls = []
    inner = shifts.conditional_expectation

    def counted(g, level):
        calls.append(level)
        return inner(g, level)
    monkeypatch.setattr(shifts, "conditional_expectation", counted)
    b, f = random_grid_function(SYS, 1), random_grid_function(SYS, 2)
    apply_paraproduct(ParaproductSpec(b, levels=(1, 4)), f)
    # the symbol at levels 1..5, each once, and the argument at levels 1..4
    assert len(calls) == 2 * 4 + 1 and sorted(set(calls)) == [1, 2, 3, 4, 5]
    # a list of three pairs takes each expectation once for its whole stack
    calls.clear()
    apply_paraproduct([ParaproductSpec(b, levels=(1, 4))] * 3, [f, b, f])
    assert len(calls) == 2 * 4 + 1 and sorted(set(calls)) == [1, 2, 3, 4, 5]


@given(st.integers(0, 2**20), st.sampled_from([1, 2]), st.integers(0, 2),
       st.sampled_from(["scalar", "matrix"]), st.booleans(), st.booleans(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_stacked_paraproduct_equals_one_call_per_pair(seed, d, m_top, symbol, with_levels,
                                                      with_root, m):
    system = DyadicSystem(d=d, m_top=m_top, depth=(4 if d == 1 else 3) - m_top)
    gen = np.random.default_rng(seed)
    n = 2 if symbol == "matrix" else 1
    levels = root = None
    if with_levels:
        lo = int(gen.integers(system.min_level, system.depth))
        levels = (lo, int(gen.integers(lo, system.depth)))
    if with_root:
        cubes = list(system.cubes_at_level(int(gen.integers(system.min_level, system.depth))))
        root = cubes[gen.integers(len(cubes))]
    specs = [ParaproductSpec(random_grid_function(system, seed, NormedSpace(n * n, 2.0),
                                                  label=f"stack-b-{r}"), levels, root)
             for r in range(m)]
    fs = [random_grid_function(system, seed, NormedSpace(n, 2.0), label=f"stack-f-{r}")
          for r in range(m)]
    stacked = apply_paraproduct(specs, fs)
    assert isinstance(stacked, list) and len(stacked) == m
    for spec, f, got in zip(specs, fs, stacked):
        single = apply_paraproduct(spec, f)
        assert isinstance(single, GridFunction)
        assert np.array_equal(got.values, single.values)
        assert got.system == system and got.space == f.space


def test_paraproduct_lists_that_disagree_are_refused():
    b, c, f = (random_grid_function(SYS, seed) for seed in (1, 2, 3))
    other = DyadicSystem(d=1, m_top=0, depth=5)
    cases = [
        (ParaproductSpec(b), [f], "one spec and one function, or two lists of equal length"),
        ([ParaproductSpec(b)], f, "one spec and one function, or two lists of equal length"),
        ([ParaproductSpec(b)] * 2, [f], "one spec and one function, or two lists of equal length"),
        ([], [], "nonempty"),
        ([ParaproductSpec(b), ParaproductSpec(c, levels=(0, 2))], [f, f],
         "share system, space, levels and root"),
        ([ParaproductSpec(b), ParaproductSpec(c, root=UNIT)], [f, f],
         "share system, space, levels and root"),
        ([ParaproductSpec(b), ParaproductSpec(random_grid_function(other, 4))], [f, f],
         "share system, space, levels and root"),
        ([ParaproductSpec(b)] * 2, [f, random_grid_function(other, 5)], "share one system"),
        ([ParaproductSpec(b)] * 2, [f, random_grid_function(SYS, 6, NormedSpace(2, 2.0))],
         "share one system and space"),
    ]
    for spec, fs, message in cases:
        with pytest.raises(ValueError, match=message) as err:
            apply_paraproduct(spec, fs)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("root_system, corner", [
    (DyadicSystem(d=1, m_top=0, depth=6), 3),  # a finer mesh: its cells are not b's
    (DyadicSystem(d=1, m_top=0, depth=4, omega=((1,), (0,), (1,), (0,))), 1)])  # translated
def test_paraproduct_root_from_another_system_is_refused(root_system, corner):
    b = random_grid_function(DyadicSystem(d=1, m_top=0, depth=4), 1)
    root = root_system.cube(2, (corner,))
    with pytest.raises(ValueError, match="root cube of") as err:
        ParaproductSpec(b, root=root)
    assert str(b.system) in str(err.value) and str(root_system) in str(err.value)
    assert "\n" not in str(err.value)


# -- level-batched shift against the per-cube oracle ---------------------------------


@st.composite
def translated_systems(draw, levels_1d=6, levels_2d=3):
    """Random translated systems with 1..levels_* levels below the top cubes,
    so every shift with max(i, j) + 1 <= levels fits."""
    d = draw(st.sampled_from([1, 2]))
    m_top = draw(st.integers(0, 2))
    levels = draw(st.integers(max(1, m_top), levels_1d if d == 1 else levels_2d))
    return DyadicSystem.random(draw(st.integers(0, 2**20)), d=d, m_top=m_top,
                               depth=levels - m_top)


def fitting_pairs(system, cap=None):
    top = system.depth - system.min_level
    top = top if cap is None else min(top, cap + 1)
    return [(i, j) for i in range(top) for j in range(top)]


def explicit_tables(spec, gen, matrix_dim=1):
    """Independent per-cube tables for every cube the shift sums over."""
    blocks = spec.blocks_per_axis() ** spec.system.d
    shape = (blocks, blocks) + ((matrix_dim, matrix_dim) if matrix_dim > 1 else ())
    return {cube.key(): gen.uniform(-1.0, 1.0, size=shape)
            for level in spec.level_range()
            for cube in spec.system.cubes_at_level(level)}


def assert_matches_per_cube(spec, f, oracle_spec=None):
    got = apply_shift(spec, f).values
    want = apply_shift_per_cube(oracle_spec or spec, f).values
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@given(translated_systems(), st.integers(0, 2**20))
def test_batched_shift_matches_per_cube_oracle(system, seed):
    f = random_grid_function(system, seed, label="batched-shift-f")
    for i, j in fitting_pairs(system):
        assert_matches_per_cube(ShiftSpec(i, j, system, RandomKernel(seed, 1.0)), f)


@given(translated_systems(levels_1d=4, levels_2d=2), st.integers(0, 2**20))
def test_batched_shift_matches_per_cube_oracle_matrix_kernel(system, seed):
    space = NormedSpace(2, 2.0)
    f = random_grid_function(system, seed, space, label="batched-matrix-f")
    for i, j in fitting_pairs(system, cap=1):
        kernel = RandomKernel(seed, 0.5, matrix_dim=2)
        assert_matches_per_cube(ShiftSpec(i, j, system, kernel, space), f)


@given(translated_systems(levels_1d=4, levels_2d=2), st.integers(0, 2**20),
       st.sampled_from([2, 3]), st.sampled_from([1e-3, 0.5, 1.0, 7.25]))
def test_matrix_tables_have_their_cap_as_exact_rbound(system, seed, matrix_dim, cap):
    """On l^2 a finite family's R-bound is its largest operator norm, so each drawn
    matrix table's largest spectral norm is its cap."""
    space = NormedSpace(matrix_dim, 2.0)
    specs = [ShiftSpec(i, j, system, RandomKernel(seed, cap, matrix_dim), space)
             for i, j in fitting_pairs(system, cap=1)]
    for spec in fill_tables(specs):
        for level in spec.level_range():
            tables = spec.level_tables(level)[2]
            norms = np.linalg.norm(tables, 2, axis=(-2, -1)).reshape(len(tables), -1)
            np.testing.assert_allclose(norms.max(axis=-1), cap, rtol=1e-12, atol=0.0)


@given(translated_systems(), st.integers(0, 2**20), st.sampled_from([(1, 1), (2, 1), (2, 2)]))
def test_batched_shift_matches_per_cube_oracle_explicit_kernel(system, seed, dims):
    space_dim, matrix_dim = dims
    space = NormedSpace(space_dim, 2.0)
    gen = np.random.default_rng(seed)
    f = random_grid_function(system, seed, space, label="batched-explicit-f")
    i, j = (int(x) for x in gen.integers(0, system.depth - system.min_level, size=2))
    probe = ShiftSpec(i, j, system, RandomKernel(0, 1.0))
    tables = explicit_tables(probe, gen, matrix_dim)
    assert_matches_per_cube(ShiftSpec(i, j, system, ExplicitKernel(tables), space), f)


@pytest.mark.parametrize("space_dim, shape", [(1, (2, 3)), (1, (3, 3)), (1, (2, 2, 1, 1)),
                                              (2, (2, 2, 2)), (2, (2, 2, 1, 1)),
                                              (2, (2, 2, 3, 3)), (3, (2, 2, 2, 2))])
def test_wrong_shaped_explicit_table_names_its_cube(space_dim, shape):
    system = DyadicSystem.random(1, d=1, m_top=1, depth=3)
    space = NormedSpace(space_dim, 2.0)
    probe = ShiftSpec(0, 0, system, RandomKernel(0, 1.0))
    tables = explicit_tables(probe, np.random.default_rng(0))
    bad = list(system.cubes_at_level(0))[-1]
    tables[bad.key()] = np.ones(shape)
    spec = ShiftSpec(0, 0, system, ExplicitKernel(tables), space)
    with pytest.raises(ValueError, match=rf"cube \(0, \({bad.corner[0]},\)\) has shape"):
        apply_shift(spec, random_grid_function(system, 1, space))
    tables[bad.key()] = np.ones((2, 2))  # the scalar shape is right for any space
    apply_shift(ShiftSpec(0, 0, system, ExplicitKernel(tables), space),
                random_grid_function(system, 1, space))


def test_missing_explicit_table_names_its_cube():
    system = DyadicSystem.random(1, d=2, m_top=1, depth=1)
    probe = ShiftSpec(0, 0, system, RandomKernel(0, 1.0))
    tables = explicit_tables(probe, np.random.default_rng(0))
    missing = list(system.cubes_at_level(-1))[0]
    del tables[missing.key()]
    spec = ShiftSpec(0, 0, system, ExplicitKernel(tables))
    corner = ", ".join(map(str, missing.corner))
    with pytest.raises(ValueError, match=rf"no kernel table for cube \(-1, \({corner}\)\)"):
        apply_shift(spec, random_grid_function(system, 1))


@given(translated_systems(), st.integers(0, 2**20))
def test_batched_shift_matches_per_cube_oracle_k_levels(system, seed):
    gen = np.random.default_rng(seed)
    f = random_grid_function(system, seed, label="batched-levels-f")
    for i, j in fitting_pairs(system):
        full = ShiftSpec(i, j, system, RandomKernel(seed, 1.0)).level_range()
        lo = int(gen.integers(full.start, full.stop))
        hi = int(gen.integers(lo, full.stop))
        assert_matches_per_cube(
            ShiftSpec(i, j, system, RandomKernel(seed, 1.0), k_levels=(lo, hi)), f)


@given(translated_systems(), st.integers(0, 2**20))
def test_adjoint_matches_per_cube_transpose(system, seed):
    f = random_grid_function(system, seed, label="adjoint-f")
    g = random_grid_function(system, seed, label="adjoint-g")
    for i, j in fitting_pairs(system, cap=2):
        spec = ShiftSpec(i, j, system, RandomKernel(seed, 1.0))
        blocks = spec.blocks_per_axis() ** system.d
        by_hand = ExplicitKernel({cube.key(): spec.kernel.table(cube, blocks).T
                                  for level in spec.level_range()
                                  for cube in system.cubes_at_level(level)})
        adjoint = adjoint_spec(spec)
        assert (adjoint.i, adjoint.j, adjoint.k_levels) == (j, i, None)
        assert_matches_per_cube(adjoint, g, ShiftSpec(j, i, system, by_hand))
        lhs = pair(g, apply_shift(spec, f))
        assert lhs == pytest.approx(pair(apply_shift(adjoint, g), f), rel=1e-12, abs=1e-12)


def test_adjoint_transposes_matrix_tables_without_redrawing():
    """The transposes of the drawn tables; that nothing is redrawn is counted by
    test_kernel_tables_drawn_once_per_cube_per_spec."""
    space = NormedSpace(2, 2.0)
    spec = ShiftSpec(1, 0, SYS, RandomKernel(3, 0.5, matrix_dim=2), space)
    apply_shift(spec, random_grid_function(SYS, 4, space))
    adjoint = adjoint_spec(spec)
    cube = SYS.cube(0, (0,))
    table = spec.kernel.table(cube, 4)
    assert np.array_equal(adjoint.kernel.table(cube, 4), table.transpose(1, 0, 3, 2))


def test_kernel_tables_drawn_once_per_cube_per_spec(monkeypatch):
    system = DyadicSystem.random(9, d=2, m_top=1, depth=2)
    calls = []
    original = RandomKernel.table
    monkeypatch.setattr(RandomKernel, "table",
                        lambda self, cube, blocks, *gen: calls.append(cube.key())
                        or original(self, cube, blocks, *gen))
    for kernel, space in ((RandomKernel(5, 1.0), NormedSpace(1, 2.0)),
                          (RandomKernel(5, 0.5, matrix_dim=2), NormedSpace(2, 2.0))):
        calls.clear()
        spec = ShiftSpec(1, 0, system, kernel, space)
        f = random_grid_function(system, 6, space)
        first = apply_shift(spec, f)
        again = apply_shift(spec, f)
        adjoint_spec(spec)
        cubes = [cube.key() for level in spec.level_range()
                 for cube in system.cubes_at_level(level)]
        assert sorted(calls) == sorted(cubes) and len(set(calls)) == len(calls)
        assert np.array_equal(first.values, again.values)
        fresh = apply_shift(ShiftSpec(1, 0, system, kernel, space), f)
        assert np.array_equal(first.values, fresh.values)


def test_table_cache_stays_out_of_eq_hash_and_repr():
    system = DyadicSystem.random(2, d=1, m_top=1, depth=4)
    used = ShiftSpec(2, 1, system, RandomKernel(5, 1.0), k_levels=(0, 1))
    apply_shift(used, random_grid_function(system, 7))
    twin = ShiftSpec(2, 1, system, RandomKernel(5, 1.0), k_levels=(0, 1))
    assert used == twin and hash(used) == hash(twin)
    assert repr(used) == repr(twin) and "_stacks" not in repr(used)
    with pytest.raises(ValueError):
        used.level_tables(0)[2][0, 0, 0] = 1.0


# -- a stack of inputs against one call per input ------------------------------------

# (kernel kind, space dim): scalar tables on any space, 2 x 2 drawn matrix tables on
# dim 2, explicit scalar tables on dims 1 and 3 and explicit 3 x 3 ones on dim 3
KERNEL_KINDS = [("scalar", 1), ("scalar", 3), ("matrix", 2), ("explicit", 1),
                ("explicit", 3), ("explicit-matrix", 3)]


def kernel_of(kind, spec, seed):
    if kind == "scalar":
        return RandomKernel(seed, 1.0)
    if kind == "matrix":
        return RandomKernel(seed, 0.5, matrix_dim=2)
    gen = np.random.default_rng(seed)
    return ExplicitKernel(explicit_tables(spec, gen, 3 if kind == "explicit-matrix" else 1))


@given(translated_systems(levels_1d=5, levels_2d=3), st.integers(0, 2**20),
       st.sampled_from(KERNEL_KINDS), st.integers(1, 4))
@settings(max_examples=40)
def test_stacked_shift_equals_one_call_per_input(system, seed, kind_dim, m):
    kind, dim = kind_dim
    space = NormedSpace(dim, 2.0)
    fs = [random_grid_function(system, seed, space, label=f"stack-{r}") for r in range(m)]
    for i, j in fitting_pairs(system, cap=2):
        probe = ShiftSpec(i, j, system, RandomKernel(0, 1.0))
        spec = ShiftSpec(i, j, system, kernel_of(kind, probe, seed), space)
        stacked = apply_shift(spec, fs)
        assert isinstance(stacked, list) and len(stacked) == m
        for f, got in zip(fs, stacked):
            single = apply_shift(spec, f)
            assert isinstance(single, GridFunction)
            assert np.array_equal(got.values, single.values)
            assert got.system == system and got.space == space


def test_empty_stack_gives_empty_list():
    spec = ShiftSpec(1, 0, SYS, RandomKernel(3, 1.0))
    assert apply_shift(spec, []) == []


def test_stack_with_a_foreign_function_is_refused():
    spec = ShiftSpec(0, 0, SYS, RandomKernel(3, 1.0))
    other = DyadicSystem(d=1, m_top=0, depth=5)
    with pytest.raises(ValueError, match="does not match the shift's system/space"):
        apply_shift(spec, [random_grid_function(SYS, 1), random_grid_function(other, 1)])


@pytest.mark.parametrize("matrix_dim, space_dim", [(2, 1), (2, 3), (3, 2)])
def test_kernel_and_space_dims_that_disagree_are_refused(matrix_dim, space_dim):
    space = NormedSpace(space_dim, 2.0)
    with pytest.raises(ValueError) as info:
        ShiftSpec(0, 0, SYS, RandomKernel(1, 0.5, matrix_dim=matrix_dim), space)
    assert str(info.value) == (f"kernel matrix_dim {matrix_dim} does not match "
                               f"the space dim {space_dim}")


@pytest.mark.parametrize("space", [NormedSpace(2, np.inf), NormedSpace(2, 1.0),
                                   NormedSpace(2, norm_fn=lambda v: np.abs(v).max(axis=-1))],
                         ids=["linf", "l1", "custom"])
def test_matrix_kernels_off_l2_are_refused(space):
    """A matrix table's largest spectral norm is its R-bound only on l^2; scalar
    kernels, whose cap is their sup norm, stay allowed on every space."""
    with pytest.raises(ValueError) as info:
        ShiftSpec(0, 0, SYS, RandomKernel(1, 0.5, matrix_dim=2), space)
    assert str(info.value) == "matrix kernels need an l^2 space, where their cap is the R-bound"
    assert ShiftSpec(0, 0, SYS, RandomKernel(1, 0.5), space).space is space


@pytest.mark.parametrize("key_rows", [1 << 16, 1, 40])
def test_run_wide_fill_equals_per_spec_tables(monkeypatch, key_rows):
    """One fill over specs on different systems, kernels and level ranges draws
    what each spec's own `level_tables` draws, and skips what a spec holds,
    whether the specs are keyed in one batch or in several."""
    monkeypatch.setattr(shifts, "_KEY_ROWS", key_rows)
    sys_a = DyadicSystem.random(3, d=2, m_top=1, depth=2)
    sys_b = DyadicSystem.random(4, d=1, m_top=2, depth=3)
    probe = ShiftSpec(1, 1, sys_b, RandomKernel(0, 1.0))

    def make():
        return [ShiftSpec(0, 1, sys_a, RandomKernel(11, 1.0)),
                ShiftSpec(1, 0, sys_a, RandomKernel(2**40 + 5, 0.5)),
                ShiftSpec(1, 1, sys_b, ExplicitKernel(
                    explicit_tables(probe, np.random.default_rng(1)))),
                ShiftSpec(2, 0, sys_b, RandomKernel(11, 1.0), k_levels=(-1, 0)),
                ShiftSpec(0, 0, sys_b, RandomKernel(-7, 0.5, matrix_dim=2),
                          NormedSpace(2, 2.0)),
                ShiftSpec(5, 5, sys_b, RandomKernel(1, 1.0))]  # deeper than the mesh

    batch, alone = make(), make()
    held = batch[1].level_tables(0)[2]  # one spec already holds its tables
    assert all(got is want for got, want in zip(fill_tables(iter(batch)), batch))
    assert batch[1].level_tables(0)[2] is held
    for got, want in zip(batch, alone):
        levels = list(want.level_range()) if want.block_gap <= 5 else []
        assert sorted(got._stacks) == levels
        for level in levels:
            for a, b in zip(got.level_tables(level), want.level_tables(level)):
                assert np.array_equal(a, b)


def test_fill_draws_each_spec_when_it_is_yielded():
    specs = [ShiftSpec(i, 0, SYS, RandomKernel(i, 1.0)) for i in range(3)]
    filled = fill_tables(specs)
    assert next(filled) is specs[0] and specs[0]._stacks
    assert not specs[1]._stacks and not specs[2]._stacks
    assert list(filled) == specs[1:] and specs[2]._stacks


def test_shift_bound_run_holds_one_spec_at_a_time():
    """A shift-bound run's peak allocation barely grows with its number of specs:
    one spec's inputs and tables are live at a time, and kernel streams are keyed
    in batches of at most `_KEY_ROWS` tables."""
    def peak(kernels):
        params = {"depth": 9, "ij_cap": 1, "p_list": [2.0], "kernels_per_ij": kernels,
                  "inputs_per_kernel": 8}
        tracemalloc.start()
        try:
            run_shift_bound(params, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the module caches
    few, many = peak(2), peak(16)
    assert many < 1.5 * few


def test_paraproduct_run_stacks_in_bounded_chunks():
    """A paraproduct run's peak allocation does not grow with its number of pairs:
    the pairs are stacked in chunks of at most `gridfn._STACK_CELLS` cells."""
    def peak(n_pairs):
        tracemalloc.start()
        try:
            run_paraproduct({"depth": 15, "n_pairs": n_pairs, "p_list": [2.0]}, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 4 * 2 ** 16 == _STACK_CELLS  # four pairs of 2^16 cells fill a chunk
    peak(1)  # fills the module caches
    few, many = peak(4), peak(16)
    assert many < 1.2 * few
