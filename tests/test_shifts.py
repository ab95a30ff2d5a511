import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab.errors import DegenerateInputError
from dyadiclab.grid import DyadicSystem
from dyadiclab.gridfn import (GridFunction, cube_average, from_callable, haar_function,
                              haar_vector, indicator, lp_norm, pair, random_grid_function,
                              zeros)
from dyadiclab.shifts import (ExplicitKernel, ParaproductSpec, RandomKernel, ShiftSpec,
                              adjoint_spec, apply_averaging, apply_paraproduct,
                              apply_shift, mod_class_partition, operator_ratio,
                              shift_spec_from_json, shift_spec_to_json)
from dyadiclab.space import SCALAR, NormedSpace

from oracles import dense_averaging_matrix, dense_shift_matrix

SYS = DyadicSystem(d=1, m_top=0, depth=6)
UNIT = SYS.cube(0, (0,))


def test_constant_kernel_is_the_average():
    f = random_grid_function(SYS, 1)
    out = apply_averaging(UNIT, np.ones((4, 4)), f, 2)
    expected = cube_average(f, UNIT) * indicator(UNIT).values
    assert np.abs(out.values - expected).max() < 1e-14


def test_zero_kernel_is_zero():
    f = random_grid_function(SYS, 1)
    assert np.abs(apply_averaging(UNIT, np.zeros((4, 4)), f, 2).values).max() == 0.0


def test_sign_kernel_matches_dense_oracle():
    centers = np.arange(4)
    table = np.sign(centers[:, None] - centers[None, :]).astype(float)
    f = indicator(SYS.cube(1, (0,)))
    out = apply_averaging(UNIT, table, f, 2)
    dense = dense_averaging_matrix(UNIT, table, 2, SYS)
    assert np.abs(out.values[..., 0] - dense @ f.values[..., 0]).max() < 1e-14


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
    assert kernel.witness_probe(table) <= 0.5 + 1e-9


def test_paraproduct_spec_json_roundtrip():
    from dyadiclab.shifts import paraproduct_spec_from_json, paraproduct_spec_to_json

    b = random_grid_function(SYS, 21)
    spec = ParaproductSpec(b, levels=(0, 4), root=UNIT)
    back = paraproduct_spec_from_json(paraproduct_spec_to_json(spec))
    f = random_grid_function(SYS, 22)
    assert np.abs(apply_paraproduct(back, f).values
                  - apply_paraproduct(spec, f).values).max() == 0.0


def test_mod_class_partition():
    cubes = [SYS.cube(level, (0,)) for level in range(0, 6)]
    assert [len(c) for c in mod_class_partition(cubes, 1)] == [6]
    two = mod_class_partition(cubes, 2)
    assert sorted(c.level for c in two[0]) == [0, 2, 4]
    assert sorted(c.level for c in two[1]) == [1, 3, 5]
    three = mod_class_partition(cubes, 3)
    assert sorted(c.level for c in three[0]) == [0, 3]


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
    b = haar_function(UNIT, (1,))
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


# -- ratios and serialization --------------------------------------------------------------


def test_operator_ratio_homogeneous_and_degenerate():
    spec = ShiftSpec(1, 0, SYS, RandomKernel(11, 1.0))
    f = random_grid_function(SYS, 12)
    ratio_one = operator_ratio(lambda h: apply_shift(spec, h), [f], 2.0)
    ratio_two = operator_ratio(lambda h: apply_shift(spec, h), [2.0 * f], 2.0)
    assert ratio_one == pytest.approx(ratio_two)
    with pytest.raises(DegenerateInputError):
        operator_ratio(lambda h: h, [zeros(SYS)], 2.0)


def test_shift_spec_json_roundtrip_random_kernel():
    spec = ShiftSpec(2, 1, SYS, RandomKernel(5, 1.0), k_levels=(0, 2))
    back = shift_spec_from_json(shift_spec_to_json(spec))
    f = random_grid_function(SYS, 13)
    assert np.abs(apply_shift(back, f).values - apply_shift(spec, f).values).max() == 0.0


def test_shift_spec_json_roundtrip_explicit_tables():
    probe = ShiftSpec(0, 1, SYS, RandomKernel(6, 1.0), k_levels=(0, 1))
    tables = {}
    for level in probe.level_range():
        for cube in SYS.cubes_at_level(level):
            tables[cube.key()] = probe.kernel.table(cube, probe.blocks_per_axis())
    spec = ShiftSpec(0, 1, SYS, ExplicitKernel(tables), k_levels=(0, 1))
    back = shift_spec_from_json(shift_spec_to_json(spec))
    f = random_grid_function(SYS, 14)
    assert np.abs(apply_shift(back, f).values - apply_shift(spec, f).values).max() == 0.0


# JSON text written by the encoders before they shared their system and
# space helpers; the encoding must not change.
PINNED_SHIFT_JSON = (
    '{"i": 1, "j": 0, "kernel": {"cap": 1.0, "matrix_dim": 1, "seed": 5}, '
    '"levels": [0, 0], "space": {"dim": 2, "q": null}, '
    '"system": {"d": 1, "depth": 1, "m_top": 1, "omega": [[1], [0]]}}',
    '{"i": 0, "j": 0, "kernel": {"tables": {"0:0,0": [[0.5]]}}, "levels": null, '
    '"space": {"dim": 1, "q": 2.0}, '
    '"system": {"d": 2, "depth": 1, "m_top": 0, "omega": [[0, 1]]}}',
)
PINNED_PARAPRODUCT_JSON = (
    '{"levels": [0, 0], "root": [-1, 0], "space": {"dim": 1, "q": 2.0}, '
    '"symbol": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75], '
    '"system": {"d": 1, "depth": 1, "m_top": 1, "omega": [[1], [0]]}}',
    '{"levels": null, "root": null, "space": {"dim": 2, "q": 1.5}, '
    '"symbol": [1.0, -2.0, 0.5, 3.0], '
    '"system": {"d": 1, "depth": 0, "m_top": 0, "omega": []}}',
)


def test_spec_json_text_is_pinned():
    from dyadiclab.shifts import paraproduct_spec_from_json, paraproduct_spec_to_json

    translated = DyadicSystem(d=1, m_top=1, depth=1, omega=((1,), (0,)))
    shifts = (
        ShiftSpec(1, 0, translated, RandomKernel(5, 1.0), NormedSpace(2, np.inf), (0, 0)),
        ShiftSpec(0, 0, DyadicSystem(d=2, m_top=0, depth=1, omega=((0, 1),)),
                  ExplicitKernel({(0, (0, 0)): np.array([[0.5]])}), NormedSpace(1, 2.0)),
    )
    for spec, text in zip(shifts, PINNED_SHIFT_JSON):
        assert shift_spec_to_json(spec) == text
        assert shift_spec_to_json(shift_spec_from_json(text)) == text
    symbol = GridFunction(translated, np.arange(8.0).reshape(8, 1) / 4)
    vector_symbol = GridFunction(DyadicSystem(d=1, m_top=0, depth=0),
                                 np.array([[1.0, -2.0], [0.5, 3.0]]), NormedSpace(2, 1.5))
    paraproducts = (ParaproductSpec(symbol, (0, 0), translated.cube(0, (-1,))),
                    ParaproductSpec(vector_symbol))
    for spec, text in zip(paraproducts, PINNED_PARAPRODUCT_JSON):
        assert paraproduct_spec_to_json(spec) == text
        assert paraproduct_spec_to_json(paraproduct_spec_from_json(text)) == text
