import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dyadiclab import gridfn, representation
from dyadiclab.errors import (AmbientRangeError, DegenerateInputError,
                              InsufficientDataError, ResourceLimitError)
from dyadiclab.experiments import run_experiment
from dyadiclab.grid import DyadicCube, DyadicSystem, GoodnessParams, good_mask, is_good
from dyadiclab.gridfn import (etas, fill_haar_frame, haar_coefficient, haar_frame,
                              haar_vector, pair, random_grid_function)
from dyadiclab.representation import (DECAY_CASES, DiscreteOperator,
                                      RepresentationConfig, assemble,
                                      averaging_identity_residual, decay_check,
                                      extract_paraproducts, full_pairing_sum,
                                      hilbert_kernel, matrix_element,
                                      pairing_decomposition, raw_pairing,
                                      smooth_odd_kernel, wbp_constants)
from dyadiclab.shifts import ExplicitKernel, ShiftSpec, apply_shift

SYS = DyadicSystem(d=1, m_top=0, depth=6)
N = SYS.n_cells


def test_kernel_standard_estimates_sampled():
    """|K(x, y)| |x - y| <= c0, and |K(x, y) - K(x', y)| |x - y| (|x - y| / |x - x'|)^alpha
    <= c_alpha for |x - x'| < |x - y| / 2, at sampled points inside the cutoff: the
    hypotheses the decay rates of matrix-decay rest on."""
    gen = np.random.default_rng(0)
    cases = ((hilbert_kernel(), 1.0, 2.0), (smooth_odd_kernel(0.25, 1.0), 1.0, None))
    for kernel, c0, c_alpha in cases:
        x, y = gen.uniform(-1.0, 1.0, size=(2, 4000, 1))
        dist = np.abs(x - y)[:, 0]
        keep = (dist > 1e-6) & (dist <= (kernel.cutoff or np.inf))
        x, y, dist = x[keep], y[keep], dist[keep]
        assert (np.abs(kernel(x, y)) * dist).max() <= c0 + 1e-9
        step = gen.uniform(0.05, 0.45, size=x.shape) * gen.choice([-1.0, 1.0], size=x.shape)
        xp = x + step * dist[:, None]
        inside = np.abs(xp - y)[:, 0] <= (kernel.cutoff or np.inf)
        holder = (np.abs(kernel(x, y) - kernel(xp, y)) * dist
                  * (dist / np.abs(x - xp)[:, 0]) ** kernel.alpha)[inside]
        assert c_alpha is None or holder.max() <= c_alpha + 1e-9


def test_zero_operator_elements():
    T = DiscreteOperator(SYS, np.zeros((N, N)))
    J, I = SYS.cube(1, (1,)), SYS.cube(2, (1,))
    assert matrix_element(T, J, (1,), I, (1,)) == 0.0
    assert matrix_element(T, J, (1,), I, (1,), "paraproduct_extracted") == 0.0


def test_identity_operator_orthonormality():
    T = DiscreteOperator(SYS, np.eye(N))
    cube = SYS.cube(2, (-2,))
    assert matrix_element(T, cube, (1,), cube, (1,)) == pytest.approx(1.0)
    other = SYS.cube(2, (1,))
    assert matrix_element(T, other, (1,), cube, (1,)) == pytest.approx(0.0, abs=1e-14)


def test_hilbert_element_against_refined_quadrature():
    system = DyadicSystem(d=1, m_top=0, depth=8)
    kernel = hilbert_kernel()
    J = system.cube(1, (1,))
    I = system.cube(3, (0,))
    fine = DyadicSystem(d=1, m_top=0, depth=system.depth + 2)  # 4x refined mesh
    coarse_val = matrix_element(assemble(kernel, system), J, (1,), I, (1,))
    fine_val = matrix_element(assemble(kernel, fine), fine.cube(J.level, J.corner), (1,),
                              fine.cube(I.level, I.corner), (1,))
    # resolved at this depth for this separated pair
    assert abs(coarse_val - fine_val) < 1e-6


def test_extracted_convention_drops_the_host_child():
    T = assemble(smooth_odd_kernel(0.25, 1.0), SYS)
    J = SYS.cube(0, (0,))
    I = SYS.cube(3, (1,))
    raw = matrix_element(T, J, (1,), I, (1,))
    ext = matrix_element(T, J, (1,), I, (1,), "paraproduct_extracted")
    # difference equals the host-child value times the column integral
    col = float(SYS.cell_volume * T.matrix.sum(axis=0) @ haar_vector(I, (1,)))
    host_value = 1.0  # h_J on the left child of the unit cube
    assert raw - ext == pytest.approx(host_value * col, abs=1e-12)


# -- paraproduct extraction -------------------------------------------------------------


def test_zero_operator_extraction():
    T = DiscreteOperator(SYS, np.zeros((N, N)))
    toward_argument, toward_dual = extract_paraproducts(T, 0, 3)
    assert max(abs(v) for v in toward_argument.values()) == 0.0
    assert max(abs(v) for v in toward_dual.values()) == 0.0


def test_rank_one_operator_extraction():
    marker = SYS.cube(2, (1,))
    h = haar_vector(marker, (1,)).reshape(-1)
    matrix = np.outer(np.ones(N), h) * SYS.cell_volume
    T = DiscreteOperator(SYS, matrix)
    _, toward_dual = extract_paraproducts(T, 0, 3)
    ambient_volume = 2.0
    for key, value in toward_dual.items():
        expect = ambient_volume if key == marker.key() + ((1,),) else 0.0
        assert value == pytest.approx(expect, abs=1e-12)


def test_cutoff_kernel_interior_column_sums_vanish():
    # constant column sums against mean-zero factors: interior coefficients vanish
    kernel = smooth_odd_kernel(0.1, 0.25)
    T = assemble(kernel, SYS)
    _, toward_dual = extract_paraproducts(T, 2, 4)
    worst = 0.0
    for (level, corner, eta), value in toward_dual.items():
        cube = SYS.cube(level, corner)
        geo = cube.geometry()[0]
        if geo[0] > -1.0 + 0.3 and geo[1] < 1.0 - 0.3:
            worst = max(worst, abs(value))
    assert worst < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=10)
def test_pairing_decomposition_identity(seed):
    T = assemble(smooth_odd_kernel(0.25, 1.0), SYS)
    sup = SYS.cube(0, (0,))
    f = random_grid_function(SYS, seed, support=sup, mean_zero="per_top", label="pd-f")
    g = random_grid_function(SYS, seed, support=sup, mean_zero="per_top", label="pd-g")
    [res] = pairing_decomposition(T, [(g, f)], SYS.min_level, SYS.depth - 1)
    assert abs(res.raw_sum - res.lhs) < 1e-10
    assert res.identity_residual < 1e-10


def test_symbol_synthesis_matches_table():
    T = assemble(smooth_odd_kernel(0.25, 1.0), SYS)
    toward_argument, _ = extract_paraproducts(T, 0, 3)
    b = oracles.synthesize_symbol(SYS, toward_argument, 0, 3)
    for level in range(0, 4):
        for cube in SYS.cubes_at_level(level):
            key = cube.key() + ((1,),)
            assert haar_coefficient(b, cube, (1,))[0] == pytest.approx(
                toward_argument[key], abs=1e-12)


# -- assembled shift blocks --------------------------------------------------------------


PERMISSIVE = GoodnessParams(gamma=0.4, r=1, max_generations=2)


def coefficient_shift(T, K, i, j, params):
    """The (i, j) shift whose only nonzero table is K's, from `oracles.shift_coefficients`."""
    blocks = (1 << (max(i, j) + 1)) ** T.system.d
    tables = {cube.key(): np.zeros((blocks, blocks))
              for cube in T.system.cubes_at_level(K.level)}
    tables[K.key()] = oracles.shift_coefficients(T, K, i, j, params)
    return ShiftSpec(i, j, T.system, ExplicitKernel(tables), k_levels=(K.level, K.level))


@given(st.integers(0, 10**6), st.sampled_from([(0, 0), (1, 0), (2, 1), (1, 2)]))
@settings(max_examples=10)
def test_shift_coefficients_reproduce_partial_pairing(seed, ij):
    i, j = ij
    T = assemble(hilbert_kernel(), SYS)
    K = SYS.cube(0, (0,))
    f = random_grid_function(SYS, seed, label="sc-f")
    g = random_grid_function(SYS, seed, label="sc-g")
    lhs = pair(g, apply_shift(coefficient_shift(T, K, i, j, PERMISSIVE), f))
    total = 0.0
    level_i = [K]
    for _ in range(i):
        level_i = [kid for parent in level_i for kid in parent.children()]
    level_j = [K]
    for _ in range(j):
        level_j = [kid for parent in level_j for kid in parent.children()]
    for I in level_i:
        for J in level_j:
            smaller = I if i >= j else J
            if not is_good(smaller, PERMISSIVE):
                continue
            if oracles.common_ancestor(I, J).key() != K.key():
                continue
            elem = matrix_element(T, J, (1,), I, (1,), "paraproduct_extracted")
            total += (haar_coefficient(g, J, (1,))[0] * elem
                      * haar_coefficient(f, I, (1,))[0])
    assert lhs == pytest.approx(total, abs=1e-10)


def test_empty_good_set_gives_zero_table():
    T = assemble(hilbert_kernel(), SYS)
    table = oracles.shift_coefficients(T, SYS.cube(0, (0,)), 4, 1,
                                       GoodnessParams(gamma=0.125, r=3))
    assert np.abs(table).max() == 0.0


# -- decay ---------------------------------------------------------------------------------


def test_zero_kernel_decay_is_insufficient():
    T = DiscreteOperator(SYS, np.zeros((N, N)))
    with pytest.raises(InsufficientDataError):
        decay_check(T, "far_disjoint", range(2, 6), PERMISSIVE, alpha=1.0)


def test_decay_slopes_on_feasible_configuration():
    system = DyadicSystem(d=1, m_top=0, depth=9)
    T = assemble(hilbert_kernel(), system)
    params = GoodnessParams(gamma=0.4, r=4)
    far = decay_check(T, "far_disjoint", range(5, 9), params, alpha=1.0)
    assert far.passed
    nested = decay_check(T, "deeply_nested", range(5, 9), params, alpha=1.0)
    assert nested.passed
    assert nested.slope_target == pytest.approx(-0.5)


def test_empty_goodness_raises_insufficient_data():
    system = DyadicSystem(d=1, m_top=0, depth=9)
    T = assemble(hilbert_kernel(), system)
    with pytest.raises(InsufficientDataError):
        decay_check(T, "far_disjoint", range(4, 9),
                    GoodnessParams(gamma=0.125, r=3), alpha=1.0)


# -- weak boundedness ----------------------------------------------------------------------


def test_wbp_identity_and_zero():
    assert wbp_constants(DiscreteOperator(SYS, np.eye(N)))["max"] == pytest.approx(1.0)
    assert wbp_constants(DiscreteOperator(SYS, np.zeros((N, N))))["max"] == 0.0


def test_wbp_antisymmetric_kernel_vanishes():
    T = assemble(hilbert_kernel(), SYS)
    assert wbp_constants(T)["max"] < 1e-12


@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 4), st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_wbp_constants_match_per_cube_oracle(d, m_top, depth, seed):
    system = DyadicSystem.random(seed, d=d, m_top=m_top, depth=min(depth, 6 // d - m_top))
    T = random_operator(system, np.random.default_rng(seed))
    got, want = wbp_constants(T), oracles.wbp_constants_per_cube(T)
    assert list(got["per_cube"]) == list(want["per_cube"])
    for key, value in want["per_cube"].items():
        assert got["per_cube"][key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert got["max"] == pytest.approx(want["max"], rel=1e-12, abs=1e-12)


# -- averaging identity ----------------------------------------------------------------------


def make_identity_setup(seed, m_top=3):
    system = DyadicSystem(d=1, m_top=m_top, depth=4)
    T = assemble(smooth_odd_kernel(0.25, 1.0), system)
    sup = system.cube(0, (0,))
    f = random_grid_function(system, seed, support=sup, mean_zero="global", label="ai-f")
    g = random_grid_function(system, seed, support=sup, mean_zero="global", label="ai-g")
    return system, T, f, g


def test_zero_operator_identity():
    system = DyadicSystem(d=1, m_top=3, depth=4)
    T = DiscreteOperator(system, np.zeros((system.n_cells, system.n_cells)))
    f = random_grid_function(system, 0, support=system.cube(0, (0,)),
                             mean_zero="global")
    gp = GoodnessParams(gamma=0.5, r=3, max_generations=3)
    report = averaging_identity_residual(T, f, f, RepresentationConfig(goodness=gp))
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_full_sum_sanity_on_the_standard_grid():
    system, T, f, g = make_identity_setup(1)
    total = full_pairing_sum(T, g, f, system.min_level, system.depth - 1)
    assert total == pytest.approx(raw_pairing(g, T, f), abs=1e-10)


def test_identity_residual_small():
    system, T, f, g = make_identity_setup(2)
    gp = GoodnessParams(gamma=0.5, r=3, max_generations=3)
    report = averaging_identity_residual(T, g, f, RepresentationConfig(goodness=gp))
    assert report.pi_good == pytest.approx(0.25)
    assert report.relative_residual < 1e-2
    # exact independence: the residual IS the reported truncation remainder
    assert report.residual == pytest.approx(
        abs(report.top_scale_defect + report.coarse_share), abs=1e-10)


def test_degenerate_goodness_rejected():
    system, T, f, g = make_identity_setup(3)
    gp = GoodnessParams(gamma=0.125, r=3, max_generations=3)  # no good cubes
    with pytest.raises(DegenerateInputError):
        averaging_identity_residual(T, g, f, RepresentationConfig(goodness=gp))


def test_identity_bit_cap_enforced():
    from dyadiclab.errors import ResourceLimitError

    system, T, f, g = make_identity_setup(5)
    gp = GoodnessParams(gamma=0.5, r=3, max_generations=3)
    cfg = RepresentationConfig(goodness=gp, exhaustive_bit_cap=4)
    with pytest.raises(ResourceLimitError):
        averaging_identity_residual(T, g, f, cfg)


# -- assembly ----------------------------------------------------------------------------


def test_assemble_chunking_does_not_change_the_matrix(monkeypatch):
    system = DyadicSystem(d=2, m_top=0, depth=3)
    kernel = smooth_odd_kernel(0.25, 1.0)
    default = assemble(kernel, system).matrix
    for rows in (system.n_cells, 7):
        monkeypatch.setattr(representation, "_ASSEMBLE_ROWS", rows)
        assert np.array_equal(assemble(kernel, system).matrix, default)
    assert np.diagonal(default).tolist() == [0.0] * system.n_cells


def test_assemble_byte_cap_fires_before_allocating():
    # 2^14 cells would need a 2 GiB matrix; the cap is checked before any
    # allocation, so nothing of that size is ever requested
    with pytest.raises(ResourceLimitError):
        assemble(hilbert_kernel(), DyadicSystem(d=1, m_top=0, depth=13))


def test_operator_matrix_is_read_only():
    # the cached row and column sums would go stale under a write
    T = assemble(hilbert_kernel(), DyadicSystem(d=1, m_top=0, depth=3))
    with pytest.raises(ValueError):
        T.matrix[0, 1] = 1.0
    assert not DiscreteOperator(SYS, np.eye(N)).matrix.flags.writeable


# -- fast paths against the dense oracles -------------------------------------------------


@st.composite
def translated_systems(draw):
    """Random translated systems, d in {1, 2}, m_top in {0, 1, 2}, with at
    most 64 cells per axis in one dimension and 16 in two."""
    d = draw(st.sampled_from([1, 2]))
    m_top = draw(st.integers(0, 2))
    depth = draw(st.integers(1, (6 if d == 1 else 4) - m_top - 1))
    return DyadicSystem.random(draw(st.integers(0, 2**20)), d=d, m_top=m_top, depth=depth)


def random_operator(system, gen):
    return DiscreteOperator(system, gen.standard_normal((system.n_cells,) * 2))


def random_levels(system, gen):
    lo = int(gen.integers(system.min_level, system.depth))
    return lo, int(gen.integers(lo, system.depth))


def haar_cubes(system):
    return [cube for level in range(system.min_level, system.depth)
            for cube in system.cubes_at_level(level)]


@given(translated_systems(), st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_matrix_element_matches_dense_oracle(system, seed):
    gen = np.random.default_rng(seed)
    T = random_operator(system, gen)
    cubes = haar_cubes(system)
    signs = etas(system.d) + [(0,) * system.d]
    for _ in range(8):
        I = cubes[gen.integers(len(cubes))]
        J = cubes[gen.integers(len(cubes))]
        if I.level > system.min_level and gen.integers(2):
            try:  # an ancestor of I, when it stays inside the ambient
                anc = I
                for _ in range(int(gen.integers(1, I.level - system.min_level + 1))):
                    anc = anc.parent()
                J = anc
            except AmbientRangeError:
                pass
        etaJ, etaI = (signs[k] for k in gen.integers(len(signs), size=2))
        for A, etaA, B, etaB in ((J, etaJ, I, etaI), (I, etaI, J, etaJ)):
            for convention in ("raw", "paraproduct_extracted"):
                want = oracles.matrix_element_dense(T, A, etaA, B, etaB, convention)
                got = matrix_element(T, A, etaA, B, etaB, convention)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(translated_systems(), st.integers(0, 2**20), st.booleans())
@settings(max_examples=30, deadline=None)
def test_haar_frame_matches_per_cube_vectors(system, seed, boxed):
    gen = np.random.default_rng(seed)
    lo, hi = random_levels(system, gen)
    within = None
    if boxed:  # the frame of the cubes meeting a cell box, as the averaging identity uses
        within = [tuple(sorted(int(x) for x in gen.integers(0, system.cells_per_axis + 1,
                                                            size=2)))
                  for _ in range(system.d)]
        blocks = [list(system.cubes_at_level(level, within=within))
                  for level in range(lo, hi + 1)]
        cols = [(cube, eta) for cubes in blocks for cube in cubes for eta in etas(system.d)]
        H = fill_haar_frame(system, [
            (level, np.array([cube.start_cells() for cube in cubes], dtype=np.intp)
             .reshape(-1, system.d).T)
            for level, cubes in zip(range(lo, hi + 1), blocks)])
    else:
        cols, H = haar_frame(system, lo, hi)
    assert cols == [(cube, eta) for cube in oracles.standard_cubes(system, lo, hi, within)
                    for eta in etas(system.d)]
    f = random_grid_function(system, seed, label="frame-f")
    coeffs = system.cell_volume * (H.T @ f.scalar_values().reshape(-1))
    for n, (cube, eta) in enumerate(cols):
        assert np.array_equal(H[:, n], haar_vector(cube, eta).reshape(-1))
        assert coeffs[n] == pytest.approx(haar_coefficient(f, cube, eta)[0], abs=1e-12)


@given(translated_systems(), st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_symbol_tables_match_dense_oracle(system, seed):
    gen = np.random.default_rng(seed)
    T = random_operator(system, gen)
    lo, hi = random_levels(system, gen)
    got = extract_paraproducts(T, lo, hi)
    want = oracles.extract_paraproducts_dense(T, lo, hi)
    for table, expect in zip(got, want):
        assert list(table) == list(expect)
        assert np.allclose(list(table.values()), list(expect.values()),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(oracles.synthesize_symbol(system, table, lo, hi).values,
                           oracles.synthesize_symbol_dense(system, expect, lo, hi).values,
                           rtol=1e-12, atol=1e-12)


@given(translated_systems(), st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_pairing_decomposition_matches_dense_oracle(system, seed):
    # the paraproduct terms need cell-aligned levels, so the standard system
    system = DyadicSystem(d=system.d, m_top=system.m_top, depth=system.depth)
    gen = np.random.default_rng(seed)
    T = random_operator(system, gen)
    lo, hi = random_levels(system, gen)
    f = random_grid_function(system, seed, label="pd-oracle-f")
    g = random_grid_function(system, seed, label="pd-oracle-g")
    [got] = pairing_decomposition(T, [(g, f)], lo, hi)
    want = oracles.pairing_decomposition_dense(T, g, f, lo, hi)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == pytest.approx(getattr(want, field.name),
                                                         rel=1e-9, abs=1e-9)


def test_pairing_decomposition_rejects_translated_levels():
    translated = DyadicSystem.random(0, d=1, m_top=0, depth=6)
    assert any(translated.shift_cells(0))
    gen = np.random.default_rng(0)
    T = random_operator(translated, gen)
    f = random_grid_function(translated, 1)
    with pytest.raises(ValueError, match="translated"):
        pairing_decomposition(T, [(f, f)], 0, 5)
    # translated only at coarse scales: the finer levels stay aligned
    coarse = DyadicSystem(d=1, m_top=1, depth=4, omega=((1,),) + ((0,),) * 4)
    assert any(coarse.shift_cells(-1)) and not any(coarse.shift_cells(0))
    T = random_operator(coarse, gen)
    f, g = random_grid_function(coarse, 3), random_grid_function(coarse, 4)
    [got] = pairing_decomposition(T, [(g, f)], 0, 3)
    want = oracles.pairing_decomposition_dense(T, g, f, 0, 3)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == pytest.approx(getattr(want, field.name),
                                                         rel=1e-9, abs=1e-9)


@st.composite
def aligned_from(draw, systems=translated_systems()):
    """A system of `translated_systems`' shapes, standard or translated only at
    the levels above a drawn level_lo, with levels lo <= hi."""
    base = draw(systems)
    lo = draw(st.integers(base.min_level, base.depth - 1))
    hi = draw(st.integers(lo, base.depth - 1))
    if draw(st.booleans()):
        omega = ()
    else:
        # the bit of scale j moves the levels coarser than j only
        scales = range(base.min_level + 1, base.depth + 1)
        omega = tuple(bits if j <= lo else (0,) * base.d for j, bits in zip(scales, base.omega))
    system = DyadicSystem(d=base.d, m_top=base.m_top, depth=base.depth, omega=omega)
    assert not any(system.shift_cells(lo))
    return system, lo, hi


@given(aligned_from(), st.integers(1, 4), st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_batched_pairs_match_one_call_per_pair(case, n_pairs, seed):
    system, lo, hi = case
    T = random_operator(system, np.random.default_rng(seed))
    pairs = [(random_grid_function(system, seed, label=f"batch-g-{k}"),
              random_grid_function(system, seed, label=f"batch-f-{k}"))
             for k in range(n_pairs)]
    got = pairing_decomposition(T, pairs, lo, hi)
    assert len(got) == n_pairs
    for res, (g, f) in zip(got, pairs):
        want = oracles.pairing_decomposition_per_pair(T, g, f, lo, hi)
        for field in dataclasses.fields(res):
            assert getattr(res, field.name) == getattr(want, field.name), field.name


def count_calls(monkeypatch, counts, owner, name):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("n_pairs", [1, 5])
def test_operator_work_is_done_once_per_call(monkeypatch, n_pairs):
    system = DyadicSystem(d=1, m_top=1, depth=4)
    lo, hi = 0, 3
    T = random_operator(system, np.random.default_rng(0))
    pairs = [(random_grid_function(system, k, label="count-g"),
              random_grid_function(system, k, label="count-f")) for k in range(n_pairs)]
    counts = {}
    for name in ("extract_paraproducts", "haar_frame"):
        count_calls(monkeypatch, counts, representation, name)
    count_calls(monkeypatch, counts, DyadicCube, "parent")
    assert len(pairing_decomposition(T, pairs, lo, hi)) == n_pairs
    # one walk: every cube of the range climbs once to level lo
    walk = sum(len(list(system.cubes_at_level(level))) * (level - lo)
               for level in range(lo, hi + 1))
    assert counts == {"extract_paraproducts": 1, "haar_frame": 2, "parent": walk}


def test_no_pairs_give_no_results():
    T = random_operator(SYS, np.random.default_rng(0))
    assert pairing_decomposition(T, [], 0, 3) == []


def test_pairing_byte_cap_fires_before_any_frame(monkeypatch):
    # 32 cells and 30 Haar columns: the operator's 8 * 32^2 bytes pass the
    # cap, the frames' and elements' 8 * (2*32*30 + 2*30^2) do not
    system = DyadicSystem(d=1, m_top=0, depth=4)
    T = assemble(smooth_odd_kernel(0.25, 1.0), system)
    f = random_grid_function(system, 0)
    monkeypatch.setattr(representation, "_ASSEMBLE_BYTE_CAP", 8 * (2 * 32 * 30 + 2 * 30 * 30) - 1)
    counts = {}
    for name in ("extract_paraproducts", "haar_frame"):
        count_calls(monkeypatch, counts, representation, name)
    with pytest.raises(ResourceLimitError, match="30 Haar columns of 32 cells"):
        pairing_decomposition(T, [(f, f)], 0, 3)
    assert counts == {}
    monkeypatch.setattr(representation, "_ASSEMBLE_BYTE_CAP", 8 * (2 * 32 * 30 + 2 * 30 * 30))
    assert len(pairing_decomposition(T, [(f, f)], 0, 3)) == 1


DECAY_PARAMS = (GoodnessParams(gamma=0.9, r=3), GoodnessParams(gamma=0.4, r=4),
                GoodnessParams(gamma=0.5, r=3, max_generations=3))


@given(st.integers(0, 2), st.integers(3, 7), st.integers(0, 2**20),
       st.sampled_from(DECAY_CASES), st.sampled_from(DECAY_PARAMS))
@settings(max_examples=30, deadline=None)
def test_decay_check_matches_dense_oracle(m_top, depth, seed, case, params):
    system = DyadicSystem.random(seed, d=1, m_top=m_top, depth=min(depth, 7 - m_top))
    T = random_operator(system, np.random.default_rng(seed))
    i_values = range(system.depth + 1)
    try:
        want = oracles.decay_check_dense(T, case, i_values, params, alpha=1.0)
    except ValueError:
        with pytest.raises(InsufficientDataError):
            decay_check(T, case, i_values, params, alpha=1.0)
        return
    got = decay_check(T, case, i_values, params, alpha=1.0)
    assert got.i_values == want.i_values
    assert got.slope_target == want.slope_target
    assert np.allclose(got.magnitudes, want.magnitudes, rtol=1e-9, atol=1e-12)
    assert (got.slope is None) == (want.slope is None)
    if got.slope is not None:
        assert got.slope == pytest.approx(want.slope, abs=1e-9)


def random_identity_case(d, m_top, depth, seed):
    system = DyadicSystem(d=d, m_top=m_top, depth=depth)
    T = random_operator(system, np.random.default_rng(seed))
    sup = system.cube(0, (0,) * d)
    f = random_grid_function(system, seed, support=sup, mean_zero="global", label="ai-f")
    g = random_grid_function(system, seed, support=sup, mean_zero="global", label="ai-g")
    return T, f, g


def assert_identity_matches_oracle(T, g, f, config):
    got = averaging_identity_residual(T, g, f, config)
    want = oracles.averaging_identity_dense(T, g, f, config)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == pytest.approx(getattr(want, field.name),
                                                         rel=1e-9, abs=1e-9)


# (2, 3, 1) and (2, 2, 2) put d=2 cubes at or below the eligibility floor,
# so goodness flags reach the compared sums
@given(st.sampled_from([(1, 1, 3), (1, 2, 3), (1, 3, 2), (2, 0, 2), (2, 1, 2),
                        (2, 3, 1), (2, 2, 2)]),
       st.integers(0, 2**20))
@example((2, 3, 1), 0)
@example((2, 2, 2), 1)
@settings(max_examples=14, deadline=None)
def test_averaging_identity_matches_dense_oracle(shape, seed):
    T, f, g = random_identity_case(*shape, seed)
    config = RepresentationConfig(goodness=GoodnessParams(gamma=0.5, r=3,
                                                          max_generations=3))
    assert_identity_matches_oracle(T, g, f, config)


@pytest.mark.parametrize("shape", [(1, 1, 3), (1, 2, 3), (1, 3, 2), (1, 4, 4), (1, 5, 4),
                                   (2, 0, 2), (2, 1, 2), (2, 3, 1), (2, 2, 2)],
                         ids="d{0[0]}-m_top{0[1]}-depth{0[2]}".format)
@pytest.mark.parametrize("kind", ["smooth", "random"])
@given(st.integers(0, 2**20))
@settings(max_examples=2, deadline=None)
def test_averaging_identity_matches_per_grid_oracle(shape, kind, seed):
    T, f, g = random_identity_case(*shape, seed)
    if kind == "smooth":
        T = assemble(smooth_odd_kernel(0.25, 1.0), T.system)
    config = RepresentationConfig(goodness=GoodnessParams(gamma=0.5, r=3,
                                                          max_generations=3))
    got = averaging_identity_residual(T, g, f, config)
    want = oracles.averaging_identity_per_grid(T, g, f, config)
    for field in dataclasses.fields(got):
        assert getattr(got, field.name) == pytest.approx(getattr(want, field.name), rel=0,
                                                         abs=1e-12 * abs(want.lhs))


def identity_cap_case():
    # a zero-stride matrix stands in for 8192^2 floats; the Haar columns of
    # the 4096 grids' blocks would need gigabytes
    system = DyadicSystem(d=1, m_top=0, depth=12)
    T = DiscreteOperator(system, np.broadcast_to(0.0, (system.n_cells,) * 2))
    f = random_grid_function(system, 0, mean_zero="global")
    config = RepresentationConfig(goodness=GoodnessParams(gamma=0.5, r=3,
                                                          max_generations=3))
    return T, f, config


def test_identity_column_cap_fires_before_allocating():
    T, f, config = identity_cap_case()
    with pytest.raises(ResourceLimitError, match="above the cap"):
        averaging_identity_residual(T, f, f, config)


def test_identity_column_cap_fires_before_any_system_is_built(monkeypatch):
    # the columns are counted from per-axis corner ranges, so no system or
    # cube, of a grid or of a goodness window, is built before the cap fires
    T, f, config = identity_cap_case()
    built = []

    def counting(init):
        def wrapper(self):
            built.append(type(self).__name__)
            init(self)
        return wrapper

    for cls in (DyadicSystem, DyadicCube):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
    with pytest.raises(ResourceLimitError, match="above the cap"):
        averaging_identity_residual(T, f, f, config)
    assert built == []


@pytest.mark.parametrize("case", ["far_disjoint", "deeply_nested"])
def test_decay_check_takes_each_levels_goodness_once_per_call(monkeypatch, case):
    T = assemble(hilbert_kernel(), DyadicSystem(d=1, m_top=0, depth=10))
    params = GoodnessParams(gamma=0.4, r=4)  # matrix-decay's catalog shape
    levels = []

    def counting(system, level, goodness):
        levels.append(level)
        return good_mask(system, level, goodness)

    monkeypatch.setattr(representation, "good_mask", counting)
    first = decay_check(T, case, range(5, 10), params, alpha=1.0)
    once = list(levels)
    assert once and len(set(once)) == len(once)  # levels k + i recur, masks do not
    levels.clear()
    assert decay_check(T, case, range(5, 10), params, alpha=1.0) == first
    assert levels == once  # made again by the next call: nothing is kept on the system


# small shapes of the three experiments that read Haar patterns through the caches
RERUN_PARAMS = {"matrix-decay": {"depth": 8},
                "paraproduct-extraction": {"depth": 4, "n_pairs": 3},
                "averaging-identity": {"depth": 4, "m_top": 3}}


def clear_haar_caches():
    gridfn._haar_pattern.cache_clear()
    gridfn._sign_row.cache_clear()


def report_rows(name):
    return [(c.check_id, c.measured.hex(), c.bound.hex(), c.passed)
            for c in run_experiment(name, 5, RERUN_PARAMS[name])]


def test_experiments_rerun_in_either_order_give_the_cold_rows():
    cold = {}
    for name in RERUN_PARAMS:
        clear_haar_caches()
        cold[name] = report_rows(name)
    clear_haar_caches()
    for order in (list(RERUN_PARAMS), list(RERUN_PARAMS)[::-1]):
        for name in order:
            assert report_rows(name) == cold[name], name
