import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab.grid import DyadicSystem
from dyadiclab.rng import _keys, _label_int, array_substreams, substream, substreams
from dyadiclab.shifts import RandomKernel, ShiftSpec
from dyadiclab.space import NormedSpace

SEEDS = (0, 7, 2**40, 2**63 - 1)

labels = st.one_of(
    st.sampled_from(["shift-kernel", "probe-trial", "mds-test", "", "1.0"]),
    st.text(max_size=6),
    st.sampled_from([0, 1, -1, 2**32 - 1, 2**32, 2**62 + 3, 2**63 - 1, -(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def draws(gen):
    return (gen.uniform(-1.0, 1.0, size=5), gen.standard_normal(4),
            gen.integers(0, 1000, size=3), gen.integers(1, 5), gen.uniform(size=2))


@given(st.sampled_from(SEEDS), st.lists(st.lists(labels, max_size=5), max_size=8))
def test_substreams_draw_what_substream_draws(seed, rows):
    batched = [draws(gen) for gen in substreams(seed, rows)]
    assert len(batched) == len(rows)
    for row, got in zip(rows, batched):
        want = draws(substream(seed, *row))
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("n", range(1, 10))
def test_batched_keys_match_seed_sequence(n):
    gen = np.random.default_rng(n)
    words = gen.integers(0, 2**32, size=(30, n), dtype=np.uint64).astype(np.uint32)
    words[0] = 0
    words[1] = 2**32 - 1
    count = np.full(30, n)
    count[2:] = gen.integers(1, n + 1, size=28)  # shorter rows, padded with zeros
    words[np.arange(n) >= count[:, None]] = 0
    want = [np.random.SeedSequence([int(w) for w in row[:c]]).generate_state(2, np.uint64)
            for row, c in zip(words, count)]
    assert np.array_equal(_keys(words, count), np.array(want))


def test_pinned_key():
    # Philox key of substream(7, "shift-kernel", -1, -2, 3), hard-coded: a NumPy
    # release that changes SeedSequence or Philox seeding fails here first.
    pinned = np.array([7425563131108288826, 15874310857985979157], dtype=np.uint64)
    row = ("shift-kernel", -1, -2, 3)
    for gen in (substream(7, *row), next(substreams(7, [row]))):
        assert np.array_equal(gen.bit_generator.state["state"]["key"], pinned)


def test_label_cache_keeps_floats_and_bools_apart():
    assert _label_int(1) == _label_int(True) == 1
    assert _label_int(1.0) == _label_int("1.0") != 1


@pytest.mark.parametrize("seed", [0, 4, 11])
@pytest.mark.parametrize("d, m_top, matrix_dim", [(2, 1, 1), (1, 1, 2), (2, 0, 2), (1, 0, 1)])
def test_level_tables_match_per_cube_draws(seed, d, m_top, matrix_dim):
    system = DyadicSystem.random(seed, d=d, m_top=m_top, depth=3)
    kernel = RandomKernel(seed, 0.5, matrix_dim=matrix_dim)
    spec = ShiftSpec(0, 0, system, kernel, NormedSpace(matrix_dim, 2.0))
    blocks = spec.blocks_per_axis() ** d
    levels = list(spec.level_range())
    assert levels[0] == -m_top
    for level in reversed(levels):
        want = [kernel.table(cube, blocks) for cube in system.cubes_at_level(level)]
        assert np.array_equal(spec.level_tables(level)[2], np.stack(want))


int_labels = st.one_of(st.sampled_from([0, 1, -1, 2**32 - 1, 2**32, 2**63 - 1, -(2**63)]),
                       st.integers(-(2**63), 2**63 - 1))


@given(st.sampled_from(SEEDS), st.lists(labels, max_size=3), st.integers(0, 4), st.data())
def test_array_substreams_draw_what_substream_draws(seed, head, width, data):
    ints = data.draw(st.lists(st.lists(int_labels, min_size=width, max_size=width),
                              max_size=6))
    array = np.array(ints, dtype=np.int64).reshape(len(ints), width)
    batched = [draws(gen) for gen in array_substreams([seed], tuple(head), array, [len(ints)])]
    assert len(batched) == len(ints)
    for row, got in zip(ints, batched):
        want = draws(substream(seed, *head, *row))
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


seed_labels = st.one_of(st.sampled_from([0, 7, 2**31 - 1, 2**63 - 1, -1, -(2**63)]),
                        st.integers(-(2**63), 2**63 - 1))


@given(st.lists(labels, max_size=3), st.integers(0, 4), st.data())
def test_array_substreams_with_a_seed_per_group_of_rows(head, width, data):
    """Group g of rows, the next counts[g], draws what `substream(seed[g], *head, *row)`
    draws, as `shifts.fill_tables` keys the tables of several kernels."""
    groups = data.draw(st.lists(st.tuples(seed_labels, st.lists(
        st.lists(int_labels, min_size=width, max_size=width), max_size=3)), max_size=4))
    rows = [(seed, row) for seed, group in groups for row in group]
    ints = np.array([row for _, row in rows], dtype=np.int64).reshape(len(rows), width)
    batched = [draws(gen) for gen in array_substreams(
        [seed for seed, _ in groups], tuple(head), ints, [len(g) for _, g in groups])]
    assert len(batched) == len(rows)
    for (seed, row), got in zip(rows, batched):
        want = draws(substream(seed, *head, *row))
        assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("seed", [0, 2**40, 2**63 - 1])
@pytest.mark.parametrize("d, m_top", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_level_tables_match_substream_tables(seed, d, m_top):
    """Each stacked table is the uniform draw of the cube's own stream,
    `substream(seed, "shift-kernel", level, *corner)`, negative corners included."""
    system = DyadicSystem.random(seed, d=d, m_top=m_top, depth=(4 if d == 1 else 2) - m_top)
    cap = 0.75
    spec = ShiftSpec(0, 0, system, RandomKernel(seed, cap))
    blocks = spec.blocks_per_axis() ** d
    corners = []
    for level in spec.level_range():
        cubes = list(system.cubes_at_level(level))
        corners += [m for cube in cubes for m in cube.corner]
        want = [substream(seed, "shift-kernel", level, *cube.corner)
                .uniform(-cap, cap, size=(blocks, blocks)) for cube in cubes]
        start, counts, tables = spec.level_tables(level)
        assert np.array_equal(tables, np.stack(want))
        assert start == cubes[0].start_cells()
        assert counts == tuple(len(r) for r in system.corner_ranges(level))
    assert min(corners) < 0  # the ambient cube [-2^m_top, 2^m_top) has negative corners
