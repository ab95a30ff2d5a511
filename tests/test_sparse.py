import collections

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadiclab import gridfn, sparse
from dyadiclab.errors import AdaptednessError, SparsityError
from dyadiclab.experiments import _random_adapted_functions
from dyadiclab.grid import DyadicSystem
from dyadiclab.gridfn import (GridFunction, haar_vector, indicator, lp_norm, pair,
                              random_grid_function)
from dyadiclab.rng import substream, substreams
from dyadiclab.space import SCALAR, NormedSpace, conjugate_exponent
from dyadiclab.sparse import (SparseFamily, _level_averages, build_stopping_family,
                              carleson_sum, pythagoras_check, stopping_control,
                              validate_adapted)

import oracles
from oracles import (build_stopping_family_per_cube, project_onto_member,
                     project_onto_member_haar)

SYS = DyadicSystem(d=1, m_top=0, depth=6)
ROOT = SYS.cube(0, (0,))
MODES = ("direct", "reverse_cancellative", "reverse_nonneg")
PS = (1.5, 2.0, 3.0)


def random_family(seed, weights=None):
    driver = random_grid_function(SYS, seed, support=ROOT, label="family-driver")
    return build_stopping_family(driver, ROOT, weights=weights), driver


def test_constant_function_stops_immediately():
    fam = build_stopping_family(indicator(ROOT), ROOT)
    assert len(fam) == 1


def test_unimodular_function_stops_immediately():
    fam = build_stopping_family(GridFunction(SYS, haar_vector(ROOT, (1,))[..., None]), ROOT)
    assert len(fam) == 1


def test_quarter_indicator_family():
    f = indicator(SYS.cube(2, (0,)))
    fam = build_stopping_family(f, ROOT)
    assert [c.key() for c in fam.cubes] == [(0, (0,)), (2, (0,))]
    assert fam.parents == [None, 0]


@given(st.integers(0, 10**6))
def test_built_families_are_sparse_exactly(seed):
    fam, _ = random_family(seed)
    assert fam.is_sparse()
    for idx in range(len(fam)):
        kept = int((fam.owner() == idx).sum())
        assert 2 * kept >= fam.cubes[idx].size_cells ** SYS.d


@given(st.integers(0, 10**6))
def test_locate_returns_minimal_member(seed):
    fam, _ = random_family(seed)
    gen = substream(seed, "locate-test")
    for _ in range(10):
        level = int(gen.integers(0, SYS.depth + 1))
        corner = int(gen.integers(0, 1 << level))
        cube = SYS.cube(level, (corner,))
        member = fam.cubes[fam.locate(cube)]
        assert member.contains_cube(cube)
        for idx, other in enumerate(fam.cubes):
            if other.contains_cube(cube):
                assert member.volume <= other.volume


@given(st.integers(0, 10**6))
def test_stopping_controls(seed):
    fam, driver = random_family(seed)
    ctrl = stopping_control(fam, driver)
    assert ctrl["max_q_over_member"] <= 2.0 + 1e-12
    assert ctrl["max_child_over_parent"] <= 2.0 * 2**SYS.d + 1e-12


# -- the level sweep against the per-cube build -----------------------------------------


def _descend(cube, gen, generations):
    for _ in range(generations):
        kids = cube.children()
        cube = kids[int(gen.integers(len(kids)))]
    return cube


def _driver_stack(seed, d, m_top, root_pick, weight_modes, dim=1):
    """A random translated system, a top cube or one of its children as root, and one
    driver function with its density (None for Lebesgue) per entry of `weight_modes`;
    a "zero-region" density vanishes on one subcube of the root."""
    gen = substream(seed, "sweep-vs-per-cube")
    depth = int(gen.integers(1, 6 if d == 1 else 4))
    sysm = DyadicSystem.random(seed, d=d, m_top=m_top, depth=depth)
    tops = sysm.top_cubes()
    root = tops[int(gen.integers(len(tops)))]
    if root_pick == "child":
        root = _descend(root, gen, 1)
    space = SCALAR if dim == 1 else NormedSpace(dim, 2.0)
    fs, weights = [], []
    for k, mode in enumerate(weight_modes):
        f = random_grid_function(sysm, seed, space, support=root, label=f"sweep-driver-{k}")
        if gen.integers(2):  # heavier tails give nested members
            f = GridFunction(sysm, f.values**3, space)
        w = None
        if mode != "lebesgue":
            w = np.exp(gen.uniform(-2.0, 2.0, size=(sysm.cells_per_axis,) * d))
        if mode == "zero-region":
            w[_descend(root, gen, int(gen.integers(0, depth - root.level + 1))).cell_slices()] = 0.0
        fs.append(f)
        weights.append(w)
    return root, fs, weights


def _assert_same_family(fam, ref):
    assert [c.key() for c in fam.cubes] == [c.key() for c in ref.cubes]
    assert fam.parents == ref.parents
    assert fam.children == ref.children
    assert fam.export_records() == ref.export_records()


@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(0, 2),
       st.sampled_from(["top", "child"]),
       st.lists(st.sampled_from(["lebesgue", "random"]), min_size=1, max_size=5),
       st.none() | st.integers(0, 4))
def test_sweep_matches_per_cube_build(seed, d, m_top, root_pick, weight_modes, zero_at):
    """A list of drivers, each with its own measure, is swept as one stack; each family
    equals the per-cube build.  One density with a zero-measure subcube (the one at
    `zero_at`, if the list is that long) fails the stack."""
    if zero_at is not None and zero_at < len(weight_modes):
        weight_modes[zero_at] = "zero-region"
    root, fs, weights = _driver_stack(seed, d, m_top, root_pick, weight_modes)
    if "zero-region" in weight_modes:
        with pytest.raises(SparsityError, match="zero measure"):
            build_stopping_family(fs, root, weights)
        for f, w, mode in zip(fs, weights, weight_modes):
            if mode == "zero-region":
                for build in (build_stopping_family, build_stopping_family_per_cube):
                    with pytest.raises(SparsityError, match="zero measure"):
                        build(f, root, weights=w)
        return
    families = build_stopping_family(fs, root, weights)
    assert len(families) == len(fs)
    for fam, f, w in zip(families, fs, weights):
        _assert_same_family(fam, build_stopping_family_per_cube(f, root, weights=w))
    _assert_same_family(build_stopping_family(fs[-1], root, weights[-1]), families[-1])


def _spy_stacks(monkeypatch, cells):
    """Set `gridfn._STACK_CELLS` to `cells` and record the number of cells of every
    stack of densities that `sparse._level_sums` sweeps."""
    monkeypatch.setattr(gridfn, "_STACK_CELLS", cells)
    sizes, level_sums = [], sparse._level_sums

    def spy(weights, norms, root):
        sizes.append(weights.size)
        return level_sums(weights, norms, root)

    monkeypatch.setattr(sparse, "_level_sums", spy)
    return sizes


@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(0, 2),
       st.sampled_from(["top", "child"]), st.lists(st.sampled_from(["lebesgue", "random"]),
                                                  min_size=3, max_size=7))
def test_stacks_are_swept_in_chunks_of_at_most_stack_cells(seed, d, m_top, root_pick,
                                                           weight_modes):
    """With room for two functions per stack, a list is swept in several stacks, none
    over `_STACK_CELLS` cells, and gives the families and Carleson sums of one stack."""
    root, fs, weights = _driver_stack(seed, d, m_top, root_pick, weight_modes)
    families = build_stopping_family(fs, root, weights=weights)
    sums = carleson_sum(families, fs, PS)
    with pytest.MonkeyPatch.context() as monkeypatch:
        cells = 2 * root.system.n_cells
        sizes = _spy_stacks(monkeypatch, cells)
        chunked = build_stopping_family(fs, root, weights=weights)
        assert len(sizes) == -(-len(fs) // 2) and max(sizes) <= cells
        assert carleson_sum(chunked, fs, PS) == sums
        assert len(sizes) == 2 * -(-len(fs) // 2) and max(sizes) <= cells
    for fam, ref in zip(chunked, families):
        _assert_same_family(fam, ref)


@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(0, 2),
       st.sampled_from(["top", "child"]), st.lists(st.sampled_from(["lebesgue", "random"]),
                                                  min_size=1, max_size=5),
       st.sampled_from([1, 2]))
def test_carleson_list_form_equals_per_family_calls(seed, d, m_top, root_pick, weight_modes,
                                                    dim):
    root, fs, weights = _driver_stack(seed, d, m_top, root_pick, weight_modes, dim)
    families = build_stopping_family(fs, root, weights=weights)
    assert carleson_sum(families, fs, PS) == [carleson_sum(fam, f, PS)
                                              for fam, f in zip(families, fs)]


def test_list_forms_reject_mismatched_arguments():
    fs = [random_grid_function(SYS, k, support=ROOT, label="mismatch") for k in range(2)]
    with pytest.raises(ValueError, match="one density or None per function"):
        build_stopping_family(fs, ROOT, weights=[None])
    families = build_stopping_family(fs, ROOT)
    with pytest.raises(ValueError, match="one function per family"):
        carleson_sum(families, fs[:1], PS)
    other = build_stopping_family(fs[0], SYS.cube(1, (0,)))
    with pytest.raises(ValueError, match="sharing a root"):
        carleson_sum([families[0], other], fs, PS)


@pytest.mark.parametrize("d, m_top, depth", [(1, 1, 4), (2, 1, 3)])
def test_sweep_averages_are_weighted_averages_bit_for_bit(d, m_top, depth):
    sysm = DyadicSystem.random(5, d=d, m_top=m_top, depth=depth)
    gen = substream(5, "sweep-bits", d)
    shape = (sysm.cells_per_axis,) * d
    weights = np.exp(gen.uniform(-2.0, 2.0, size=shape))
    norms = np.abs(gen.standard_normal(shape)) ** 3
    fam = SparseFamily(sysm.top_cubes()[0], weights=weights)
    for level in range(sysm.min_level, depth + 1):
        for root in sysm.cubes_at_level(level):
            box = [(s, s + root.size_cells) for s in root.start_cells()]
            for sub_level, avg in _level_averages(weights, norms, root):
                cubes = oracles.cubes_meeting(sysm, sub_level, box)
                assert len(cubes) == avg.size
                for cube in cubes:
                    block = tuple((c - s) // cube.size_cells
                                  for c, s in zip(cube.start_cells(), root.start_cells()))
                    assert avg[block] == fam.weighted_average(norms[..., None], cube)[0]


# -- the family-wide fast paths against their per-cube oracles ----------------------------


def _outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AdaptednessError, SparsityError) as exc:
        return type(exc), str(exc)


def _assert_per_exponent(fast, slow):
    """`fast(PS)` against `slow(p)` at each p of PS: the same result at every p
    or, where the oracle fails, one raise with its type and message."""
    got = _outcome(fast, PS)
    want = [_outcome(slow, p) for p in PS]
    if any(isinstance(w, tuple) for w in want):
        assert want == [want[0]] * len(PS)  # the oracle fails alike at every p
        assert got == want[0]
    else:
        assert got == want


def _translated_family(seed, d, m_top, root_pick, weighted, dim=1):
    """A stopping family on a random translated system, with the driver that built it.

    The root is a top cube, one of its children, or one 1 to depth + m_top
    generations below it; the measure is Lebesgue or a random density; the driver's
    cube makes nested members.
    """
    gen = substream(seed, "fast-vs-per-cube")
    depth = int(gen.integers(1, 6 if d == 1 else 4))
    sysm = DyadicSystem.random(seed, d=d, m_top=m_top, depth=depth)
    tops = sysm.top_cubes()
    root = tops[int(gen.integers(len(tops)))]
    if root_pick == "child":
        root = _descend(root, gen, 1)
    if root_pick == "below":
        root = _descend(root, gen, int(gen.integers(1, depth + m_top + 1)))
    space = SCALAR if dim == 1 else NormedSpace(dim, 2.0)
    f = random_grid_function(sysm, seed, space, support=root, label="fast-driver")
    f = GridFunction(sysm, f.values**3, space)
    weights = None
    if weighted:
        weights = np.exp(gen.uniform(-2.0, 2.0, size=(sysm.cells_per_axis,) * d))
    return build_stopping_family(f, root, weights=weights), f


FAMILIES = (st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(0, 2),
            st.sampled_from(["top", "child", "below"]), st.booleans(), st.sampled_from([1, 2]))


@given(*FAMILIES[:5])
def test_locate_matches_the_scan_on_every_subcube(seed, d, m_top, root_pick, weighted):
    """The owner-array `locate` finds the member the children scan finds for every
    subcube of the root, and refuses every other cube of the system."""
    fam, _ = _translated_family(seed, d, m_top, root_pick, weighted)
    sysm, root = fam.root.system, fam.root
    inside = oracles.subcubes(root)
    assert len(inside) == sum(1 << (d * g) for g in range(sysm.depth - root.level + 1))
    for cube in inside:
        assert fam.locate(cube) == oracles.locate_by_scan(fam, cube)
    keys = {cube.key() for cube in inside}
    for level in range(sysm.min_level, sysm.depth + 1):
        for cube in sysm.cubes_at_level(level):
            if cube.key() not in keys:
                with pytest.raises(KeyError, match="not contained in the root"):
                    fam.locate(cube)


@given(*FAMILIES)
def test_stopping_control_matches_per_cube_walk(seed, d, m_top, root_pick, weighted, dim):
    fam, f = _translated_family(seed, d, m_top, root_pick, weighted, dim)
    assert stopping_control(fam, f) == oracles.stopping_control_per_cube(fam, f)


@given(*FAMILIES)
def test_carleson_sum_matches_per_cube_averages(seed, d, m_top, root_pick, weighted, dim):
    fam, f = _translated_family(seed, d, m_top, root_pick, weighted, dim)
    _assert_per_exponent(lambda ps: carleson_sum(fam, f, ps),
                         lambda p: oracles.carleson_sum_per_cube(fam, f, p))


@given(*FAMILIES)
def test_exceptional_masks_match_per_cube_painting(seed, d, m_top, root_pick, weighted, dim):
    fam, _ = _translated_family(seed, d, m_top, root_pick, weighted, dim)
    for idx in range(len(fam)):
        assert np.array_equal(fam.owner() == idx, oracles.exceptional_mask_per_cube(fam, idx))


@given(*FAMILIES[:5])
def test_swept_members_equal_their_checked_cubes(seed, d, m_top, root_pick, weighted):
    """The sweep builds each member without `DyadicCube`'s checks; each equals the
    checked cube at its level and corner, with its first cells and side, and lies in
    its parent member."""
    fam, _ = _translated_family(seed, d, m_top, root_pick, weighted)
    sysm = fam.root.system
    for cube, parent in zip(fam.cubes[1:], fam.parents[1:]):
        checked = sysm.cube(cube.level, cube.corner)
        assert cube == checked
        assert (cube.start_cells(), cube.size_cells) == (checked.start_cells(),
                                                         checked.size_cells)
        assert fam.cubes[parent].contains_cube(cube)


def _random_subcube_family(root, weights, gen):
    """A family of random subcubes of `root`: each child of a member, with chance 1/2,
    brings itself or a random descendant in as a child member."""
    fam = SparseFamily(root, weights=weights)
    stack = [0]
    while stack:
        idx = stack.pop()
        cube = fam.cubes[idx]
        if cube.level < cube.system.depth:
            for kid in cube.children():
                if gen.integers(2):
                    below = int(gen.integers(0, cube.system.depth - kid.level + 1))
                    stack.append(fam.add(_descend(kid, gen, below), idx))
    return fam


@given(*FAMILIES[:5])
def test_is_sparse_matches_the_two_branch_rule(seed, d, m_top, root_pick, weighted):
    """The one rule decides as the integer rule under Lebesgue measure and the
    exceptional-measure rule under a density, on a stopping family and on families of
    random subcubes of its root, sparse or not."""
    fam, _ = _translated_family(seed, d, m_top, root_pick, weighted)
    assert fam.is_sparse() and oracles.is_sparse_two_branch(fam)
    gen = substream(seed, "random-subcube-family")
    for _ in range(4):
        other = _random_subcube_family(fam.root, fam.weights, gen)
        assert other.is_sparse() == oracles.is_sparse_two_branch(other)


def _adapted(fam, space, gen, mode):
    """Random functions adapted to the family: free on each member's exceptional
    cells, one random vector on each of its children, zero elsewhere; then made
    nonnegative or centred on the member as the mode asks."""
    sysm = fam.root.system
    out = []
    for idx in range(len(fam)):
        vals = np.zeros((sysm.cells_per_axis,) * sysm.d + (space.dim,))
        mask = oracles.exceptional_mask_per_cube(fam, idx)
        vals[mask] = gen.standard_normal((int(mask.sum()), space.dim))
        for child in fam.children[idx]:
            vals[fam.cubes[child].cell_slices()] = gen.standard_normal(space.dim)
        if mode == "reverse_nonneg":
            vals = np.abs(vals)
        if mode == "reverse_cancellative":
            cube = fam.cubes[idx]
            vals[cube.cell_slices()] -= fam.weighted_average(vals, cube)
        out.append(vals)
    return out


def _break(fam, values, gen):
    """Spoil one member's function off its cube or, if it has children, inside one
    of them, by a visible amount or by one below the tolerance."""
    idx = int(gen.integers(len(fam)))
    parents = [k for k in range(len(fam)) if fam.children[k]]
    if parents and gen.integers(2):
        idx = parents[int(gen.integers(len(parents)))]
        kids = [fam.cubes[c] for c in fam.children[idx]]
        kid = kids[int(gen.integers(len(kids)))]
        cells = np.argwhere(np.ones((kid.size_cells,) * fam.root.system.d, dtype=bool))
        cells = cells[1:] + np.array(kid.start_cells())  # all but the first cell
    else:
        outside = np.ones(values[idx].shape[:-1], dtype=bool)
        outside[fam.cubes[idx].cell_slices()] = False
        cells = np.argwhere(outside)
    if len(cells):
        cell = tuple(cells[int(gen.integers(len(cells)))])
        size = 1e-2 if gen.integers(4) else 5e-13
        values[idx][cell + (int(gen.integers(values[idx].shape[-1])),)] += size


@given(*FAMILIES, st.sampled_from(MODES), st.integers(0, 3))
def test_adapted_checks_fail_like_per_cube_checks(seed, d, m_top, root_pick, weighted,
                                                  dim, mode, n_breaks):
    fam, f = _translated_family(seed, d, m_top, root_pick, weighted, dim)
    gen = substream(seed, "break-adapted")
    values = _adapted(fam, f.space, gen, mode)
    for _ in range(n_breaks):
        _break(fam, values, gen)
    fs = [GridFunction(fam.root.system, v, f.space) for v in values]
    fast = _outcome(validate_adapted, fam, fs)
    slow = _outcome(oracles.validate_adapted_per_cube, fam, fs)
    if slow is None:
        assert np.array_equal(fast, np.stack(values))
    else:
        assert fast == slow
    for check_mode in MODES:
        _assert_per_exponent(
            lambda ps: pythagoras_check(fam, fs, ps, check_mode),
            lambda p: oracles.pythagoras_check_per_member(fam, fs, p, check_mode))


@given(*FAMILIES[:5])
def test_batched_member_draws_match_one_stream_per_member(seed, d, m_top, root_pick,
                                                          weighted):
    """The pythagoras run keys every member row of all its families in one batch."""
    fams = [_translated_family(seed + k, d, m_top, root_pick, weighted)[0] for k in range(2)]
    gens = substreams(seed, [("pyth-member", f"{k}-{mode}", idx) for k, fam in enumerate(fams)
                             for mode in MODES for idx in range(len(fam))])
    for k, fam in enumerate(fams):
        for mode in MODES:
            batched = _random_adapted_functions(fam, gens, mode)
            single = oracles.random_adapted_functions_per_stream(fam, seed, f"{k}-{mode}", mode)
            assert len(batched) == len(single) == len(fam)
            for a, b in zip(batched, single):
                assert np.array_equal(a.values, b.values)
    assert next(gens, None) is None


def _count_calls(monkeypatch, counts, owner, name):
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def calls(monkeypatch):
    """Calls of each exponent-free step of `carleson_sum` and `pythagoras_check`."""
    counts = collections.Counter()
    for owner, name in ((SparseFamily, "is_sparse"), (SparseFamily, "measure"),
                        (sparse, "_level_sums"), (sparse, "validate_adapted"),
                        (NormedSpace, "norm")):
        _count_calls(monkeypatch, counts, owner, name)
    return counts


def test_exponent_free_work_is_done_once_per_call(calls):
    fam, driver = random_family(11)
    fs = make_adapted(fam, 11, "reverse_cancellative")
    calls.clear()
    assert len(carleson_sum(fam, driver, PS)) == len(PS)
    assert calls == {"is_sparse": 1, "_level_sums": 1, "measure": len(fam), "norm": 1}
    calls.clear()
    assert len(pythagoras_check(fam, fs, PS, "reverse_cancellative")) == len(PS)
    assert calls == {"validate_adapted": 1, "norm": 1}


@pytest.mark.parametrize("ps", [[np.inf], [0.5], [1.0], [-2.0], [np.nan], [2.0, np.inf]])
def test_exponents_outside_one_to_infinity_are_rejected_before_any_work(calls, ps):
    """At p = inf these members of sup norm 5 and 7 used to give a power sum of 1."""
    half = SYS.cube(1, (0,))
    fam = SparseFamily(ROOT)
    fam.add(half, 0)
    outer = 5.0 * (indicator(ROOT).values - indicator(half).values)
    fs = [GridFunction(SYS, outer, SCALAR), GridFunction(SYS, 7.0 * indicator(half).values,
                                                         SCALAR)]
    bad = next(p for p in ps if not 1.0 < p < np.inf)
    for call in (lambda: carleson_sum(fam, fs[1], ps), lambda: pythagoras_check(fam, fs, ps)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"exponent {bad!r} is outside (1, inf)"
    assert not calls


def _chain_family():
    """ROOT, its left half and that half's left quarter, each the next one's parent."""
    fam = SparseFamily(ROOT)
    fam.add(SYS.cube(1, (0,)), 0)
    fam.add(SYS.cube(2, (0,)), 1)
    return fam


@pytest.mark.parametrize("spoil, message", [
    ({1: "uneven", 2: "outside"}, "member 1: not constant on a stopping child"),
    ({1: "outside", 0: "uneven"}, "member 0: not constant on a stopping child"),
    ({2: "outside", 1: "both"}, "member 1: function not supported on its cube"),
])
def test_first_failing_member_and_its_support_come_first(spoil, message):
    fam = _chain_family()
    values = [indicator(cube).values.copy() for cube in fam.cubes]
    for idx, how in spoil.items():
        if how in ("uneven", "both"):  # the last cell of the member's child
            values[idx][fam.cubes[fam.children[idx][0]].cell_slices()[0].stop - 1] += 1.0
        if how in ("outside", "both"):  # the cell just right of the member
            values[idx][fam.cubes[idx].cell_slices()[0].stop] += 1.0
    fs = [GridFunction(SYS, v, SCALAR) for v in values]
    for check in (validate_adapted, oracles.validate_adapted_per_cube):
        with pytest.raises(AdaptednessError) as err:
            check(fam, fs)
        assert str(err.value) == message


def test_adapted_sum_adds_members_in_member_order():
    """On the quarter, 1 + 1e-16 - 1 is 0 left to right but 1.1e-16 right to left;
    on the rest of the half the sum is 1 - 1."""
    fam = _chain_family()
    half, quarter = (indicator(cube).values for cube in fam.cubes[1:])
    middle = -half
    middle[fam.cubes[2].cell_slices()] = 1e-16
    fs = [GridFunction(SYS, v, SCALAR) for v in (half, middle, -quarter)]
    assert pythagoras_check(fam, fs, [2.0])[0].sum_norm == 0.0
    assert oracles.pythagoras_check_per_member(fam, fs, 2.0).sum_norm == 0.0


def test_validate_adapted_rejects_mixed_value_spaces():
    fam = SparseFamily(ROOT)
    fam.add(SYS.cube(1, (0,)), 0)
    fs = [indicator(ROOT), GridFunction(SYS, indicator(SYS.cube(1, (0,))).values,
                                        NormedSpace(1, 1.0))]
    with pytest.raises(AdaptednessError, match="member 1: value space differs"):
        validate_adapted(fam, fs)


def test_add_after_a_cached_owner_array_updates_exceptional_masks():
    fam = SparseFamily(ROOT)
    assert np.array_equal(fam.owner() == 0, indicator(ROOT).values[:, 0] == 1.0)
    owner = fam.owner()
    assert not owner.flags.writeable and fam.owner() is owner
    for cube, parent in ((SYS.cube(1, (1,)), 0), (SYS.cube(3, (4,)), 1), (SYS.cube(2, (0,)), 0)):
        fam.add(cube, parent)
        assert (fam.owner()[cube.cell_slices()] == len(fam) - 1).all()
        for idx in range(len(fam)):
            assert np.array_equal(fam.owner() == idx, oracles.exceptional_mask_per_cube(fam, idx))
    assert (fam.owner() == 1).sum() == 32 - 8


# -- Carleson -------------------------------------------------------------------------


def test_carleson_single_member():
    fam = SparseFamily(ROOT)
    res, = carleson_sum(fam, indicator(ROOT), [3.0])
    assert res.lhs == pytest.approx(1.0)
    assert res.ratio == pytest.approx(1.0)


def test_carleson_hand_computed_example():
    f = indicator(SYS.cube(2, (0,)))
    fam = build_stopping_family(f, ROOT)
    res, = carleson_sum(fam, f, [2.0])
    assert res.lhs**2 == pytest.approx(5.0 / 16.0)
    assert res.ratio == pytest.approx(np.sqrt(5.0) / 2.0)
    assert res.ratio <= res.stated_bound


def test_carleson_zero_function():
    fam = SparseFamily(ROOT)
    zero = GridFunction(SYS, np.zeros((SYS.cells_per_axis, 1)), SCALAR)
    assert carleson_sum(fam, zero, [2.0])[0].lhs == 0.0


def test_carleson_rejects_non_sparse_family():
    fam = SparseFamily(ROOT)
    for corner in (0, 1):
        fam.add(SYS.cube(1, (corner,)), 0)  # children exhaust the root
    with pytest.raises(SparsityError):
        carleson_sum(fam, indicator(ROOT), [2.0])


def test_member_keeping_exactly_half_its_cells_is_sparse():
    system = DyadicSystem(d=1, m_top=0, depth=2)
    fam = SparseFamily(system.cube(0, (0,)))
    fam.add(system.cube(1, (0,)), 0)  # one 2-cell child of the 4-cell root
    assert fam.is_sparse()


def test_member_keeping_exactly_half_its_weighted_measure_is_sparse():
    system = DyadicSystem(d=1, m_top=0, depth=2)
    root = system.cube(0, (0,))
    weights = np.ones(system.cells_per_axis)
    weights[root.cell_slices()] = [1.0, 3.0, 2.0, 2.0]  # quarter cells: root measure 2
    fam = SparseFamily(root, weights=weights)
    fam.add(system.cube(1, (0,)), 0)  # the child holds measure 1
    kept = float(weights[fam.owner() == 0].sum()) * system.cell_volume
    assert kept == 0.5 * fam.measure(fam.root) == 1.0
    assert fam.is_sparse()


def test_exact_half_is_sparse_without_the_tolerance(monkeypatch):
    """The rule is kept >= half of whole: with no tolerance, exactly half still counts."""
    monkeypatch.setattr(sparse, "_EXACT_TOL", 0.0)
    test_member_keeping_exactly_half_its_cells_is_sparse()
    test_member_keeping_exactly_half_its_weighted_measure_is_sparse()


def _hand_built(weights, members):
    """A family below the root of a depth-3 line of 8 root cells, `members` its
    (level, corner, parent) in order, `weights` None or the root cells' density."""
    system = DyadicSystem(d=1, m_top=0, depth=3)
    root = system.cube(0, (0,))
    density = None
    if weights is not None:
        density = np.ones(system.cells_per_axis)
        density[root.cell_slices()] = weights
    fam = SparseFamily(root, weights=density)
    for level, corner, parent in members:
        fam.add(system.cube(level, (corner,)), parent)
    return fam


SLIVER = 1e-9  # a density step far above the tolerance and far below a cell's measure


@pytest.mark.parametrize("weights, members, sparse_", [
    (None, [(1, 0, 0), (3, 4, 0)], False),  # the root keeps 3 of its 8 cells
    (None, [(2, 0, 0), (2, 2, 0)], True),  # the root keeps 4 of 8
    (None, [(1, 0, 0), (2, 0, 1)], True),  # 4 of 8, and the child 2 of 4
    (None, [(1, 0, 0), (2, 0, 1), (3, 4, 0)], False),  # 3 of 8: 4 + 1 below, not 2 + 1
    (None, [(2, 0, 0), (3, 0, 1), (2, 2, 0), (3, 4, 2), (3, 5, 2)], False),  # 0 of 2
    ([1.0] * 7 + [1.0 + 8 * SLIVER], [(1, 1, 0)], False),  # short by SLIVER / 2
    ([1.0] * 7 + [1.0 + SLIVER / 1000], [(1, 1, 0)], True),  # short within the tolerance
    ([1.0 + 8 * SLIVER] + [1.0] * 7, [(1, 1, 0)], True),
    ([3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], [(1, 1, 0), (3, 4, 1)], False),  # 6 of 14
])
def test_hand_built_families_decide_as_the_two_branch_rule(weights, members, sparse_):
    fam = _hand_built(weights, members)
    assert fam.is_sparse() == oracles.is_sparse_two_branch(fam) == sparse_


@given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 3.0]))
def test_carleson_bound_on_random_families(seed, p):
    fam, driver = random_family(seed)
    res, = carleson_sum(fam, driver, [p])
    if res.fnorm > 0:
        assert res.ratio <= 2.0 ** (1.0 / p) * conjugate_exponent(p) + 1e-9


@given(st.integers(0, 10**6))
def test_carleson_with_random_weights(seed):
    gen = substream(seed, "carleson-weights-test")
    weights = np.exp(gen.uniform(-1.0, 1.0, size=SYS.cells_per_axis))
    fam, driver = random_family(seed, weights=weights)
    assert fam.is_sparse()
    res, = carleson_sum(fam, driver, [2.0])
    if res.fnorm > 0:
        assert res.ratio <= res.stated_bound + 1e-9


# -- member projections --------------------------------------------------------------------


def test_projection_closed_form_example():
    f = indicator(SYS.cube(3, (0,)))
    fam = build_stopping_family(indicator(SYS.cube(2, (0,))), ROOT)
    out = project_onto_member(fam, ROOT, f)
    expected = (0.5 * indicator(SYS.cube(2, (0,))).values
                - 0.125 * indicator(ROOT).values)
    assert np.abs(out.values - expected).max() < 1e-14


def test_projection_of_member_constant_vanishes():
    fam, _ = random_family(1)
    f = indicator(fam.cubes[0])
    assert np.abs(project_onto_member(fam, ROOT, f).values).max() < 1e-14


def test_single_member_projection_recentres():
    fam = SparseFamily(ROOT)
    f = random_grid_function(SYS, 2)
    out = project_onto_member(fam, ROOT, f)
    masked = f.values * indicator(ROOT).values
    expected = masked - masked.mean(axis=0) * 2 * indicator(ROOT).values
    assert np.abs(out.values - expected).max() < 1e-12


@given(st.integers(0, 10**6))
def test_projection_formulas_agree(seed):
    fam, _ = random_family(seed)
    f = random_grid_function(SYS, seed, label="proj-agree")
    for cube in fam.cubes:
        a = project_onto_member(fam, cube, f)
        b = project_onto_member_haar(fam, cube, f)
        assert np.abs(a.values - b.values).max() < 1e-12


@given(st.integers(0, 10**6))
def test_projection_algebra(seed):
    fam, _ = random_family(seed)
    f = random_grid_function(SYS, seed, label="proj-algebra")
    g = random_grid_function(SYS, seed, label="proj-algebra-dual")
    first = fam.cubes[0]
    proj = project_onto_member(fam, first, f)
    again = project_onto_member(fam, first, proj)
    assert np.abs(again.values - proj.values).max() < 1e-12
    if len(fam) > 1:
        other = project_onto_member(fam, fam.cubes[1], proj)
        assert np.abs(other.values).max() < 1e-12
    assert pair(g, proj) == pytest.approx(
        pair(project_onto_member(fam, first, g), f), abs=1e-10)
    restricted = GridFunction(SYS, f.values * indicator(first).values, f.space)
    assert lp_norm(proj, 2.0) <= 2.0 * lp_norm(restricted, 2.0) + 1e-12


def test_projection_membership_error():
    fam = SparseFamily(ROOT)
    with pytest.raises(KeyError):
        project_onto_member(fam, SYS.cube(1, (0,)), indicator(ROOT))


# -- adapted sums --------------------------------------------------------------------------


def make_adapted(fam, seed, mode):
    out = []
    for idx in range(len(fam)):
        gen = substream(seed, "adapted", idx)
        vals = np.zeros((SYS.cells_per_axis, 1))
        mask = fam.owner() == idx
        vals[mask] = gen.standard_normal((int(mask.sum()), 1))
        for child in fam.children[idx]:
            vals[fam.cubes[child].cell_slices()] = gen.standard_normal()
        if mode == "reverse_nonneg":
            vals = np.abs(vals)
        f = GridFunction(SYS, vals, SCALAR)
        if mode == "reverse_cancellative":
            cube = fam.cubes[idx]
            adj = np.array(f.values)
            adj[cube.cell_slices()] -= fam.weighted_average(f.values, cube)
            f = GridFunction(SYS, adj, SCALAR)
        out.append(f)
    return out


def test_single_member_ratios_are_one():
    fam = SparseFamily(ROOT)
    f = random_grid_function(SYS, 3, support=ROOT)
    res, = pythagoras_check(fam, [f], [2.0])
    assert res.direct_ratio == pytest.approx(1.0)
    assert res.reverse_ratio == pytest.approx(1.0)


def test_counterexample_reproduces_exactly():
    half = SYS.cube(1, (0,))
    fam = SparseFamily(ROOT)
    fam.add(half, 0)
    fs = [indicator(half), GridFunction(SYS, -indicator(half).values, SCALAR)]
    res, = pythagoras_check(fam, fs, [2.0], "direct")
    assert res.sum_norm == 0.0
    assert res.power_sum_root**2 == pytest.approx(2 * 0.5)  # two times |S_-|
    assert res.reverse_ratio == np.inf
    for mode in ("reverse_cancellative", "reverse_nonneg"):
        with pytest.raises(AdaptednessError):
            pythagoras_check(fam, fs, [2.0], mode)


def test_member_integral_of_one_millionth_is_not_cancellative():
    system = DyadicSystem(d=1, m_top=0, depth=2)
    root = system.cube(0, (0,))
    fam = SparseFamily(root)
    f = GridFunction(system, 1e-6 * indicator(root).values, SCALAR)  # integral 1e-6
    with pytest.raises(AdaptednessError, match="member 0: nonzero integral"):
        pythagoras_check(fam, [f], [2.0], "reverse_cancellative")


def test_adaptedness_is_enforced():
    fam = SparseFamily(ROOT)
    stray = indicator(SYS.cube(1, (-1,)))  # supported off the root
    with pytest.raises(AdaptednessError):
        pythagoras_check(fam, [stray], [2.0])


@given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 3.0]))
def test_direct_and_reverse_bounds(seed, p):
    fam, _ = random_family(seed)
    direct, = pythagoras_check(fam, make_adapted(fam, seed, "direct"), [p], "direct")
    assert direct.direct_ratio <= direct.direct_bound + 1e-9
    cancel, = pythagoras_check(fam, make_adapted(fam, seed, "reverse_cancellative"),
                               [p], "reverse_cancellative")
    if cancel.sum_norm > 0:
        assert cancel.reverse_ratio <= cancel.reverse_bound + 1e-9
    nonneg, = pythagoras_check(fam, make_adapted(fam, seed, "reverse_nonneg"),
                               [p], "reverse_nonneg")
    if nonneg.sum_norm > 0:
        assert nonneg.reverse_ratio <= nonneg.reverse_bound + 1e-9


def test_export_records_format():
    fam = build_stopping_family(indicator(SYS.cube(2, (0,))), ROOT)
    lines = fam.export_records().strip().splitlines()
    assert lines[0] == "0 0 -1"
    assert lines[1] == "2 0 0"


def test_lebesgue_density_is_built_once_and_read_only():
    family = SparseFamily(ROOT)
    dens = family.density()
    assert dens is family.density()
    assert dens.shape == (SYS.cells_per_axis,) and (dens == 1.0).all()
    assert not dens.flags.writeable
    weights = np.linspace(0.5, 1.5, SYS.cells_per_axis)
    assert SparseFamily(ROOT, weights=weights).density() is weights


def test_list_density_decides_as_the_same_array():
    """The density is kept as the array that was checked, so a list works as well."""
    system = DyadicSystem(d=1, m_top=0, depth=3)
    root = system.cube(0, (0,))
    density = [1.0, 3.0, 2.0, 2.0, 0.5, 1.5, 1.0, 4.0] * (system.cells_per_axis // 8)
    values = np.arange(2.0 * system.cells_per_axis).reshape(-1, 2)
    families = []
    for weights in (density, np.array(density)):
        fam = SparseFamily(root, weights=weights)
        fam.add(system.cube(1, (0,)), 0)
        fam.add(system.cube(3, (6,)), 0)
        families.append(fam)
    listed, arrayed = families
    assert listed.is_sparse() == arrayed.is_sparse()
    for cube in listed.cubes:
        assert listed.measure(cube) == arrayed.measure(cube)
        assert np.array_equal(listed.weighted_average(values, cube),
                              arrayed.weighted_average(values, cube))


@pytest.mark.parametrize("make_weights", [
    lambda c: np.ones(c),
    lambda c: np.ones((c, c + 1)),
    lambda c: np.full((c, c), np.nan),
    lambda c: np.full((c, c), np.inf),
    lambda c: -np.ones((c, c)),
], ids=["wrong-ndim", "wrong-length", "nan", "inf", "negative"])
def test_bad_weights_are_rejected(make_weights):
    sysm = DyadicSystem(d=2, m_top=0, depth=2)
    with pytest.raises(ValueError, match="weights must be"):
        SparseFamily(sysm.cube(0, (0, 0)), weights=make_weights(sysm.cells_per_axis))
