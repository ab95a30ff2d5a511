"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way (plain loops, explicit
enumerations, dense matrices) so it shares no code path with the package
routines it checks.
"""

import itertools

import numpy as np

from dyadiclab.gridfn import haar_vector


def brute_rademacher_pnorm(elements, p, norm_fn):
    """Mean over all sign patterns via explicit loops."""
    elements = [np.asarray(e, dtype=float) for e in elements]
    total = 0.0
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=len(elements)):
        vec = sum(s * e for s, e in zip(signs, elements))
        total += float(norm_fn(vec)) ** p
        count += 1
    return (total / count) ** (1.0 / p)


def dense_projection_matrix(root, gap, n_cells):
    """Dense matrix of the sum of Haar projections `gap` levels below root."""
    matrix = np.zeros((n_cells, n_cells))
    sl = root.cell_slices()[0]
    fine = root.size_cells >> (gap + 1)
    coarse = root.size_cells >> gap
    for start in range(sl.start, sl.stop, fine):
        matrix[start:start + fine, start:start + fine] += 1.0 / fine
    for start in range(sl.start, sl.stop, coarse):
        matrix[start:start + coarse, start:start + coarse] -= 1.0 / coarse
    return matrix


def dense_averaging_matrix(cube, table, block_level, system):
    """Dense matrix of an averaging block from its kernel table."""
    n = system.cells_per_axis
    matrix = np.zeros((n, n))
    cells = 1 << (system.depth - block_level)
    sl = cube.cell_slices()[0]
    blocks = cube.size_cells // cells
    cellvol = system.cell_volume
    for bo in range(blocks):
        for bi in range(blocks):
            rows = slice(sl.start + bo * cells, sl.start + (bo + 1) * cells)
            cols = slice(sl.start + bi * cells, sl.start + (bi + 1) * cells)
            matrix[rows, cols] = table[bo, bi] * cellvol / cube.volume
    return matrix


def dense_shift_matrix(spec):
    """Dense matrix of a one-dimensional dyadic shift, by composing factors."""
    system = spec.system
    n = system.cells_per_axis
    total = np.zeros((n, n))
    for level in spec.level_range():
        for cube in system.cubes_at_level(level):
            proj_in = dense_projection_matrix(cube, spec.i, n)
            proj_out = dense_projection_matrix(cube, spec.j, n)
            table = spec.kernel.table(cube, spec.blocks_per_axis())
            avg = dense_averaging_matrix(cube, table, cube.level + spec.block_gap,
                                         system)
            total += proj_out @ avg @ proj_in
    return total


def shift_cells_by_bits(system, level):
    """Translation of level-`level` cubes, summing the finer bits one by one."""
    shift = np.zeros(system.d, dtype=np.int64)
    for j in range(level + 1, system.depth + 1):
        shift += (1 << (system.depth - j)) * np.asarray(system.bit(j), dtype=np.int64)
    return shift


def start_cells_array(system, level, corner):
    """First finest cell per axis of the cube with this level and corner."""
    size = 1 << (system.depth - level)
    corner = np.asarray(corner, dtype=np.int64)
    return corner * size + system.origin_cell + shift_cells_by_bits(system, level)


def inside_ambient(system, level, corner):
    start = start_cells_array(system, level, corner)
    size = 1 << (system.depth - level)
    return bool(np.all(start >= 0) and np.all(start + size <= system.cells_per_axis))


def contains_cube_array(outer, inner):
    a = start_cells_array(outer.system, outer.level, outer.corner)
    b = start_cells_array(inner.system, inner.level, inner.corner)
    return bool(np.all(a <= b) and np.all(b + inner.size_cells <= a + outer.size_cells))


def parent_corner_by_cells(cube):
    """Corner of the level-1 cube covering the cube's first cell."""
    system, level = cube.system, cube.level - 1
    size = 1 << (system.depth - level)
    start = start_cells_array(system, cube.level, cube.corner)
    base = system.origin_cell + shift_cells_by_bits(system, level)
    return tuple(int(c) for c in (start - base) // size)


def child_corners_by_cells(cube):
    """Corners of the level+1 cubes that tile the cube, found from cell offsets."""
    system, level = cube.system, cube.level + 1
    size = 1 << (system.depth - level)
    start = start_cells_array(system, cube.level, cube.corner)
    base = system.origin_cell + shift_cells_by_bits(system, level)
    corners = []
    for offs in itertools.product((0, 1), repeat=system.d):
        rel = start + size * np.asarray(offs, dtype=np.int64) - base
        assert np.all(rel % size == 0)
        corners.append(tuple(int(c) for c in rel // size))
    return sorted(corners)


def offset_units(cube, s):
    """Offset of the cube inside its s-generation ancestor, in side units."""
    system = cube.system
    u = np.zeros(system.d, dtype=np.int64)
    for t in range(s):
        u += (1 << t) * np.asarray(system.bit(cube.level - t), dtype=np.int64)
    m = np.asarray(cube.corner, dtype=np.int64)
    return (m - u) % (1 << s)


def is_good_by_offsets(cube, params):
    """Goodness from per-gap offset arrays, gap by gap from scratch."""
    floor = cube.system.min_level
    if params.max_ancestor_level is not None:
        floor = max(floor, params.max_ancestor_level)
    s_hi = cube.level - floor
    if params.max_generations is not None:
        s_hi = min(s_hi, params.max_generations)
    for s in range(params.r, s_hi + 1):
        o = offset_units(cube, s)
        dist_units = int(np.min(np.minimum(o, (1 << s) - 1 - o)))
        if not dist_units > 2.0 ** (s * (1.0 - params.gamma)) + 1e-12:
            return False
    return True


def haar_coefficient_by_eval(f, cube, eta):
    """Coefficient via pointwise Haar values, no pyramid."""
    h = haar_vector(cube, eta)
    return (h[..., None] * f.values).sum(axis=tuple(range(f.system.d))) * \
        f.system.cell_volume


def decoupled_pnorm_full_product(family, p):
    """Decoupled norm by enumerating the full product space of child choices."""
    h = family.hierarchy
    actives = h.active_atoms()
    choice_space = [range(len(kids)) for (_, _, kids) in actives]
    total = 0.0
    n_eps = 1 << len(actives)
    for eps_word in range(n_eps):
        eps = [1.0 - 2.0 * ((eps_word >> t) & 1) for t in range(len(actives))]
        for choices in itertools.product(*choice_space):
            prob = 1.0
            cellvals = np.zeros((h.n_cells, family.space.dim))
            for t, ((level, atom, kids), c) in enumerate(zip(actives, choices)):
                kids_sorted = sorted(kids)
                mu = np.array([h.atom_weight(k) for k in kids_sorted])
                prob *= mu[c] / mu.sum()
                order = sorted(range(len(kids)), key=lambda k: kids[k])
                val = np.asarray(family.values[(level, atom)])[order][c]
                cellvals[list(atom)] += eps[t] * val
            norms = family.space.norm(cellvals)
            total += prob / n_eps * float((norms**p * h.cell_weights).sum())
    return total ** (1.0 / p)
