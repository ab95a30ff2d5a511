"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way (plain loops, explicit
enumerations, dense matrices) so it shares no code path with the package
routines it checks.
"""

import itertools

import numpy as np

from dyadiclab.errors import (AdaptednessError, AmbientRangeError, DegenerateInputError,
                              MeshDepthError, SparsityError)
from dyadiclab.grid import DyadicSystem, goodness_probability, is_good
from dyadiclab.gridfn import (GridFunction, _block_means, _expand_blocks,
                              conditional_expectation, cube_average, etas, fill_haar_frame,
                              haar_block, haar_coefficient, haar_frame, haar_vector, pair)
from dyadiclab.rademacher import (OperatorFamily, _power_iteration_vector, sign_average,
                                  sign_patterns)
from dyadiclab.representation import (AveragingIdentityReport, DecayReport,
                                      PairingDecomposition, _case_constraints,
                                      _support_box, decay_slope_target,
                                      extract_paraproducts, matrix_element, raw_pairing)
from dyadiclab.rng import substream
from dyadiclab.shifts import ParaproductSpec, apply_paraproduct
from dyadiclab.space import SCALAR, NormedSpace, conjugate_exponent
from dyadiclab.sparse import _EXACT_TOL, CarlesonResult, PythagorasResult, SparseFamily


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


def rademacher_pnorm(elements, p, space=None):
    """(E |sum_n eps_n e_n|^p)^(1/p) over all 2^n sign patterns, as a float,
    from `rademacher.sign_average`."""
    elements = np.atleast_2d(np.asarray(elements, dtype=float))
    if elements.shape[0] < 1:
        raise DegenerateInputError("need at least one element")
    if space is None:
        space = NormedSpace(elements.shape[1], 2.0)
    return float(sign_average(elements, p, space)) ** (1.0 / p)


def _signed_sum_pnorm(elements, p, space):
    """(E |sum_n eps_n e_n|^p)^(1/p) from an explicitly listed sign table."""
    n = len(elements)
    signs = np.array([[1.0 - 2.0 * ((r >> j) & 1) for j in range(n)] for r in range(1 << n)])
    return float((space.norm(signs @ np.stack(elements)) ** p).mean()) ** (1.0 / p)


def per_assignment_rbound_probe(family, p, budget, seed, extra_assignments=()):
    """`rademacher.rbound_probe` scoring one assignment at a time, in draw order."""
    dim = family.space.dim
    best = 0.0

    def try_assignment(assignment):
        nonlocal best
        if len(assignment) == 0:
            return
        elems = [np.asarray(e, dtype=float) for _, e in assignment]
        den = _signed_sum_pnorm(elems, p, family.space)
        if den != 0.0:
            outs = [family.operators[k] @ e for (k, _), e in zip(assignment, elems)]
            best = max(best, _signed_sum_pnorm(outs, p, family.space) / den)

    for k, op in enumerate(family.operators):
        for ax in range(dim):
            e = np.zeros(dim)
            e[ax] = 1.0
            try_assignment([(k, e)])
        v = _power_iteration_vector(op, substream(seed, "probe-power", k))
        try_assignment([(k, v)])
    for t in range(budget):
        gen = substream(seed, "probe-trial", t)
        n = int(gen.integers(1, 5))
        ks = gen.integers(0, len(family), size=n)
        es = gen.standard_normal((n, dim))
        try_assignment(list(zip(ks.tolist(), es)))
    for assignment in extra_assignments:
        try_assignment(assignment)
    return best


def scalar_family(values, space=SCALAR):
    """Multiples of the identity on `space`, one operator per value."""
    eye = np.eye(space.dim)
    return OperatorFamily(tuple(float(v) * eye for v in values), space)


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


def _shift_term_blocks(spec, cube, f_view):
    """One K term of the shift, as block values at the kernel resolution."""
    d, n = spec.system.d, spec.space.dim
    gap = spec.block_gap
    b_axis = 1 << gap

    def means_at(g):
        return _block_means(f_view, d, cube.size_cells >> g)

    def blocks_at(arr, g):
        return _expand_blocks(arr, d, 1 << (gap - g))

    proj_in = blocks_at(means_at(spec.i + 1), spec.i + 1) - blocks_at(means_at(spec.i), spec.i)
    table = spec.kernel.table(cube, b_axis**d)
    integrals = proj_in.reshape(-1, n) * (cube.volume / b_axis**d)
    if table.ndim == 2:
        averaged = (table @ integrals) / cube.volume
    else:
        averaged = np.einsum("oibc,ic->ob", table, integrals) / cube.volume
    averaged = averaged.reshape((b_axis,) * d + (n,))

    def block_group_means(arr, g):
        return blocks_at(_block_means(arr, d, 1 << (gap - g)), g)

    return block_group_means(averaged, spec.j + 1) - block_group_means(averaged, spec.j)


def apply_shift_per_cube(spec, f):
    """The shift cube by cube, drawing each cube's table from the kernel."""
    d = spec.system.d
    out = np.zeros_like(f.values)
    for level in spec.level_range():
        for cube in spec.system.cubes_at_level(level):
            view = f.values[cube.cell_slices()]
            blocks = _shift_term_blocks(spec, cube, view)
            factor = cube.size_cells >> spec.block_gap
            out[cube.cell_slices()] += _expand_blocks(blocks, d, factor)
    return GridFunction(spec.system, out, spec.space)


def apply_paraproduct_per_level(spec, f):
    """The paraproduct with both conditional expectations of the symbol
    taken afresh at every level."""
    b, sysm = spec.b, spec.b.system
    n = f.space.dim
    matrix_symbol = b.space.dim == n * n and n > 1
    mask = None
    if spec.root is not None:
        mask = np.zeros(f.values.shape[:-1], dtype=bool)
        mask[spec.root.cell_slices()] = True
    out = np.zeros_like(f.values)
    for level in spec.level_range():
        proj = (conditional_expectation(b, level + 1).values
                - conditional_expectation(b, level).values)
        avg = conditional_expectation(f, level).values
        if matrix_symbol:
            term = np.einsum("...bc,...c->...b",
                             proj.reshape(proj.shape[:-1] + (n, n)), avg)
        else:
            term = proj * avg
        if mask is not None:
            term = np.where(mask[..., None], term, 0.0)
        out += term
    return GridFunction(sysm, out, f.space)


# -- random data ----------------------------------------------------------------------


def random_grid_function_by_mode(system, seed, space=SCALAR, support=None, mean_zero=None,
                                 label="grid-function"):
    """`gridfn.random_grid_function` with one centring branch per mode: per
    top cube by `cube_average` or a support mask of its own, or globally."""
    gen = substream(seed, label)
    shape = (system.cells_per_axis,) * system.d + (space.dim,)
    vals = np.zeros(shape)
    if support is None:
        vals[...] = gen.standard_normal(shape)
    else:
        sl = support.cell_slices()
        vals[sl] = gen.standard_normal(vals[sl].shape)
    if mean_zero == "per_top":
        f = GridFunction(system, vals, space)
        out = np.array(vals)
        for q in system.top_cubes():
            sl = q.cell_slices()
            if support is not None:
                mask = np.zeros(shape[:-1], dtype=bool)
                mask[support.cell_slices()] = True
                submask = mask[sl]
                if not submask.any():
                    continue
                sub = out[sl]
                sub[submask] -= sub[submask].mean(axis=0)
                out[sl] = sub
            else:
                out[sl] -= cube_average(f, q)
        vals = out
    elif mean_zero == "global":
        mask = np.ones(shape[:-1], dtype=bool)
        if support is not None:
            mask[...] = False
            mask[support.cell_slices()] = True
        vals[mask] -= vals[mask].mean(axis=0)
    return GridFunction(system, vals, space)


# -- block means and mean oscillation ----------------------------------------------


def block_means_by_mean(arr, d, factor):
    """`gridfn._block_means` by `ndarray.mean` over the block axes."""
    if factor == 1:
        return arr
    split = [x for b in arr.shape[:d] for x in (b // factor, factor)]
    return arr.reshape(*split, arr.shape[-1]).mean(axis=tuple(range(1, 2 * d, 2)))


def bmo_norm_per_exponent(b, p):
    """`gridfn.bmo_norm` of one exponent, each level's deviations taken afresh,
    with `block_means_by_mean`."""
    sysm = b.system
    best = 0.0
    for level in range(sysm.min_level, sysm.depth + 1):
        if any(sysm.shift_cells(level)):
            raise ValueError(f"level {level} of this system is not cell-grid aligned")
        factor = 1 << (sysm.depth - level)
        means = _expand_blocks(block_means_by_mean(b.values, sysm.d, factor), sysm.d, factor)
        dev = b.space.norm(b.values - means)
        if p == np.inf:
            val = float(dev.max())
        else:
            val = float(block_means_by_mean((dev**p)[..., None], sysm.d, factor).max()) \
                ** (1.0 / p)
        best = max(best, val)
    return best


# -- per-cube projections ----------------------------------------------------------


def shifted_projection(f, root, gap):
    """Sum of Haar projections over the subcubes `gap` generations below root."""
    if root.level + gap + 1 > f.system.depth:
        raise MeshDepthError(f"gap {gap} below level {root.level} leaves the mesh")
    d = f.system.d
    view = f.values[root.cell_slices()]
    fine = root.size_cells >> (gap + 1)
    coarse = root.size_cells >> gap
    delta = (_expand_blocks(_block_means(view, d, fine), d, fine)
             - _expand_blocks(_block_means(view, d, coarse), d, coarse))
    out = np.zeros_like(f.values)
    out[root.cell_slices()] = delta
    return GridFunction(f.system, out, f.space)


def _weighted_haar_projection(family, f, cube):
    kids = cube.children()
    out = np.zeros_like(f.values)
    for kid in kids:
        out[kid.cell_slices()] = family.weighted_average(f.values, kid)
    onto = family.weighted_average(f.values, cube)
    sl = cube.cell_slices()
    out[sl] -= onto
    full = np.zeros_like(f.values)
    full[sl] = out[sl]
    return full


def member_index(family, cube):
    """Position of `cube` in the family's member list, found by key."""
    keys = [member.key() for member in family.cubes]
    if cube.key() not in keys:
        raise KeyError(f"cube {cube.key()} is not a member of the family")
    return keys.index(cube.key())


def project_onto_member_haar(family, member, f):
    """`project_onto_member` as the sum of measure-weighted Haar
    projections over the cubes with this minimal member."""
    idx = member_index(family, member)
    child_cubes = [family.cubes[c] for c in family.children[idx]]
    depth = f.system.depth
    out = np.zeros_like(f.values)
    stack = [family.cubes[idx]]
    while stack:
        cube = stack.pop()
        if any(kid.contains_cube(cube) or kid.key() == cube.key() for kid in child_cubes):
            continue
        if cube.level >= depth:
            continue
        out += _weighted_haar_projection(family, f, cube)
        stack.extend(cube.children())
    return GridFunction(f.system, out, f.space)


def common_ancestor(a, b):
    """Minimal cube of the shared system containing both `a` and `b`, by
    climbing parents."""
    if a.system != b.system:
        raise ValueError("cubes belong to different systems")
    while a.level > b.level:
        a = a.parent()
    while b.level > a.level:
        b = b.parent()
    while a.corner != b.corner:
        if a.level <= a.system.min_level:
            raise AmbientRangeError("no common ancestor inside the ambient")
        a, b = a.parent(), b.parent()
    return a


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
    s_hi = cube.level - cube.system.min_level
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


def haar_coefficient_by_child_loop(f, cube, eta):
    """Coefficient by a loop over the children in row-major order, adding sign times
    child mean times child volume to a zero vector."""
    d = f.system.d
    view = f.values[cube.cell_slices()]
    if cube.size_cells == 1:
        if any(eta):
            raise MeshDepthError("oscillating Haar function needs children")
        return view.reshape(f.space.dim) * cube.volume**0.5
    kid_means = _block_means(view, d, cube.size_cells // 2)
    coeff = np.zeros(f.space.dim)
    child_vol = cube.volume / 2**d
    for offs in itertools.product((0, 1), repeat=d):
        sign = -1 if sum(e * c for e, c in zip(eta, offs)) % 2 else 1
        coeff += sign * kid_means[offs] * child_vol
    return coeff * cube.volume**-0.5


def children_by_scan(h, level, atom):
    """The next level's atoms inside `atom`, by set inclusion, in level order."""
    cells = set(atom)
    return [a for a in h.levels[level + 1] if set(a) <= cells]


def active_atoms_by_scan(h):
    """(level, atom, children) for every atom above the finest level."""
    return [(level, atom, children_by_scan(h, level, atom))
            for level in range(len(h.levels) - 1) for atom in h.levels[level]]


def chain_through_by_scan(h, cell):
    """(level, atom, children) for the atoms holding `cell`, coarse to fine."""
    chain = []
    for level in range(len(h.levels) - 1):
        for atom in h.levels[level]:
            if cell in atom:
                chain.append((level, atom, children_by_scan(h, level, atom)))
                break
    return chain


def recovery_violation(uv):
    """Max deviation of (symmetric + antisymmetric) from the base difference,
    and of (symmetric - antisymmetric) from the decoupled copy."""
    worst = 0.0
    for (level, atom, _, _) in uv.family.hierarchy.active_atoms():
        vals = np.asarray(uv.family.values[(level, atom)])
        u = uv.symmetric[(level, atom)]
        v = uv.antisymmetric[(level, atom)]
        worst = max(worst, float(np.abs(u + v - vals[:, None, :]).max()),
                    float(np.abs(u - v - vals[None, :, :]).max()))
    return worst


def check_mds_per_stream(uv, test_functions, seed):
    """`decoupling.check_mds` with one `substream` per (level, test function)."""
    h = uv.family.hierarchy
    dim = uv.family.space.dim
    tests = {}
    for level in range(len(h.levels) - 1):
        tests[level] = []
        for t in range(test_functions):
            gen = substream(seed, "mds-test", level, t)
            tests[level].append((gen.standard_normal(dim), gen.standard_normal(4)))
    worst = 0.0
    for (level, atom, _, mu) in h.active_atoms():
        nu = mu / mu.sum()
        u = uv.symmetric[(level, atom)]
        v = uv.antisymmetric[(level, atom)]
        weight = mu[:, None] * nu[None, :]
        worst = max(worst, float(np.abs(np.tensordot(weight, u, axes=([0, 1], [0, 1]))).max()))
        for proj, coef in tests[level]:
            z = u @ proj
            phi = coef[0] + coef[1] * z + coef[2] * z**2 + coef[3] * z**3
            integrals = np.tensordot(weight * phi, v, axes=([0, 1], [0, 1]))
            worst = max(worst, float(np.abs(integrals).max()))
    return worst


def decoupled_pnorm_full_product(family, p):
    """Decoupled norm by enumerating the full product space of child choices."""
    h = family.hierarchy
    actives = active_atoms_by_scan(h)
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


def decoupled_pnorm_per_choice(family, p):
    """Decoupled norm cell by cell, one signed sum per child-choice tuple."""
    h = family.hierarchy
    total = 0.0
    for cell in range(h.n_cells):
        chain = h.chain_through(cell)
        if not chain:
            continue
        signs = sign_patterns(len(chain))
        tables = [np.asarray(family.values[(level, atom)]) for (level, atom, _, _) in chain]
        probs = [mu / mu.sum() for (_, _, _, mu) in chain]
        acc = 0.0
        for choice in itertools.product(*[range(len(kids)) for (_, _, kids, _) in chain]):
            prob = float(np.prod([pr[c] for pr, c in zip(probs, choice)]))
            stack = np.stack([tab[c] for tab, c in zip(tables, choice)])
            acc += prob * float((family.space.norm(signs @ stack) ** p).mean())
        total += acc * h.cell_weights[cell]
    return total ** (1.0 / p)


# -- Haar matrix elements from full-length dense vectors ------------------------


def flat_haar(cube, eta):
    return haar_vector(cube, eta).reshape(-1)


def nested_left_vector(J, etaJ, I):
    """1 off the child of J containing I, times (h_J minus its value there)."""
    child = I
    while child.level > J.level + 1:
        child = child.parent()
    h = haar_vector(J, etaJ)
    value = h[tuple(s.start for s in child.cell_slices())]
    w = h - value
    w[child.cell_slices()] = 0.0
    return w.reshape(-1)


def matrix_element_dense(T, J, etaJ, I, etaI, convention="raw"):
    """<h_J, T h_I> from two full-length vectors and a full mat-vec."""
    vol = T.system.cell_volume
    if convention == "raw":
        return float(vol * flat_haar(J, etaJ) @ (T.matrix @ flat_haar(I, etaI)))
    if convention != "paraproduct_extracted":
        raise ValueError(f"unknown convention {convention!r}")
    if J.level < I.level and J.contains_cube(I):
        left = nested_left_vector(J, etaJ, I)
        return float(vol * left @ (T.matrix @ flat_haar(I, etaI)))
    if I.level < J.level and I.contains_cube(J):
        right = nested_left_vector(I, etaI, J)
        return float(vol * flat_haar(J, etaJ) @ (T.matrix @ right))
    return float(vol * flat_haar(J, etaJ) @ (T.matrix @ flat_haar(I, etaI)))


# -- paraproduct extraction by stacked Haar vectors ------------------------------


def standard_cubes(system, level_lo, level_hi, within=None):
    return [cube for level in range(level_lo, level_hi + 1)
            for cube in system.cubes_at_level(level, within=within)]


def extract_paraproducts_dense(T, level_lo, level_hi):
    sysm = T.system
    vol = sysm.cell_volume
    col_sums = vol * T.matrix.sum(axis=0)
    row_sums = vol * T.matrix.sum(axis=1)
    toward_argument, toward_dual = {}, {}
    for cube in standard_cubes(sysm, level_lo, level_hi):
        for eta in etas(sysm.d):
            h = flat_haar(cube, eta)
            toward_dual[cube.key() + (eta,)] = float(col_sums @ h)
            toward_argument[cube.key() + (eta,)] = float(row_sums @ h)
    return toward_argument, toward_dual


def synthesize_symbol_dense(system, table, level_lo, level_hi):
    vals = np.zeros((system.cells_per_axis,) * system.d)
    for cube in standard_cubes(system, level_lo, level_hi):
        for eta in etas(system.d):
            coeff = table.get(cube.key() + (eta,), 0.0)
            if coeff:
                vals += coeff * haar_vector(cube, eta)
    return GridFunction(system, vals[..., None])


def pairing_decomposition_dense(T, g, f, level_lo, level_hi):
    """Raw and extracted double Haar sums from a stacked frame, one
    extracted entry per ancestor pair from its own dense vector."""
    sysm = T.system
    vol = sysm.cell_volume
    cols = [(cube, eta) for cube in standard_cubes(sysm, level_lo, level_hi)
            for eta in etas(sysm.d)]
    H = np.stack([flat_haar(cube, eta) for cube, eta in cols], axis=1)
    cf = np.array([haar_coefficient(f, cube, eta)[0] for cube, eta in cols])
    cg = np.array([haar_coefficient(g, cube, eta)[0] for cube, eta in cols])
    U = T.matrix @ H
    V = T.matrix.T @ H
    elements = vol * (H.T @ U)
    raw_sum = float(cg @ elements @ cf)
    ext = elements.copy()
    index = {key: n for n, key in enumerate(cols)}
    for nI, (I, etaI) in enumerate(cols):
        anc = I
        while anc.level > level_lo:
            anc = anc.parent()
            for etaJ in etas(sysm.d):
                nJ = index[(anc, etaJ)]
                w = nested_left_vector(anc, etaJ, I)
                ext[nJ, nI] = vol * w @ U[:, nI]
                ext[nI, nJ] = vol * w @ V[:, nI]
    extracted_sum = float(cg @ ext @ cf)
    toward_argument, toward_dual = extract_paraproducts_dense(T, level_lo, level_hi)
    b_arg = synthesize_symbol_dense(sysm, toward_argument, level_lo, level_hi)
    b_dual = synthesize_symbol_dense(sysm, toward_dual, level_lo, level_hi)
    levels = (level_lo, level_hi)
    para_arg = pair(g, apply_paraproduct(ParaproductSpec(b_arg, levels), f))
    para_dual = pair(f, apply_paraproduct(ParaproductSpec(b_dual, levels), g))
    return PairingDecomposition(raw_pairing(g, T, f), raw_sum, extracted_sum,
                                para_arg, para_dual)


def synthesize_symbol(system, table, level_lo, level_hi):
    """Grid function whose Haar coefficients in the range equal the table,
    from its own per-level Haar frame."""
    cols, H = haar_frame(system, level_lo, level_hi)
    coeffs = np.array([table.get(cube.key() + (eta,), 0.0) for cube, eta in cols])
    vals = (H @ coeffs).reshape((system.cells_per_axis,) * system.d)
    return GridFunction(system, vals[..., None])


def pairing_decomposition_per_pair(T, g, f, level_lo, level_hi):
    """`representation.pairing_decomposition` for one (g, f), redoing the
    frame, the elements, the symbol tables and the ancestor nest."""
    sysm = T.system
    if any(sysm.shift_cells(level_lo)):
        raise ValueError(f"level {level_lo} of this system is translated; "
                         "pairing_decomposition needs cell-aligned levels")
    vol = sysm.cell_volume
    cols, H = haar_frame(sysm, level_lo, level_hi)
    cf = vol * (H.T @ f.scalar_values().reshape(-1))
    cg = vol * (H.T @ g.scalar_values().reshape(-1))
    elements = vol * (H.T @ (T.matrix @ H))
    raw_sum = float(cg @ elements @ cf)

    toward_argument, toward_dual = extract_paraproducts(T, level_lo, level_hi)
    keys = [cube.key() + (eta,) for cube, eta in cols]
    col_sym = np.array([toward_dual[key] for key in keys])
    row_sym = np.array([toward_argument[key] for key in keys])
    index = {key: n for n, key in enumerate(keys)}
    firsts = np.ravel_multi_index(np.array([cube.start_cells() for cube, _ in cols]).T,
                                  (sysm.cells_per_axis,) * sysm.d)
    outer, inner = [], []
    for nI, (I, _) in enumerate(cols):
        anc = I
        while anc.level > level_lo:
            anc = anc.parent()
            for eta in etas(sysm.d):
                outer.append(index[anc.key() + (eta,)])
                inner.append(nI)
    vals = H[firsts[inner], outer]
    ext = elements.copy()
    ext[outer, inner] -= vals * col_sym[inner]
    ext[inner, outer] -= vals * row_sym[inner]
    extracted_sum = float(cg @ ext @ cf)

    b_arg = synthesize_symbol(sysm, toward_argument, level_lo, level_hi)
    b_dual = synthesize_symbol(sysm, toward_dual, level_lo, level_hi)
    levels = (level_lo, level_hi)
    para_arg = pair(g, apply_paraproduct_per_level(ParaproductSpec(b_arg, levels), f))
    para_dual = pair(f, apply_paraproduct_per_level(ParaproductSpec(b_dual, levels), g))
    return PairingDecomposition(raw_pairing(g, T, f), raw_sum, extracted_sum,
                                para_arg, para_dual)


# -- decay scan and shift coefficients, cube by cube ---------------------------------


def descendants(cube, generations):
    out = [cube]
    for _ in range(generations):
        out = [kid for parent in out for kid in parent.children()]
    return out


def shift_coefficients(T, K, i, j, params):
    """Kernel table of the (i, j) shift block at K, from Haar matrix elements.

    Blocks live max(i, j) + 1 generations below K; entry (output block,
    input block) sums |K| h_J(out) h_I(in) <h_J, T h_I> over the pairs
    whose minimal common ancestor is K, with the smaller cube good and
    nested pairs taken in the extracted convention.
    """
    sysm = T.system
    gap = max(i, j) + 1
    if K.level + gap > sysm.depth:
        raise MeshDepthError("shift block resolution exceeds the mesh")
    b_axis = 1 << gap
    blocks = b_axis**sysm.d
    block_cells = K.size_cells >> gap
    table = np.zeros((blocks, blocks))

    def block_range(cube):
        rel = [(a - k) // block_cells for a, k in zip(cube.start_cells(), K.start_cells())]
        span = cube.size_cells // block_cells
        axes = np.ix_(*(np.arange(r, r + span) for r in rel))
        return np.ravel_multi_index(axes, (b_axis,) * sysm.d).reshape(-1)

    def block_values(cube, eta):
        return haar_block(cube, eta)[(slice(None, None, block_cells),) * sysm.d].reshape(-1)

    for I in descendants(K, i):
        for J in descendants(K, j):
            smaller = I if i >= j else J
            if not is_good(smaller, params):
                continue
            if common_ancestor(I, J).key() != K.key():
                continue
            for etaI in etas(sysm.d):
                for etaJ in etas(sysm.d):
                    elem = matrix_element(T, J, etaJ, I, etaI,
                                          convention="paraproduct_extracted")
                    if elem == 0.0:
                        continue
                    outer = np.outer(block_values(J, etaJ), block_values(I, etaI))
                    table[np.ix_(block_range(J), block_range(I))] += K.volume * elem * outer
    return table


def local_haar(cube, K):
    """Haar vector of `cube` restricted to K's cell slice (one dimension)."""
    rel = cube.start_cells()[0] - K.start_cells()[0]
    out = np.zeros(K.size_cells)
    half = cube.size_cells // 2
    amp = cube.volume**-0.5
    out[rel:rel + half] = amp
    out[rel + half:rel + cube.size_cells] = -amp
    return out


def peak_magnitude(T, K, i, j, case, params):
    vol = T.system.cell_volume
    eta = (1,)
    if case == "equal":
        return abs(matrix_element_dense(T, K, eta, K, eta))
    good = [I for I in descendants(K, i) if is_good(I, params)]
    if not good:
        return 0.0
    ksl = K.cell_slices()[0]
    HI = np.stack([local_haar(I, K) for I in good], axis=1)
    if case in ("deeply_nested", "shallowly_nested"):
        U = T.matrix[:, ksl] @ HI
        top = 0.0
        for n, I in enumerate(good):
            elem = vol * nested_left_vector(K, eta, I) @ U[:, n]
            top = max(top, K.volume * abs(elem) * K.volume**-0.5 * I.volume**-0.5)
        return top
    U = T.matrix[ksl, ksl] @ HI
    top = 0.0
    for J in descendants(K, j):
        hJ = local_haar(J, K)
        for n, I in enumerate(good):
            if J.contains_cube(I) or I.contains_cube(J):
                continue
            if common_ancestor(I, J).key() != K.key():
                continue
            elem = vol * hJ @ U[:, n]
            top = max(top, K.volume * abs(elem) * (I.volume * J.volume) ** -0.5)
    return top


def decay_check_dense(T, case, i_values, params, alpha):
    """Decay report with every cube rebuilt per K and every pair tested
    through common_ancestor; raises ValueError for a report it cannot fit."""
    sysm = T.system
    mags, used_i = [], []
    for i in i_values:
        if not _case_constraints(case, params.r, i):
            continue
        j = 0 if case in ("deeply_nested", "shallowly_nested", "equal") else 1
        top = 0.0
        for k_level in range(sysm.min_level, sysm.depth - max(i, j)):
            for K in sysm.cubes_at_level(k_level):
                top = max(top, peak_magnitude(T, K, i, j, case, params))
        if top > 0.0:
            mags.append(top)
            used_i.append(i)
    target = decay_slope_target(case, alpha, params.gamma, sysm.d)
    if (len(used_i) < 3 and target is not None) or not used_i:
        raise ValueError("too few usable complexities")
    slope = (float(np.polyfit(used_i, np.log2(mags), 1)[0])
             if len(used_i) >= 3 else None)
    return DecayReport(case, tuple(used_i), tuple(mags), slope, target)


def wbp_constants_per_cube(T):
    """`representation.wbp_constants` summing each cube's own cell block of T."""
    sysm = T.system
    values = {}
    for level in range(sysm.min_level, sysm.depth + 1):
        for cube in sysm.cubes_at_level(level):
            block = T.matrix.reshape((sysm.cells_per_axis,) * 2 * sysm.d)[
                cube.cell_slices() * 2]
            values[cube.key()] = float(block.sum()) * sysm.cell_volume / cube.volume
    return {"per_cube": values, "max": max(abs(v) for v in values.values())}


# -- averaging identity, one Haar coefficient per column per grid ------------------


def averaging_identity_dense(T, g, f, config):
    """Grid average with per-column Haar vectors and coefficients, one dense
    frame per translated grid, over every translation-bit pattern."""
    base = T.system
    gp = config.goodness
    pi = goodness_probability(gp.max_generations, gp, base.d)
    lhs = raw_pairing(g, T, f)
    floor = base.min_level + gp.max_generations
    n_bits = (base.m_top + base.depth) * base.d
    box = [(min(a[0], b[0]), max(a[1], b[1]))
           for a, b in zip(_support_box(f), _support_box(g))]
    vol = base.cell_volume
    f_flat = f.values.reshape(-1)
    g_flat = g.values.reshape(-1)
    patterns = range(1 << n_bits)
    goodsum = total_sum = coarse = 0.0
    for word in patterns:
        bits = tuple(tuple((word >> (pos * base.d + ax)) & 1 for ax in range(base.d))
                     for pos in range(base.m_top + base.depth))
        sysm = DyadicSystem(d=base.d, m_top=base.m_top, depth=base.depth, omega=bits)
        cols = [(cube, eta)
                for cube in standard_cubes(sysm, sysm.min_level, base.depth - 1, box)
                for eta in etas(base.d)]
        if not cols:
            continue
        H = np.stack([flat_haar(cube, eta) for cube, eta in cols], axis=1)
        cf = np.array([haar_coefficient(f, cube, eta)[0] for cube, eta in cols])
        cg = np.array([haar_coefficient(g, cube, eta)[0] for cube, eta in cols])
        U = T.matrix @ H
        elements = vol * (H.T @ U)
        pair_f = vol * (g_flat @ U)
        pair_g = vol * (H.T @ (T.matrix @ f_flat))
        levels = np.array([cube.level for cube, _ in cols])
        good = np.array([cube.level >= floor and is_good(cube, gp) for cube, _ in cols])
        eligible = levels >= floor
        side_f = cf * (pair_f - cg @ np.where(levels[:, None] > levels[None, :],
                                              elements, 0.0))
        side_g = cg * (pair_g - np.where(levels[None, :] >= levels[:, None],
                                         elements, 0.0) @ cf)
        goodsum += float(side_f[good & eligible].sum() + side_g[good & eligible].sum())
        total_sum += float(side_f.sum() + side_g.sum())
        coarse += float(side_f[~eligible].sum() + side_g[~eligible].sum())
    n = len(patterns)
    return AveragingIdentityReport(lhs=lhs, rhs=goodsum / n / pi.value, pi_good=pi.value,
                                   n_samples=n, top_scale_defect=lhs - total_sum / n,
                                   coarse_share=coarse / n, full_sum_mean=total_sum / n)


def averaging_identity_per_grid(T, g, f, config):
    """`representation.averaging_identity_residual` grid by grid: one system
    per translation-bit pattern, its cubes walked level by level, goodness
    memoized on a cube's level, corner and window bits, and one elements
    product per grid over the frame columns of that grid's blocks."""
    base = T.system
    gp = config.goodness
    gens = gp.max_generations
    pi = goodness_probability(gens, gp, base.d)
    level_hi = base.depth - 1
    floor = base.min_level + gens
    n_bits = (base.m_top + base.depth) * base.d
    patterns = range(1 << n_bits)
    box = [(min(a[0], b[0]), max(a[1], b[1]))
           for a, b in zip(_support_box(f), _support_box(g))]
    n_eta = (1 << base.d) - 1
    # each (level, shift) block gets its frame columns once, over all grids
    blocks, col_level, columns, goodness, grids = [], [], {}, {}, []
    for word in patterns:
        bits = tuple(tuple((word >> (pos * base.d + ax)) & 1 for ax in range(base.d))
                     for pos in range(base.m_top + base.depth))
        sysm = DyadicSystem(d=base.d, m_top=base.m_top, depth=base.depth, omega=bits)
        idx, good = [], []
        for level in range(sysm.min_level, level_hi + 1):
            key = (level, sysm.shift_cells(level))
            if key not in columns:
                blocks.append((level, list(sysm.cubes_at_level(level, within=box))))
                columns[key] = (len(col_level), [cube.corner for cube in blocks[-1][1]])
                col_level += [level] * (n_eta * len(blocks[-1][1]))
            first, corners = columns[key]
            window = tuple(sysm.bit(level - t) for t in range(gens))
            for corner in corners:
                if (level, corner, window) not in goodness:
                    goodness[level, corner, window] = (
                        level >= floor and is_good(sysm.cube(level, corner), gp))
            idx += range(first, first + n_eta * len(corners))
            good += [goodness[level, corner, window] for corner in corners
                     for _ in range(n_eta)]
        grids.append((np.array(idx, dtype=np.intp), np.array(good, dtype=bool)))

    lhs = raw_pairing(g, T, f)
    vol = base.cell_volume
    f_flat = f.scalar_values().reshape(-1)
    g_flat = g.scalar_values().reshape(-1)
    W = fill_haar_frame(base, [
        (level, np.array([cube.start_cells() for cube in cubes], dtype=np.intp)
         .reshape(-1, base.d).T) for level, cubes in blocks])
    TW = T.matrix @ W
    col_level = np.array(col_level)
    cf_all, cg_all = vol * (W.T @ f_flat), vol * (W.T @ g_flat)
    pair_f_all = vol * (g_flat @ TW)                # <g, T h_I> per column
    pair_g_all = vol * (W.T @ (T.matrix @ f_flat))  # <h_J, T f> per column

    goodsum = total_sum = coarse = 0.0
    for idx, good in grids:
        cf, cg, levels = cf_all[idx], cg_all[idx], col_level[idx]
        elements = vol * (W[:, idx].T @ TW[:, idx])
        eligible = levels >= floor
        finer_j = levels[:, None] > levels[None, :]      # J strictly finer than I
        finer_eq_i = levels[None, :] >= levels[:, None]  # I at least as fine as J
        # each cube's companion sum keeps the complete coarser-or-equal side
        side_f = cf * (pair_f_all[idx] - cg @ np.where(finer_j, elements, 0.0))
        side_g = cg * (pair_g_all[idx] - np.where(finer_eq_i, elements, 0.0) @ cf)
        goodsum += float(side_f[good].sum() + side_g[good].sum())
        total_sum += float(side_f.sum() + side_g.sum())
        coarse += float(side_f[~eligible].sum() + side_g[~eligible].sum())

    n = len(patterns)
    return AveragingIdentityReport(lhs=lhs, rhs=goodsum / n / pi.value, pi_good=pi.value,
                                   n_samples=n, top_scale_defect=lhs - total_sum / n,
                                   coarse_share=coarse / n, full_sum_mean=total_sum / n)


def build_stopping_family_per_cube(f, root, threshold_factor=2.0, weights=None):
    """Stopping family by a per-cube walk: each member pushes its children and
    pops one candidate at a time, testing slice averages."""
    family = SparseFamily(root, weights=weights)
    norms = f.space.norm(f.values)[..., None]
    depth = f.system.depth

    def collect(member_idx):
        base_cube = family.cubes[member_idx]
        base = family.weighted_average(norms, base_cube)[0]
        stack = list(base_cube.children()) if base_cube.level < depth else []
        while stack:
            cand = stack.pop()
            if family.weighted_average(norms, cand)[0] > threshold_factor * base:
                child_idx = family.add(cand, member_idx)
                collect(child_idx)
            elif cand.level < depth:
                stack.extend(cand.children())

    collect(0)
    return family


def exceptional_mask_per_cube(family, idx):
    """`SparseFamily.exceptional_mask` painting the member, then clearing each child."""
    sysm = family.root.system
    mask = np.zeros((sysm.cells_per_axis,) * sysm.d, dtype=bool)
    mask[family.cubes[idx].cell_slices()] = True
    for child in family.children[idx]:
        mask[family.cubes[child].cell_slices()] = False
    return mask


def validate_adapted_per_cube(family, fs):
    """`sparse.validate_adapted` testing one member, then each of its children, at a time."""
    if len(fs) != len(family):
        raise AdaptednessError("one function per family member required")
    for idx, f in enumerate(fs):
        cube = family.cubes[idx]
        mask = np.zeros(f.values.shape[:-1], dtype=bool)
        mask[cube.cell_slices()] = True
        if np.any(np.abs(f.values[~mask]) > _EXACT_TOL):
            raise AdaptednessError(f"member {idx}: function not supported on its cube")
        for child in family.children[idx]:
            vals = f.values[family.cubes[child].cell_slices()].reshape(-1, f.space.dim)
            if np.any(np.abs(vals - vals[0]) > _EXACT_TOL):
                raise AdaptednessError(f"member {idx}: not constant on a stopping child")


def carleson_sum_per_cube(family, f, p):
    """`sparse.carleson_sum` with one slice average per member."""
    if not family.is_sparse():
        raise SparsityError("the Carleson embedding requires a sparse family")
    norms = f.space.norm(f.values)[..., None]
    total = 0.0
    for cube in family.cubes:
        avg = family.weighted_average(norms, cube)[0]
        total += avg**p * family.measure(cube)
    lhs = total ** (1.0 / p)
    dens = family.density()
    fnorm = float(((norms[..., 0] ** p) * dens).sum() * f.system.cell_volume) ** (1.0 / p)
    q = conjugate_exponent(p)
    return CarlesonResult(lhs, fnorm, 2.0 * q, 2.0 ** (1.0 / p) * q)


def stopping_control_per_cube(family, f):
    """`sparse.stopping_control` taking two slice averages at every subcube of the root."""
    norms = f.space.norm(f.values)[..., None]

    worst_q = 0.0
    stack = [family.root]
    while stack:
        cube = stack.pop()
        member = family.cubes[family.locate(cube)]
        base = family.weighted_average(norms, member)[0]
        avg = family.weighted_average(norms, cube)[0]
        if base > 0:
            worst_q = max(worst_q, avg / base)
        elif avg > 0:
            worst_q = np.inf
        if cube.level < f.system.depth:
            stack.extend(cube.children())

    worst_child = 0.0
    for idx in range(len(family)):
        base = family.weighted_average(norms, family.cubes[idx])[0]
        for child in family.children[idx]:
            avg = family.weighted_average(norms, family.cubes[child])[0]
            if base > 0:
                worst_child = max(worst_child, avg / base)
            elif avg > 0:
                worst_child = np.inf
    return {"max_q_over_member": worst_q, "max_child_over_parent": worst_child}


def project_onto_member(family, member, f):
    """Adapted projection onto one member, in closed form.

    Equals the sum of measure-weighted Haar projections over the cubes
    whose minimal member is the given one; the closed form is: children
    averages on children, f itself on the exceptional set, minus the
    member average everywhere on the member.
    """
    idx = member_index(family, member)
    cube = family.cubes[idx]
    out = np.zeros_like(f.values)
    sl = cube.cell_slices()
    mask = exceptional_mask_per_cube(family, idx)
    out[mask] = f.values[mask]
    for child in family.children[idx]:
        kid = family.cubes[child]
        out[kid.cell_slices()] = family.weighted_average(f.values, kid)
    out[sl] -= family.weighted_average(f.values, cube)
    full = np.zeros_like(f.values)
    full[sl] = out[sl]
    return GridFunction(f.system, full, f.space)


def _lp_norm_weighted(family, f, p):
    dens = family.density()
    norms = f.space.norm(f.values)
    return float(((norms**p) * dens).sum() * f.system.cell_volume) ** (1.0 / p)


def pythagoras_check_per_member(family, fs, p, mode="direct"):
    """`sparse.pythagoras_check` testing, summing and measuring one function at a time."""
    validate_adapted_per_cube(family, fs)
    dens = family.density()
    cellvol = family.root.system.cell_volume
    if mode == "reverse_cancellative":
        for idx, f in enumerate(fs):
            integral = (f.values * dens[..., None]).reshape(-1, f.space.dim).sum(axis=0)
            if np.any(np.abs(integral) * cellvol > 1e-9):
                raise AdaptednessError(f"member {idx}: nonzero integral")
    if mode == "reverse_nonneg":
        for idx, f in enumerate(fs):
            if f.space.dim != 1 or np.any(f.values < -_EXACT_TOL):
                raise AdaptednessError(f"member {idx}: not scalar nonnegative")
    total = fs[0]
    for f in fs[1:]:
        total = total + f
    sum_norm = _lp_norm_weighted(family, total, p)
    powers = sum(_lp_norm_weighted(family, f, p) ** p for f in fs)
    return PythagorasResult(sum_norm, powers ** (1.0 / p), 3.0 * p, 6.0 * conjugate_exponent(p))


def random_adapted_functions_per_stream(family, seed, tag, mode):
    """`experiments._random_adapted_functions` keying one `substream` per member."""
    sysm = family.root.system
    owner = family.owner()
    out = []
    for idx in range(len(family)):
        gen = substream(seed, "pyth-member", tag, idx)
        vals = np.zeros((sysm.cells_per_axis,) * sysm.d + (1,))
        mask = owner == idx  # the member's cells outside its stopping children
        vals[mask] = gen.standard_normal((int(mask.sum()), 1))
        for child in family.children[idx]:
            vals[family.cubes[child].cell_slices()] = gen.standard_normal()
        if mode == "reverse_nonneg":
            vals = np.abs(vals)
        if mode == "reverse_cancellative":
            cube = family.cubes[idx]
            vals[cube.cell_slices()] -= family.weighted_average(vals, cube)
        out.append(GridFunction(sysm, vals, SCALAR))
    return out
