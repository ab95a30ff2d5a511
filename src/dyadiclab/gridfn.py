"""Piecewise-constant functions on dyadic meshes and their Haar analysis.

A GridFunction stores one value of a finite-dimensional normed space per
finest-level cell; every integral over a dyadic cube is an exact cell sum,
so no quadrature error enters anywhere in the package.

Bulk per-level operations (level means, analyze/synthesize, paraproduct
support) require the involved levels to be aligned with the cell grid,
which holds for standard systems at every level.  Per-cube operations
(averages, Haar coefficients) work in any translated system
because a translated cube's descendants align with the block grid inside
its own cell slice, and so does the Haar transform at given cubes, which
reads their children's sums from one prefix sum per axis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from .errors import MeshDepthError
from .grid import DyadicCube, DyadicSystem
from .rng import substream, substreams
from .space import SCALAR, NormedSpace


def etas(d: int) -> list:
    """Nonzero Haar sign indices in lexicographic order."""
    return list(itertools.product((0, 1), repeat=d))[1:]


_BIT_TUPLES = frozenset(eta for d in (1, 2) for eta in itertools.product((0, 1), repeat=d))


def _eta(eta, d: int) -> tuple:
    """`eta` as a tuple of ints: it must be d entries, each an integer or boolean 0 or
    1 (all zero is the normalized indicator), so equal etas share one cache key."""
    if (type(eta) is tuple and len(eta) == d and eta in _BIT_TUPLES
            and type(eta[0]) is type(eta[-1]) is int):  # already canonical (d <= 2 entries)
        return eta
    items = eta.tolist() if isinstance(eta, np.ndarray) else eta
    if isinstance(items, (tuple, list)) and len(items) == d and all(
            isinstance(e, (int, np.integer, np.bool_)) and e in (0, 1) for e in items):
        return tuple(map(int, items))
    raise ValueError(f"eta = {items!r} is not {d} entries of 0 or 1 (d = {d})")


@functools.lru_cache(maxsize=None)
def _sign_row(eta: tuple) -> np.ndarray:
    """Read-only signs of h^eta on its cube's children, row-major."""
    row = np.where(np.array(list(itertools.product((0, 1), repeat=len(eta)))) @ eta % 2, -1.0, 1.0)
    row.setflags(write=False)
    return row


def _child_signs(d: int) -> np.ndarray:
    """Signs of h^eta on the children: rows etas(d), columns children row-major."""
    return np.array([_sign_row(eta) for eta in etas(d)])


@dataclass(frozen=True)
class GridFunction:
    """Read-only values: a caller's array is copied, an arithmetic result's kept."""

    system: DyadicSystem
    values: np.ndarray  # shape (cells,)*d + (space.dim,)
    space: NormedSpace = SCALAR
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool):
        arr = (np.asarray if _fresh else np.array)(self.values, dtype=float)
        expected = (self.system.cells_per_axis,) * self.system.d + (self.space.dim,)
        if arr.shape != expected:
            raise ValueError(f"values shape {arr.shape} != expected {expected}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.system, self.values + other.values, self.space, True)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.system, self.values - other.values, self.space, True)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.system, self.values * scalar, self.space, True)

    __rmul__ = __mul__

    def scalar_values(self) -> np.ndarray:
        if self.space.dim != 1:
            raise ValueError("not a scalar-valued function")
        return self.values[..., 0]


def zeros(system: DyadicSystem, space: NormedSpace = SCALAR) -> GridFunction:
    shape = (system.cells_per_axis,) * system.d + (space.dim,)
    return GridFunction(system, np.zeros(shape), space)


def from_callable(system: DyadicSystem, fn, space: NormedSpace = SCALAR) -> GridFunction:
    """Sample a function at cell midpoints (exact for cellwise-constant data)."""
    pts = system.cell_centers()
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape == pts.shape[:-1]:
        vals = vals[..., None]
    return GridFunction(system, vals, space)


def indicator(cube: DyadicCube, space: NormedSpace = SCALAR,
              value: Optional[np.ndarray] = None) -> GridFunction:
    f = np.zeros((cube.system.cells_per_axis,) * cube.system.d + (space.dim,))
    vec = np.ones(space.dim) if value is None else np.asarray(value, dtype=float)
    f[cube.cell_slices()] = vec
    return GridFunction(cube.system, f, space)


def haar_block(cube: DyadicCube, eta) -> np.ndarray:
    """Values of the L2-normalized h^eta on the cube's own cells, shape (size,)*d,
    read-only (see `_haar_values`)."""
    sysm = cube.system
    eta = _eta(eta, sysm.d)
    if cube.level >= sysm.depth and any(eta):
        raise MeshDepthError("Haar function needs resolvable children")
    return _haar_values(sysm.d, cube.level, cube.size_cells, eta)


_PATTERN_CELLS = 1 << 12  # most cells of a Haar pattern that `_haar_values` keeps (32 KiB)


def _haar_values(d: int, level: int, size: int, eta: tuple) -> np.ndarray:
    """`haar_block` of a level-`level` cube of `size` cells per side, for an `eta`
    from `_eta`: read-only, and the same array on every call for a pattern of at most
    `_PATTERN_CELLS` cells, of which the last 256 used are kept (at most 8 MiB)."""
    return (_haar_pattern if size**d <= _PATTERN_CELLS
            else _haar_pattern.__wrapped__)(d, level, size, eta)


@functools.lru_cache(maxsize=256)
def _haar_pattern(d: int, level: int, size: int, eta: tuple) -> np.ndarray:
    sub = np.ones((size,) * d)
    for ax, e in enumerate(eta):
        if e:
            idx = [slice(None)] * d
            idx[ax] = slice(size // 2, None)
            sub[tuple(idx)] *= -1.0
    out = sub * ((2.0**-level) ** d) ** -0.5
    out.setflags(write=False)
    return out


def haar_vector(cube: DyadicCube, eta) -> np.ndarray:
    """Cell array of the L2-normalized Haar function h^eta on `cube`."""
    arr = np.zeros((cube.system.cells_per_axis,) * cube.system.d)
    arr[cube.cell_slices()] = haar_block(cube, eta)
    return arr


# -- the Haar transform at given cubes ------------------------------------------


def _prefix_sums(cells: np.ndarray, d: int) -> np.ndarray:
    """Sums of a stack of cell arrays (cells on the last d axes) over the boxes [0, i)
    per axis, shape (..., cells + 1 per axis): a summed-area table at d = 2."""
    out = np.zeros(cells.shape[:-d] + tuple(c + 1 for c in cells.shape[-d:]))
    out[(Ellipsis,) + (slice(1, None),) * d] = cells
    for ax in range(-d, 0):
        np.cumsum(out, axis=ax, out=out)
    return out


@functools.lru_cache(maxsize=None)
def _corner_weights(d: int) -> tuple:
    """Read-only (corners, weights): the 3^d corners of a cube's children in half sides
    per axis, shape (d, 3^d), and h^eta's weights on the prefix sums there, rows etas(d):
    per axis -1, 0, 1 (the sum) for an eta bit 0, -1, 2, -1 (lower less upper half) for 1."""
    corners = np.array(list(itertools.product(range(3), repeat=d))).T
    axis = np.array([(-1.0, 0.0, 1.0), (-1.0, 2.0, -1.0)])
    weights = np.array([np.prod([axis[b, corners[ax]] for ax, b in enumerate(eta)], axis=0)
                        for eta in etas(d)])
    corners.setflags(write=False)
    weights.setflags(write=False)
    return corners, weights


def _haar_analysis(sums: np.ndarray, level: int, depth: int, starts: np.ndarray) -> np.ndarray:
    """The Haar transform: cell sums of a stack of cell arrays times h^eta of the n
    level-`level` cubes, of any translation, whose first cells are `starts`, shape
    (d, n); shape (..., n, etas(d)).  `sums` are the stack's `_prefix_sums`, or a view
    of some of their stack entries."""
    d = starts.shape[0]
    corners, weights = _corner_weights(d)
    at = tuple(starts[:, :, None] + (corners << (depth - level - 1))[:, None])
    taken = sums.reshape(sums.shape[:-d] + (-1,))[..., np.ravel_multi_index(at, sums.shape[-d:])]
    return np.einsum("...nc,ec->...ne", taken, weights) * 2.0 ** (level * d / 2.0)


def _haar_synthesis(coeffs: np.ndarray, level: int, depth: int, starts: np.ndarray,
                    rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Adjoint of `_haar_analysis`: the sums of coefficients, shape (n, etas(d)), times
    the h^eta of their cubes, cube k added into row rows[k] of a stack of `shape`,
    (rows, *cells).  The adjoint of a prefix sum is a suffix sum, and a cube's corner
    weights add up to 0 along each axis, so one running sum per axis gives it with its
    sign reversed."""
    d = starts.shape[0]
    corners, weights = _corner_weights(d)
    values = np.einsum("ne,ec->nc", coeffs, weights) * ((-1) ** d * 2.0 ** (level * d / 2.0))
    edges = (shape[0],) + tuple(c + 1 for c in shape[1:])
    at = (rows[:, None],) + tuple(starts[:, :, None] + (corners << (depth - level - 1))[:, None])
    out = np.bincount(np.ravel_multi_index(at, edges).reshape(-1), values.reshape(-1),
                      int(np.prod(edges))).reshape(edges)
    for ax in range(1, d + 1):
        np.cumsum(out, axis=ax, out=out)
    return out[(slice(None),) + (slice(-1),) * d]


_STACK_CELLS = 1 << 18  # most cells of the functions of one caller's stack together


def _stack(f) -> tuple:
    """(whether `f` is one GridFunction, the functions as a list, their values along
    a leading axis: a view of one, a copy of a nonempty list sharing system and space).
    Kernels that keep each row's block reductions give it the bits of a lone call."""
    single = isinstance(f, GridFunction)
    fs = [f] if single else list(f)
    if not fs or any((g.system, g.space) != (fs[0].system, fs[0].space) for g in fs):
        raise ValueError("a list of functions must be nonempty and share one system and space")
    return single, fs, fs[0].values[None] if single else np.array([g.values for g in fs])


def _unstack(single: bool, system: DyadicSystem, space: NormedSpace, rows: np.ndarray):
    out = [GridFunction(system, row, space, True) for row in rows]
    return out[0] if single else out


def stack_chunks(items, system: DyadicSystem):
    """Yield `items` in lists of at least one and at most `_STACK_CELLS` cells of
    `system` in all, which bounds a stack of their functions at any depth and count."""
    items, rows = iter(items), max(1, _STACK_CELLS // system.n_cells)
    while chunk := list(itertools.islice(items, rows)):
        yield chunk


# -- per-cube operations (valid in any system) -------------------------------


def _block_means(arr: np.ndarray, d: int, factor: int) -> np.ndarray:
    """Means over blocks of `factor` cells per axis of values of shape
    (*stack, *cells, dim): any leading stack axes and the trailing axis kept.

    The block sum divided by the cell count, which is what `ndarray.mean`
    computes, without its wrapper.
    """
    if factor == 1:
        return arr
    lead = arr.ndim - d - 1
    split = [x for b in arr.shape[lead:-1] for x in (b // factor, factor)]
    sums = np.add.reduce(arr.reshape(*arr.shape[:lead], *split, arr.shape[-1]),
                         axis=tuple(range(lead + 1, lead + 2 * d, 2)))
    return sums / factor**d


@functools.lru_cache(maxsize=None)
def _regroup(shape: tuple, d: int, size: int, inverse: bool, lead: int) -> tuple:
    """(first shape, axis order, final shape) of `_blocks` on cells of `shape`, or of
    `_unblocks` back to them; cached, as shifts and sweeps reuse a few shapes."""
    head, rest = shape[:lead], shape[lead + d:]
    counts = tuple(c // size for c in shape[lead:lead + d])
    split = head + sum(((c, size) for c in counts), ()) + rest
    order = (*range(lead), *range(lead, lead + 2 * d, 2), *range(lead + 1, lead + 2 * d, 2),
             *range(lead + 2 * d, len(split)))
    if inverse:
        return tuple(split[k] for k in order), tuple(map(order.index, range(len(order)))), shape
    return split, order, head + counts + (size**d,) + rest


def _blocks(arr: np.ndarray, d: int, size: int, lead: int = 0) -> np.ndarray:
    """Cells regrouped per block of `size` cells per axis: shape (stack axes) +
    (blocks per axis)*d + (size**d,) + trailing axes, row-major within a block,
    where the `lead` stack axes come before the cells."""
    first, order, final = _regroup(arr.shape, d, size, False, lead)
    return arr.reshape(first).transpose(order).reshape(final)


def _unblocks(blocks: np.ndarray, d: int, size: int, lead: int = 0) -> np.ndarray:
    """Inverse of `_blocks`."""
    shape = (blocks.shape[:lead] + tuple(c * size for c in blocks.shape[lead:lead + d])
             + blocks.shape[lead + d + 1:])
    first, order, final = _regroup(shape, d, size, True, lead)
    return blocks.reshape(first).transpose(order).reshape(final)


def _expand_blocks(blocks: np.ndarray, d: int, factor: int) -> np.ndarray:
    """Each block value repeated over `factor` cells per axis, for values of shape
    (*stack, *blocks, dim) as `_block_means` gives them."""
    out = blocks
    for ax in range(-d - 1, -1):
        out = np.repeat(out, factor, axis=ax)
    return out


def cube_average(f: GridFunction, cube: DyadicCube) -> np.ndarray:
    view = f.values[cube.cell_slices()]
    return view.reshape(-1, f.space.dim).mean(axis=0)


def haar_coefficient(f: GridFunction, cube: DyadicCube, eta) -> np.ndarray:
    """Inner product of f with h^eta on `cube`, by exact cell sums: sign times mean times
    volume per child, added to 0.0 in row-major child order.  numpy adds under eight terms
    in turn, so for d <= 2 this has the bits of a loop over the children; from d = 3 its
    pairwise sum may round a scalar coefficient differently in the last bit."""
    d, vol = f.system.d, cube.volume
    eta = _eta(eta, d)
    view = f.values[cube.cell_slices()]
    if cube.size_cells == 1:
        if any(eta):
            raise MeshDepthError("oscillating Haar function needs children")
        return view.reshape(f.space.dim) * vol**0.5
    kid_means = _block_means(view, d, cube.size_cells // 2).reshape(-1, f.space.dim)
    terms = _sign_row(eta)[:, None] * kid_means * (vol / 2**d)
    return np.add.reduce(terms, axis=0, initial=0.0) * vol**-0.5


# -- aligned per-level operations ---------------------------------------------


def _aligned_factor(system: DyadicSystem, level: int) -> int:
    """Cells per axis of a level-`level` cube; the level must be cell-grid aligned."""
    if any(system.shift_cells(level)):
        raise ValueError(f"level {level} of this system is not cell-grid aligned; "
                         "use per-cube operations instead")
    return 1 << (system.depth - level)


def conditional_expectation(f, level: int):
    """E_level f, of one GridFunction or, row by row, a list of them (see `_stack`)."""
    single, fs, stack = _stack(f)
    d, factor = fs[0].system.d, _aligned_factor(fs[0].system, level)
    means = _expand_blocks(_block_means(stack, d, factor), d, factor)
    return _unstack(single, fs[0].system, fs[0].space, means)


# -- Haar analysis / synthesis -------------------------------------------------


@dataclass(frozen=True)
class HaarCoefficients:
    """Haar coefficients per level plus the coarse block averages.

    `coeffs[level]` has shape (blocks,)*d + (2^d - 1, dim) with the last
    Haar index ordered as etas(d); `coarse` holds the block means at
    `level_lo` needed to reproduce the function exactly.
    """

    system: DyadicSystem
    space: NormedSpace
    level_lo: int
    level_hi: int
    coeffs: dict
    coarse: np.ndarray

    def get(self, cube: DyadicCube, eta) -> np.ndarray:
        arr = self.coeffs[cube.level]
        blocks = arr.shape[0]
        start = tuple(s // cube.size_cells for s in cube.start_cells())
        if any(s < 0 or s >= blocks for s in start):
            raise KeyError("cube outside the analyzed range")
        return arr[start][etas(self.system.d).index(_eta(eta, self.system.d))]


def analyze(f, level_lo: int, level_hi: Optional[int] = None):
    """Haar coefficients for cube levels level_lo..level_hi (aligned systems), of
    one GridFunction or, row by row, a list of them (see `_stack`)."""
    single, fs, stack = _stack(f)
    sysm = fs[0].system
    if level_hi is None:
        level_hi = sysm.depth - 1
    if not (sysm.min_level <= level_lo <= level_hi <= sysm.depth - 1):
        raise MeshDepthError("analysis range outside the mesh")
    d, signs = sysm.d, _child_signs(sysm.d)
    means = _block_means(stack, d, _aligned_factor(sysm, level_hi + 1))
    coeffs = {}
    for level in range(level_hi, level_lo - 1, -1):
        _aligned_factor(sysm, level)
        kids = _blocks(means, d, 2, 1)
        scale = 2.0 ** (-level * d / 2.0) / 2**d  # |I|^{1/2} * 2^{-d}
        # child by child, every eta at once: (stack, blocks)*d + (eta, component)
        coeffs[level] = sum(s[:, None] * kids[..., k, None, :]
                            for k, s in enumerate(signs.T)) * scale
        means = _block_means(means, d, 2)
    out = [HaarCoefficients(sysm, fs[0].space, level_lo, level_hi,
                            {level: layer[r] for level, layer in coeffs.items()}, means[r])
           for r in range(len(fs))]
    return out[0] if single else out


def synthesize(hc):
    """Exact inverse of analyze: coarse averages plus all Haar layers, of one
    HaarCoefficients or, row by row, a list of them sharing system, space and range."""
    single = isinstance(hc, HaarCoefficients)
    hcs = [hc] if single else list(hc)
    frame = lambda h: (h.system, h.space, h.level_lo, h.level_hi)
    if not hcs or any(frame(h) != frame(hcs[0]) for h in hcs):
        raise ValueError("a list of Haar coefficients must be nonempty and of one frame")
    first, rows = hcs[0], (lambda arrays: arrays[0][None]) if single else np.array
    sysm, d, signs = first.system, first.system.d, _child_signs(first.system.d)
    means = rows([h.coarse for h in hcs])
    for level in range(first.level_lo, first.level_hi + 1):
        scale = 2.0 ** (level * d / 2.0)  # |I|^{-1/2}
        layer = rows([h.coeffs[level] for h in hcs])
        # eta by eta, every child at once: (stack, blocks)*d + (child, component)
        delta = sum(s[:, None] * layer[..., e, None, :] for e, s in enumerate(signs))
        means = _unblocks(means[..., None, :] + scale * delta, d, 2, 1)
    factor = 1 << (sysm.depth - first.level_hi - 1)
    return _unstack(single, sysm, first.space, _expand_blocks(means, d, factor))


# -- norms and pairings ---------------------------------------------------------


def lp_norm(f: GridFunction, p):
    """The L^p norm of f (p = inf allowed), or for a list of exponents the list
    of norms, all from one pass of the pointwise norms."""
    norms = f.space.norm(f.values)
    out = [float(norms.max()) if q == np.inf
           else float((norms**q).sum() * f.system.cell_volume) ** (1.0 / q)
           for q in (p if isinstance(p, (list, tuple)) else [p])]
    return out if isinstance(p, (list, tuple)) else out[0]


def pair(g: GridFunction, f: GridFunction) -> float:
    """Bilinear duality pairing: integral of the pointwise dot product."""
    if g.space.dim != f.space.dim:
        raise ValueError("dual pairing needs matching dimensions")
    return float((g.values * f.values).sum() * f.system.cell_volume)


def bmo_norm(b, ps) -> list:
    """Supremum over all system cubes of the p-mean oscillation, one value per
    exponent of the list `ps` (inf allowed); for a list of functions, one such
    list per function (see `_stack`).  Each level's deviations from the cube
    means are computed once, for every exponent."""
    single, bs, stack = _stack(b)
    sysm, d = bs[0].system, bs[0].system.d
    best = [[0.0] * len(ps) for _ in bs]
    for level in range(sysm.min_level, sysm.depth + 1):
        factor = _aligned_factor(sysm, level)
        means = _expand_blocks(_block_means(stack, d, factor), d, factor)
        dev = bs[0].space.norm(stack - means)
        for k, p in enumerate(ps):
            worst = dev if p == np.inf else _block_means((dev**p)[..., None], d, factor)
            for row, val in zip(best, worst.reshape(len(bs), -1).max(axis=1).tolist()):
                row[k] = max(row[k], val if p == np.inf else val ** (1.0 / p))
    return best[0] if single else best


# -- random data ---------------------------------------------------------------


def random_grid_function(system: DyadicSystem, seed: int, space: NormedSpace = SCALAR,
                         support: Optional[DyadicCube] = None,
                         mean_zero: Optional[str] = None,
                         label: str = "grid-function") -> GridFunction:
    """Seeded standard-normal cell values, optionally supported/centred.

    mean_zero: None, "global", or "per_top" (zero average on each
    top-level cube of the system, hence also globally).
    """
    if mean_zero not in (None, "global", "per_top"):
        raise ValueError(f"mean_zero must be None, 'global' or 'per_top', not {mean_zero!r}")
    gen = substream(seed, label)
    shape = (system.cells_per_axis,) * system.d + (space.dim,)
    vals = np.zeros(shape)
    if support is None:
        vals[...] = gen.standard_normal(shape)
    else:
        sl = support.cell_slices()
        vals[sl] = gen.standard_normal(vals[sl].shape)
    if mean_zero is not None:
        # the centred cells, the support's or all, each region centred on its own
        mask = np.zeros(shape[:-1], dtype=bool)
        mask[() if support is None else support.cell_slices()] = True
        regions = ([q.cell_slices() for q in system.top_cubes()] if mean_zero == "per_top"
                   else [()])
        for sl in regions:
            sub, inside = vals[sl], mask[sl]
            if inside.any():
                sub[inside] -= sub[inside].mean(axis=0)
    return GridFunction(system, vals, space)


def random_grid_functions(system: DyadicSystem, seed: int, labels: list,
                          space: NormedSpace = SCALAR):
    """Yield `random_grid_function(system, seed, space, label=label)` for each
    label, without support or centring: the labels are keyed in one batch, and
    each function is drawn when it is taken."""
    shape = (system.cells_per_axis,) * system.d + (space.dim,)
    for gen in substreams(seed, [(label,) for label in labels]):
        yield GridFunction(system, gen.standard_normal(shape), space, True)
