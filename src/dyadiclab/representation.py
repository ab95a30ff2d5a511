"""Singular kernels on the mesh, Haar matrix elements, and grid averaging.

A convolution kernel k(x - y) is discretized by its values at cell-centre
offsets, so the discrete couplings are themselves admissible kernel values
and the decay estimates for Haar matrix elements apply verbatim to the
discrete sums.  Diagonal cells are zero whatever k is at offset 0, so the
weak-boundedness quantities see only the off-diagonal couplings.

Conventions for nested Haar pairs follow the paraproduct extraction: for
I strictly inside J the element pairs T h_I against the coarse factor
with its value on the child containing I removed and that child excluded
from the integration; symmetrically when J is strictly inside I.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError, ResourceLimitError
from .grid import DyadicSystem, GoodnessParams, good_mask, goodness_probability, is_good
from .gridfn import (GridFunction, _cube_cells, _haar_analysis, _haar_synthesis, _haar_values,
                     _prefix_sums, etas, haar_block, haar_coefficient, haar_vector, pair,
                     stack_chunks)
from .shifts import ParaproductSpec, apply_paraproduct
# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class CzKernel:
    """A convolution kernel k(x - y) with its smoothness exponent and an optional cutoff."""

    fn: Callable  # offsets z = x - y of shape (..., d) -> values (scalar case)
    alpha: float
    cutoff: Optional[float] = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(z), dtype=float)
        if self.cutoff is not None:
            vals = np.where(np.linalg.norm(z, axis=-1) <= self.cutoff, vals, 0.0)
        return vals

def hilbert_kernel(cutoff: Optional[float] = None) -> CzKernel:
    """k(x, y) = 1/(x - y) in one dimension."""

    def fn(z):
        diff = z[..., 0]
        return np.where(diff != 0.0, 1.0 / np.where(diff == 0, 1.0, diff), 0.0)

    return CzKernel(fn, alpha=1.0, cutoff=cutoff)


def smooth_odd_kernel(width: float = 0.25, cutoff: Optional[float] = 1.0) -> CzKernel:
    """Bounded odd kernel (x-y) exp(-((x-y)/w)^2) / w^2 for identity tests."""

    def fn(z):
        diff = z.sum(axis=-1)
        return diff * np.exp(-((diff / width) ** 2)) / width**2

    return CzKernel(fn, alpha=1.0, cutoff=cutoff)


# -- discretized operator --------------------------------------------------------


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense matrix acting on flattened cell functions; couplings include cell volume.

    The matrix is made read-only, so the cached sums below cannot go stale.
    """

    system: DyadicSystem
    matrix: np.ndarray

    def __post_init__(self):
        n = self.system.n_cells
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        # column and row sums as cell arrays, the densities of <1, T .> and
        # <., T 1>; a plain attribute, so eq and repr see only the fields
        shape = (self.system.cells_per_axis,) * self.system.d
        object.__setattr__(self, "_sums", (mat.sum(axis=0).reshape(shape),
                                           mat.sum(axis=1).reshape(shape)))

    def apply(self, f: GridFunction) -> GridFunction:
        flat = f.values.reshape(self.system.n_cells, f.space.dim)
        out = self.matrix @ flat
        return GridFunction(self.system, out.reshape(f.values.shape), f.space)


_ASSEMBLE_BYTE_CAP = 1 << 30


def assemble(kernel: CzKernel, system: DyadicSystem) -> DiscreteOperator:
    """Midpoint-rule discretization, with zero on the diagonal cells.

    T[a, b] = vol k(side (a - b)), exactly as cell centres are dyadic, so the
    kernel is called once, on the (2c - 1)^d offsets of c cells per axis, and
    T's rows are that table's windows in reverse.  Raises ResourceLimitError
    before allocating when the n_cells^2 float matrix would exceed 1 GiB.
    """
    n, c, d = system.n_cells, system.cells_per_axis, system.d
    if 8 * n * n > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(f"a {n} x {n} operator needs {8 * n * n} bytes, "
                                 f"above the cap {_ASSEMBLE_BYTE_CAP}")
    axis = 2.0**-system.depth * np.arange(c - 1, -c, -1)  # the window at c - 1 - a is row a
    table = kernel(np.stack(np.meshgrid(*(axis,) * d, indexing="ij"), axis=-1))
    windows = np.lib.stride_tricks.sliding_window_view(system.cell_volume * table, (c,) * d)
    mat = np.ascontiguousarray(windows[(slice(None, None, -1),) * d]).reshape(n, n)
    np.fill_diagonal(mat, 0.0)
    return DiscreteOperator(system, mat)


def raw_pairing(g: GridFunction, T: DiscreteOperator, f: GridFunction) -> float:
    return pair(g, T.apply(f))


# -- Haar matrix elements ----------------------------------------------------------


def matrix_element(T: DiscreteOperator, J, etaJ, I, etaI):
    """Raw Haar matrix element <h_J, T h_I>, or their array for equal-length lists of
    cubes, J of one level and I of one level (see `_cube_cells`): h_J @ block, then its
    dot with h_I, on T's blocks as one stack, gathered (ResourceLimitError past the byte
    cap) or, for every cube of a 1-d level against itself in order, `_diagonal_blocks`'
    view.  Pairs of one level have the bits of lone calls on strided blocks; at two
    levels the last bits may differ."""
    single, Js, rows = _cube_cells(J)
    _, Is, cols = _cube_cells(I)
    if len(Js) != len(Is):
        raise ValueError(f"{len(Js)} cubes J against {len(Is)} cubes I")
    hJ, hI = haar_block(Js[0], etaJ).reshape(-1), haar_block(Is[0], etaI).reshape(-1)
    (box, *_), view = _diagonal_blocks(T, Js[0].level)
    whole = (T.system.d == 1 and np.array_equal(rows, cols)
             and np.array_equal(rows.reshape(-1), np.arange(box.start, box.stop)))
    if not whole and 8 * rows.size * cols.shape[1] > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(f"{len(Js)} gathered blocks need {8 * rows.size * cols.shape[1]}"
                                 f" bytes, above the cap {_ASSEMBLE_BYTE_CAP}")
    blocks = view if whole else T.matrix[rows[:, :, None], cols[:, None, :]]
    # a BLAS dot per row, as in a lone call; `(hJ @ blocks) @ hI` would be one gemv
    out = T.system.cell_volume * ((hJ @ blocks)[:, None, :] @ hI[:, None])[:, 0, 0]
    return float(out[0]) if single else out


# -- paraproduct extraction ----------------------------------------------------------


def _range_columns(system: DyadicSystem, level_lo: int, level_hi: int) -> list:
    """Per level of the range, (level, corners, starts): its cubes in `cubes_at_level`
    order, as corners and as first cells per axis, each of shape (d, n)."""
    return [(level, *system.level_cubes(level)) for level in range(level_lo, level_hi + 1)]


def _range_analysis(cells: np.ndarray, system: DyadicSystem, columns: list) -> np.ndarray:
    """The Haar transform of a stack of flattened cell arrays, shape (..., n_cells), at
    the cubes of `columns`: shape (..., columns), cube-major, etas(d) within a cube."""
    sums = _prefix_sums(cells.reshape(cells.shape[:-1] + (system.cells_per_axis,) * system.d),
                        system.d)
    return np.concatenate([_haar_analysis(sums, level, system.depth, starts)
                           .reshape(cells.shape[:-1] + (-1,)) for level, _, starts in columns],
                          axis=-1)


def extract_paraproducts(T: DiscreteOperator, level_lo: int, level_hi: int) -> tuple:
    """Coefficient tables of the two extracted paraproduct symbols.

    Returns (toward_argument, toward_dual): {(level, corner, eta): value}
    holding <1, T* h_Q> (the symbol tested against the argument's
    averages) and <1, T h_I> (its dual-side partner).
    """
    sysm = T.system
    col_sums, row_sums = T._sums
    columns = _range_columns(sysm, level_lo, level_hi)
    keys = [(level, tuple(corner), eta) for level, corners, _ in columns
            for corner in corners.T.tolist() for eta in etas(sysm.d)]
    tables = sysm.cell_volume * _range_analysis(np.array([row_sums, col_sums]).reshape(2, -1),
                                                sysm, columns)
    return tuple(dict(zip(keys, table)) for table in tables.tolist())


@dataclass(frozen=True)
class PairingDecomposition:
    lhs: float
    raw_sum: float
    extracted_sum: float
    para_argument: float
    para_dual: float

    @property
    def identity_residual(self) -> float:
        return abs(self.raw_sum - self.extracted_sum - self.para_argument - self.para_dual)


def pairing_decomposition(T: DiscreteOperator, pairs: Sequence, level_lo: int,
                          level_hi: int) -> list:
    """Raw double Haar sum against its extracted form plus paraproduct terms,
    one PairingDecomposition per (g, f) in `pairs`, in order.

    The operator-only work is done once per call: the matrix of elements
    vol H^T T H (the Haar transform of T's columns, then of their rows), the
    two symbol tables and their grid functions (the transform's adjoint), and
    the ancestor nest of the extracted convention.  Each pair then takes its
    coefficients and sums exactly as a one-pair call would.
    Standard systems only, or any system whose level_lo is cell-aligned (so
    every finer level is too); a translated level_lo raises ValueError.
    Raises ResourceLimitError, before building anything, when the prefix sums,
    T* H, the elements and their extracted copy, and one level's corner
    gathers would pass the assembly byte cap.
    """
    sysm = T.system
    if any(sysm.shift_cells(level_lo)):
        raise ValueError(f"level {level_lo} of this system is translated; "
                         "pairing_decomposition needs cell-aligned levels")
    d, n_eta, n_cells = sysm.d, (1 << sysm.d) - 1, sysm.n_cells
    # cubes counted from corner ranges: the prefix sums of T's columns and of
    # T* H's rows, T* H and the elements in level pieces and joined, the elements'
    # extracted copy, and one level's gathers at its cubes' 3^d corners
    n_cubes = [int(np.prod([len(r) for r in sysm.corner_ranges(level)]))
               for level in range(level_lo, level_hi + 1)]
    n_cols = n_eta * sum(n_cubes)
    n_bytes = 8 * ((n_cells + n_cols) * ((sysm.cells_per_axis + 1)**d + 2 * n_cols)
                   + n_cols * n_cols + 3**d * max(n_cubes) * max(n_cells, n_cols))
    if n_bytes > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(f"{n_cols} Haar columns of {n_cells} cells need {n_bytes} "
                                 f"bytes, above the cap {_ASSEMBLE_BYTE_CAP}")
    if not pairs:
        return []
    vol, shape = sysm.cell_volume, (sysm.cells_per_axis,) * d
    columns = _range_columns(sysm, level_lo, level_hi)
    TsH = _range_analysis(T.matrix.T, sysm, columns)               # (T* h_J)(y)
    elements = vol * _range_analysis(TsH.T, sysm, columns)         # <h_J, T h_I> at [J, I]

    toward_argument, toward_dual = extract_paraproducts(T, level_lo, level_hi)
    col_sym = np.array(list(toward_dual.values()))        # <1, T h_I>, in column order
    row_sym = np.array(list(toward_argument.values()))    # <h_I, T 1>
    # for every strict ancestor J of a cube I in the range, the pair (outer, inner)
    # = (J, I) and vals = h_J(I), the value of each h_J at I's first cell
    cubes = [cube for level, _, _ in columns for cube in sysm.cubes_at_level(level)]
    index = {cube.key(): k for k, cube in enumerate(cubes)}
    outer, inner = [], []
    for k, I in enumerate(cubes):
        anc = I
        while anc.level > level_lo:
            anc = anc.parent()
            outer.append(index[anc.key()])
            inner.append(k)
    outer, inner = np.array(outer, dtype=np.intp), np.array(inner, dtype=np.intp)
    starts = np.concatenate([first for _, _, first in columns], axis=1)
    levels = np.repeat([level for level, _, _ in columns], n_cubes)[outer]
    vals = np.empty((len(outer), n_eta))
    for level, _, _ in columns:
        at = levels == level
        offsets = tuple(starts[:, inner[at]] - starts[:, outer[at]])
        vals[at] = np.stack([_haar_values(d, level, 1 << (sysm.depth - level), eta)[offsets]
                             for eta in etas(d)], axis=-1)
    # each eta of J against each of I: the inner cube on the argument side
    # changes the coarse dual factor, on the dual side the coarse argument factor
    outer = n_eta * outer[:, None, None] + np.arange(n_eta)[:, None]
    inner = n_eta * inner[:, None, None] + np.arange(n_eta)
    ext = elements.copy()
    ext[outer, inner] -= vals[:, :, None] * col_sym[inner]
    ext[inner, outer] -= vals[:, :, None] * row_sym[inner]

    def symbol(coeffs: np.ndarray) -> ParaproductSpec:
        """The paraproduct of the symbol with these Haar coefficients in the range."""
        parts = np.split(coeffs.reshape(-1, n_eta), np.cumsum(n_cubes)[:-1])
        b = sum(_haar_synthesis(part, level, sysm.depth, first, np.zeros(len(part), np.intp),
                                (1,) + shape)[0]
                for part, (level, _, first) in zip(parts, columns))
        return ParaproductSpec(GridFunction(sysm, b[..., None]), (level_lo, level_hi))

    arg_spec, dual_spec = symbol(row_sym), symbol(col_sym)
    out = []
    for chunk in stack_chunks(pairs, sysm):
        gs, fs = [g for g, _ in chunk], [f for _, f in chunk]
        coeffs = vol * _range_analysis(
            np.array([h.scalar_values() for h in fs + gs]).reshape(2 * len(chunk), -1),
            sysm, columns)
        args = apply_paraproduct([arg_spec] * len(chunk), fs)
        duals = apply_paraproduct([dual_spec] * len(chunk), gs)
        for k, (g, f, arg, dual) in enumerate(zip(gs, fs, args, duals)):
            cf, cg = coeffs[k], coeffs[len(chunk) + k]
            out.append(PairingDecomposition(
                raw_pairing(g, T, f), float(cg @ elements @ cf), float(cg @ ext @ cf),
                pair(g, arg), pair(f, dual)))
    return out


def full_pairing_sum(T: DiscreteOperator, g: GridFunction, f: GridFunction,
                     level_lo: int, level_hi: int) -> float:
    """Unrestricted double Haar sum over the given cube levels.

    Built one level at a time from the list forms of haar_vector and
    haar_coefficient, independently of the Haar transform above, as a cross-check
    of the pairing; H has a column per cube and eta, cube-major.  The coefficients
    are summed against the Haar vectors before T applies, so no matrix of elements
    is formed.  Scalar functions only: a vector-valued f or g raises ValueError.
    """
    sysm, n_eta = T.system, (1 << T.system.d) - 1
    for h in (f, g):
        h.scalar_values()
    levels = [list(sysm.cubes_at_level(level)) for level in range(level_lo, level_hi + 1)]
    H = np.empty((sysm.n_cells, n_eta * sum(map(len, levels))))
    cf, cg, at = np.empty(H.shape[1]), np.empty(H.shape[1]), 0
    for cubes in levels:
        for e, eta in enumerate(etas(sysm.d)):
            cols = slice(at + e, at + n_eta * len(cubes), n_eta)
            H[:, cols] = haar_vector(cubes, eta).reshape(len(cubes), -1).T
            cf[cols], cg[cols] = (haar_coefficient(h, cubes, eta)[:, 0] for h in (f, g))
        at += n_eta * len(cubes)
    return sysm.cell_volume * float((H @ cg) @ (T.matrix @ (H @ cf)))


# -- decay of matrix-element magnitudes ----------------------------------------------


DECAY_CASES = ("far_disjoint", "near_disjoint", "equal", "deeply_nested",
               "shallowly_nested")


@dataclass(frozen=True)
class DecayReport:
    i_values: tuple
    magnitudes: tuple        # max over K of sup |a| per i
    slope: Optional[float]
    slope_target: Optional[float]


def _case_constraints(case: str, r: int, i: int) -> bool:
    if case in ("far_disjoint", "deeply_nested"):
        return i > r
    if case in ("near_disjoint", "shallowly_nested"):
        return 1 <= i <= r
    if case == "equal":
        return i == 0
    raise ValueError(f"unknown case {case!r}")


def decay_slope_target(case: str, alpha: float, gamma: float, d: int) -> Optional[float]:
    if case == "far_disjoint":
        return -(alpha * (1.0 - gamma) - gamma * d) + 0.1
    if case == "deeply_nested":
        return -alpha * (1.0 - gamma) + 0.1
    return None


def _diagonal_blocks(T: DiscreteOperator, level: int) -> tuple:
    """(box, view): the cell slices per axis that the level's cubes tile, and
    each cube's block of T against itself as one strided view of T, of shape
    (cubes per axis)*d + (cells per side)*2d, in `cubes_at_level` order."""
    sysm = T.system
    size = 1 << (sysm.depth - level)
    ranges = sysm.corner_ranges(level)
    first = sysm.level_cubes(level)[1][:, 0].tolist()
    box = tuple(slice(s, s + len(r) * size) for r, s in zip(ranges, first))
    split = sum(((len(r), size) for r in ranges), ())
    view = T.matrix.reshape((sysm.cells_per_axis,) * 2 * sysm.d)[box + box]
    d = sysm.d  # one cube index (a, b) and one cell index per axis, rows then columns
    return box, np.einsum(f"{'aibj'[:2 * d]}{'apbq'[:2 * d]}->{'ab'[:d]}{'ij'[:d]}{'pq'[:d]}",
                          view.reshape(split + split))


def decay_check(T: DiscreteOperator, case: str, i_values: Sequence[int],
                params: GoodnessParams, alpha: float) -> DecayReport:
    """Per-complexity peak coefficient magnitudes and their fitted decay slope.

    One-dimensional scalar kernels only: there each kernel-table point is
    hit by at most one Haar pair, so the sup of |a| over a cube K is the
    max over pairs of |K| |element| / sqrt(|I| |J|).

    The scan runs per K-level on the level's diagonal blocks of T, one
    strided view.  It contracts them once with h_K (nested, J = K) or with
    the h_J of K's two children (disjoint); each i then contracts K's 2^i
    descendant cell runs with the level-(k+i) Haar pattern, subtracts the
    paraproduct term h_K(I) <1, T h_I> when nested, and keeps the pairs with
    a good I (`good_mask`, once per level and call, as k + i recurs) and,
    when disjoint, I outside J's child of K.
    The equal case makes one list call of `matrix_element` per level, on the
    level's diagonal blocks: for an odd kernel <h_K, T h_K> vanishes, so its
    value is rounding noise that any other summation order would change, and
    each element keeps the bits of a lone call.
    """
    sysm = T.system
    if sysm.d != 1:
        raise ValueError("decay scan implemented for one dimension")
    if case not in DECAY_CASES:
        raise ValueError(f"unknown case {case!r}")
    nested = case in ("deeply_nested", "shallowly_nested")
    j = 1 if case in ("far_disjoint", "near_disjoint") else 0
    vol, col_sums = sysm.cell_volume, T._sums[0]

    def haar_at(level: int) -> np.ndarray:  # haar_block of any level-`level` cube
        return _haar_values(1, level, 1 << (sysm.depth - level), (1,))

    @functools.cache
    def good_at(level: int) -> np.ndarray:
        return good_mask(sysm, level, params)

    @functools.cache
    def level_rows(k: int) -> tuple:
        """The level's cell run and its diagonal blocks contracted with h_K or the h_J."""
        (box,), blocks = _diagonal_blocks(T, k)
        if nested:
            return box, haar_at(k) @ blocks
        halves = blocks.reshape(len(blocks), 2, -1, blocks.shape[-1])
        return box, haar_at(k + 1) @ halves

    def peak(k: int, i: int) -> float:
        if case == "equal":
            # |K| * vol_K^{-1} cancels in one dimension
            cubes = list(sysm.cubes_at_level(k))
            return float(np.abs(matrix_element(T, cubes, (1,), cubes, (1,))).max())
        box, rows = level_rows(k)
        n_runs, side = len(rows) << i, 1 << (sysm.depth - k - i)
        kv, iv, h_i = 2.0**-k, 2.0**-(k + i), haar_at(k + i)
        elem = vol * (rows.reshape(rows.shape[:-1] + (1 << i, side)) @ h_i)
        # a level's first cube starts less than one side past cell 0, so a
        # cube's index in the level is its start cell over its side
        good = good_at(k + i)[box.start // side:][:n_runs].reshape(-1, 1 << i)
        pos = np.arange(1 << i)  # I's place in K's run; it lies in child pos >> (i - 1)
        if nested:
            h_k_at_i = np.where(pos >> (i - 1) == 0, kv**-0.5, -kv**-0.5)
            para = (col_sums[box].reshape(-1, 1 << i, side) * h_i).sum(-1)
            elem = elem - h_k_at_i * vol * para
            scaled = kv * np.abs(elem) * kv**-0.5 * iv**-0.5
        else:
            scaled = kv * np.abs(elem) * (iv * 2.0**-(k + 1)) ** -0.5
            good = good[:, None, :] & (pos >> (i - 1) != np.arange(2)[:, None])
        return float(np.max(scaled, where=good, initial=0.0))

    mags, used_i = [], []
    for i in i_values:
        if not _case_constraints(case, params.r, i):
            continue
        top = 0.0
        for k_level in range(sysm.min_level, sysm.depth - max(i, j)):
            top = max(top, peak(k_level, i))
        if top > 0.0:
            mags.append(top)
            used_i.append(i)
    slope_target = decay_slope_target(case, alpha, params.gamma, sysm.d)
    if slope_target is not None and len(used_i) < 3:
        raise InsufficientDataError(
            f"case {case}: only {len(used_i)} usable complexities "
            "(the good-cube family may be empty at these parameters)"
        )
    if not used_i:
        raise InsufficientDataError(f"case {case}: no usable complexities")
    slope = float(np.polyfit(used_i, np.log2(mags), 1)[0]) if len(used_i) >= 3 else None
    return DecayReport(tuple(used_i), tuple(mags), slope, slope_target)


# -- weak boundedness -------------------------------------------------------------------


def wbp_constants(T: DiscreteOperator) -> dict:
    """Per-cube diagonal averaging quantities and their maximum, one level at a time."""
    sysm = T.system
    vol = sysm.cell_volume
    values = {}
    for level in range(sysm.min_level, sysm.depth + 1):
        sums = _diagonal_blocks(T, level)[1].sum(axis=tuple(range(sysm.d, 3 * sysm.d)))
        keys = ((level, corner) for corner in itertools.product(*sysm.corner_ranges(level)))
        values.update(zip(keys, (sums.ravel() * vol / (2.0**-level) ** sysm.d).tolist()))
    top = max(abs(v) for v in values.values()) if values else 0.0
    return {"per_cube": values, "max": top}


# -- averaging over translated grids -----------------------------------------------------


@dataclass(frozen=True)
class AveragingIdentityReport:
    lhs: float
    rhs: float
    pi_good: float
    top_scale_defect: float   # mean pairing of the two top-scale remainders
    coarse_share: float       # mean contribution of pairs with a too-coarse smaller cube

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self) -> float:
        scale = max(abs(self.lhs), 1e-300)
        return self.residual / scale


def _support_box(f: GridFunction) -> list:
    mask = np.abs(f.values).sum(axis=-1) > 0
    idx = np.nonzero(mask)
    return [(int(axis.min()), int(axis.max()) + 1) if axis.size else (0, 1)
            for axis in idx]


def _good_counts(base: DyadicSystem, level: int, gp: GoodnessParams, ranges: list) -> np.ndarray:
    """For each level-`level` cube of the per-axis corner ranges, how many of
    the 2^(d max_generations) patterns of its goodness window (the bits at
    `level` and the coarser scales `is_good` reads) make it good.  One system
    per pattern has only those bits set; `is_good` runs once per cube and
    pattern."""
    d, gens = base.d, gp.max_generations
    counts = np.zeros([len(r) for r in ranges], dtype=np.int64)
    corners = list(itertools.product(*ranges))
    zeros = ((0,) * d,)
    bits = list(itertools.product((0, 1), repeat=d))
    for window in itertools.product(bits, repeat=gens):  # scales level - gens < j <= level
        omega = zeros * (base.m_top + level - gens) + window + zeros * (base.depth - level)
        sysm = DyadicSystem(d=d, m_top=base.m_top, depth=base.depth, omega=omega)
        counts += np.reshape([is_good(sysm.cube(level, c), gp) for c in corners], counts.shape)
    return counts


_GATHER_CELLS = 1 << 13  # most cube-cell pairs of M h that `_companion_sums` holds at once


def _companion_sums(matrix: np.ndarray, vals: np.ndarray, coeffs: Sequence, blocks: list,
                    system: DyadicSystem, inclusive: bool) -> list:
    """Per level of `blocks`, (level, starts, region) from the finest on, and per cube
    and eta: vol <vals - chain, M h> on the region, M h by the Haar transform of the
    matrix's rows, `_GATHER_CELLS` cube-cell pairs at a time.  A cube's chain sums the
    `coeffs` times h over the finer levels' blocks of its shift s mod their side, and
    over block s when `inclusive`.  The chains are a cell array per shift, split per
    axis as (s // half, s % half): the finer chain at s % half plus the block's adjoint."""
    d, depth, cells = system.d, system.depth, (system.cells_per_axis,) * system.d
    sums = _prefix_sums(matrix.reshape((system.n_cells,) + cells), d)
    sums = sums.reshape(cells + sums.shape[1:])  # by the matrix row's cell
    out, prev = [], blocks[0][2]
    chain = np.zeros((1, 1) * d + tuple(r.stop - r.start for r in prev))
    for (level, starts, region), coef in zip(blocks, coeffs):
        size, half = 1 << (depth - level), 1 << (depth - level - 1)
        shape = tuple(r.stop - r.start for r in region)
        shifts = (starts - system.origin_cell) % size
        finer = np.pad(chain.reshape((half,) * d + chain.shape[2 * d:]), [(0, 0)] * d
                       + [(p.start - r.start, r.stop - p.stop) for p, r in zip(prev, region)])
        chain = _haar_synthesis(coef, level, depth, starts - [[r.start] for r in region],
                                np.ravel_multi_index(shifts, (size,) * d),
                                (size**d,) + shape).reshape((2, half) * d + shape)
        chain += finer.reshape((1, half) * d + shape)
        source, at = ((chain, [x for s in shifts for x in divmod(s, half)]) if inclusive
                      else (finer, list(shifts % half)))
        step, parts = max(1, _GATHER_CELLS // int(np.prod(shape))), []
        for first in range(0, len(coef), step):
            rest = vals[region] - source[tuple(a[first:first + step] for a in at)]
            mh = _haar_analysis(sums[region], level, depth, starts[:, first:first + step])
            parts.append(np.einsum("kx,xke->ke", rest.reshape(len(rest), -1),
                                   mh.reshape((-1,) + mh.shape[d:])))
        out.append(system.cell_volume * np.concatenate(parts))
        prev = region
    return out


def averaging_identity_residual(T: DiscreteOperator, g: GridFunction,
                                f: GridFunction, gp: GoodnessParams
                                ) -> AveragingIdentityReport:
    """Grid-averaged good-pair sums against the plain pairing, over all 2^n
    translated grids, n the (m_top + depth) * d translation bits; `gp` must set
    `max_generations`.

    For each translation, every cube deep enough to carry a full
    goodness bit window contributes, when good, its Haar coefficient times
    the complete companion sum over the coarser-or-equal scales (realized
    through the direct pairing with the operator, so the companion side is
    never truncated).  The companion quantity of a cube depends only on
    strictly finer translation bits than its goodness does, so dividing
    the grid average by the enumerated goodness probability recovers the
    pairing exactly up to two reported remainders: the product of the two
    top-scale averages and the pairs whose smaller cube sits below the
    eligibility floor.

    The average is taken over blocks, not grids.  A block is a level and
    its shift s; s fixes every finer level's shift (s mod that level's
    side), so both companion sums of a block's cubes depend on the block
    alone, and the block lies in a share 2^(-d (depth - level)) of the
    grids.  A cube's goodness depends only on its window bits, coarser
    than s, so it enters as the share of window patterns that make its
    cube good.

    Each level works on the cells within one side of the support box, the
    only cells its cubes meeting the box cover, with the Haar transform and
    its adjoint (see `_companion_sums`); no matrix-matrix product is formed.
    """
    base = T.system
    gens = gp.max_generations
    if gens is None:
        raise ValueError("translated-grid averaging needs a relative "
                         "ancestor truncation (max_generations)")
    pi = goodness_probability(gens, gp, base.d)
    if pi.good_count == 0:
        raise DegenerateInputError("goodness probability vanishes; cannot normalize")

    d, vol, n_eta, depth = base.d, base.cell_volume, (1 << base.d) - 1, base.depth
    floor = base.min_level + gens
    box = np.array([(min(a[0], b[0]), max(a[1], b[1]))
                    for a, b in zip(_support_box(f), _support_box(g))])
    # per level, finest first: its side and per axis the first and last start cell
    # of its cubes meeting the box (over all shifts, every cell from a side before it)
    spans = []
    for level in range(depth - 1, base.min_level - 1, -1):
        size = 1 << (depth - level)
        spans.append((level, size, np.maximum(box[:, 0] - size + 1, 0),
                      np.minimum(box[:, 1] - 1, base.cells_per_axis - size)))
    n_cols = n_eta * sum(int(np.prod(hi - lo + 1)) for _, _, lo, hi in spans)
    # the prefix sums of T's rows or columns, and per level its chains (the finer
    # level's, their copy on its cells and its own) and one chunk of T h or T* h
    # with its gathers at 3^d corners and its cubes' rest values
    n_bytes = 8 * (base.n_cells * (base.cells_per_axis + 1)**d + max(
        3 * size**d * int(np.prod(hi - lo + size + 1))
        + (3**d + n_eta + 2) * max(_GATHER_CELLS, int(np.prod(hi - lo + size)))
        for _, size, lo, hi in spans))
    if n_bytes > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(
            f"{n_cols} Haar columns of {base.n_cells} cells "
            f"need {n_bytes} bytes, above the cap {_ASSEMBLE_BYTE_CAP}")

    lhs = raw_pairing(g, T, f)
    f_vals, g_vals = f.scalar_values(), g.scalar_values()
    blocks = [(level, np.indices(hi - lo + 1).reshape(d, -1) + lo[:, None],
               tuple(slice(a, b + size) for a, b in zip(lo, hi))) for level, size, lo, hi in spans]
    fg_sums = _prefix_sums(np.array([f_vals, g_vals]), d)
    cf, cg = zip(*(vol * _haar_analysis(fg_sums, level, depth, starts)
                   for level, starts, _ in blocks))
    # <g - its strictly finer chain, T h_I> and <f - its chain to I's level, T* h_J>
    side_f = _companion_sums(T.matrix, g_vals, cg, blocks, base, inclusive=False)
    side_g = _companion_sums(T.matrix.T, f_vals, cf, blocks, base, inclusive=True)

    sides, good = [], []
    for (level, starts, _), f_coef, f_side, g_coef, g_side in zip(blocks, cf, side_f, cg, side_g):
        shift = depth - level
        # each cube's companion sums, weighted by its block's share of the grids
        sides.append((f_coef * f_side + g_coef * g_side).reshape(-1) / (1 << d * shift))
        corners = (starts - base.origin_cell) >> shift
        low, high = corners.min(axis=1), corners.max(axis=1)
        counts = (_good_counts(base, level, gp, [range(*r) for r in zip(low, high + 1)])[
            tuple(corners - low[:, None])] if level >= floor else np.zeros(corners.shape[1]))
        good.append(np.repeat(counts, n_eta))

    n_coarse = sum(len(side) for (level, _, _), side in zip(blocks, sides) if level < floor)
    sides, good = np.concatenate(sides[::-1]), np.concatenate(good[::-1])
    total = float(sides.sum())
    coarse = float(sides[:n_coarse].sum())
    goodsum = float((sides * good).sum()) / (1 << (d * gens))
    return AveragingIdentityReport(lhs=lhs, rhs=goodsum / pi.value, pi_good=pi.value,
                                   top_scale_defect=lhs - total, coarse_share=coarse)
