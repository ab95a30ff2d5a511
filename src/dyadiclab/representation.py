"""Singular kernels on the mesh, Haar matrix elements, and grid averaging.

A kernel operator is discretized by its values at cell-pair midpoints, so
the discrete couplings are themselves admissible kernel values and the
decay estimates for Haar matrix elements apply verbatim to the discrete
sums.  Diagonal cells are never computed from the kernel; they are zero,
so the weak-boundedness quantities see only the off-diagonal couplings.

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
from .grid import (DyadicCube, DyadicSystem, GoodnessParams, good_mask, goodness_probability,
                   is_good)
from .gridfn import (GridFunction, _haar_values, etas, fill_haar_frame, haar_block,
                     haar_coefficient, haar_frame, haar_vector, pair, stack_chunks)
from .shifts import ParaproductSpec, apply_paraproduct
# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class CzKernel:
    """A singular kernel with its smoothness exponent and an optional cutoff."""

    fn: Callable  # (x, y) arrays of shape (..., d) -> values (scalar case)
    alpha: float
    cutoff: Optional[float] = None
    name: str = "kernel"

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(x, y), dtype=float)
        if self.cutoff is not None:
            dist = np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)
            vals = np.where(dist <= self.cutoff, vals, 0.0)
        return vals

def hilbert_kernel(cutoff: Optional[float] = None) -> CzKernel:
    """k(x, y) = 1/(x - y) in one dimension."""

    def fn(x, y):
        diff = x[..., 0] - y[..., 0]
        with np.errstate(divide="ignore"):
            return np.where(diff != 0.0, 1.0 / np.where(diff == 0, 1.0, diff), 0.0)

    return CzKernel(fn, alpha=1.0, cutoff=cutoff, name="hilbert")


def smooth_odd_kernel(width: float = 0.25, cutoff: Optional[float] = 1.0) -> CzKernel:
    """Bounded odd kernel (x-y) exp(-((x-y)/w)^2) / w^2 for identity tests."""

    def fn(x, y):
        diff = (x - y).sum(axis=-1)
        return diff * np.exp(-((diff / width) ** 2)) / width**2

    return CzKernel(fn, alpha=1.0, cutoff=cutoff, name=f"smooth-odd-{width}")


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

    def block(self, rows: DyadicCube, cols: DyadicCube) -> np.ndarray:
        """Couplings from the cells of `cols` to the cells of `rows`, as a matrix."""
        c, d = self.system.cells_per_axis, self.system.d
        view = self.matrix.reshape((c,) * 2 * d)[rows.cell_slices() + cols.cell_slices()]
        return view.reshape(rows.size_cells**d, cols.size_cells**d)


_ASSEMBLE_BYTE_CAP = 1 << 30
_ASSEMBLE_ROWS = 64  # kernel rows evaluated per pass over the cell centres


def assemble(kernel: CzKernel, system: DyadicSystem) -> DiscreteOperator:
    """Midpoint-rule discretization, with zero on the diagonal cells.

    Raises ResourceLimitError before allocating when the n_cells^2 float
    matrix would exceed 1 GiB.
    """
    n = system.n_cells
    if 8 * n * n > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(f"a {n} x {n} operator needs {8 * n * n} bytes, "
                                 f"above the cap {_ASSEMBLE_BYTE_CAP}")
    centers = system.cell_centers().reshape(-1, system.d)
    mat = np.empty((n, n))
    for lo in range(0, n, _ASSEMBLE_ROWS):
        hi = min(lo + _ASSEMBLE_ROWS, n)
        mat[lo:hi] = kernel(centers[lo:hi, None, :], centers[None, :, :])
    mat *= system.cell_volume
    np.fill_diagonal(mat, 0.0)
    return DiscreteOperator(system, mat)


def raw_pairing(g: GridFunction, T: DiscreteOperator, f: GridFunction) -> float:
    return pair(g, T.apply(f))


# -- Haar matrix elements ----------------------------------------------------------


def matrix_element(T: DiscreteOperator, J: DyadicCube, etaJ,
                   I: DyadicCube, etaI, convention: str = "raw") -> float:
    """Haar matrix element <h_J, T h_I>, raw or with paraproducts extracted.

    Reads only the two cubes' cell slices of T.  For nested pairs the
    extracted element is the raw one less the paraproduct term:
    h_J(I) <1, T h_I> when J strictly contains I, h_I(J) <h_J, T 1> when
    I strictly contains J.
    """
    if convention not in ("raw", "paraproduct_extracted"):
        raise ValueError(f"unknown convention {convention!r}")
    vol = T.system.cell_volume
    hJ, hI = haar_block(J, etaJ), haar_block(I, etaI)
    raw = vol * float(hJ.reshape(-1) @ T.block(J, I) @ hI.reshape(-1))
    if convention == "raw":
        return raw
    col_sums, row_sums = T._sums
    if J.level < I.level and J.contains_cube(I):
        hJ_at_I = hJ[tuple(np.subtract(I.start_cells(), J.start_cells()))]
        return raw - float(hJ_at_I) * vol * float((col_sums[I.cell_slices()] * hI).sum())
    if I.level < J.level and I.contains_cube(J):
        hI_at_J = hI[tuple(np.subtract(J.start_cells(), I.start_cells()))]
        return raw - float(hI_at_J) * vol * float((row_sums[J.cell_slices()] * hJ).sum())
    return raw


# -- paraproduct extraction ----------------------------------------------------------


def extract_paraproducts(T: DiscreteOperator, level_lo: int, level_hi: int) -> tuple:
    """Coefficient tables of the two extracted paraproduct symbols.

    Returns (toward_argument, toward_dual): {(level, corner, eta): value}
    holding <1, T* h_Q> (the symbol tested against the argument's
    averages) and <1, T h_I> (its dual-side partner).
    """
    vol = T.system.cell_volume
    col_sums, row_sums = T._sums
    cols, H = haar_frame(T.system, level_lo, level_hi)
    keys = [cube.key() + (eta,) for cube, eta in cols]
    toward_argument = dict(zip(keys, (vol * (row_sums.reshape(-1) @ H)).tolist()))
    toward_dual = dict(zip(keys, (vol * (col_sums.reshape(-1) @ H)).tolist()))
    return toward_argument, toward_dual


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

    The operator-only work is done once per call: the Haar frame, the
    matrix of elements, the two symbol tables and their grid functions,
    and the ancestor nest of the extracted convention.  Each pair then
    takes its coefficients and sums exactly as a one-pair call would.
    Standard systems only, or any system whose level_lo is cell-aligned (so
    every finer level is too); a translated level_lo raises ValueError.
    Raises ResourceLimitError, before building anything, when the two
    frames and the two element matrices would pass the assembly byte cap.
    """
    sysm = T.system
    if any(sysm.shift_cells(level_lo)):
        raise ValueError(f"level {level_lo} of this system is translated; "
                         "pairing_decomposition needs cell-aligned levels")
    # the frame and T.matrix @ H, n_cells x n_cols each, and the elements and
    # their extracted copy, n_cols x n_cols each; cubes counted from corner ranges
    n_cubes = sum(int(np.prod([len(r) for r in sysm.corner_ranges(level)]))
                  for level in range(level_lo, level_hi + 1))
    n_cells, n_cols = sysm.n_cells, len(etas(sysm.d)) * n_cubes
    n_bytes = 8 * (2 * n_cells * n_cols + 2 * n_cols * n_cols)
    if n_bytes > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(f"{n_cols} Haar columns of {n_cells} cells need {n_bytes} "
                                 f"bytes, above the cap {_ASSEMBLE_BYTE_CAP}")
    if not pairs:
        return []
    vol = sysm.cell_volume
    cols, H = haar_frame(sysm, level_lo, level_hi)
    elements = vol * (H.T @ (T.matrix @ H))

    toward_argument, toward_dual = extract_paraproducts(T, level_lo, level_hi)
    keys = [cube.key() + (eta,) for cube, eta in cols]
    col_sym = np.array([toward_dual[key] for key in keys])        # <1, T h_I>
    row_sym = np.array([toward_argument[key] for key in keys])    # <h_I, T 1>
    # for every strict ancestor J of I in the range, the pair (outer, inner)
    # = (J, I) and vals = h_J(I), the value of h_J at I's first cell
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
    # the inner cube on the argument side changes the coarse dual factor,
    # on the dual side the coarse argument factor
    ext = elements.copy()
    ext[outer, inner] -= vals * col_sym[inner]
    ext[inner, outer] -= vals * row_sym[inner]

    # the symbols whose Haar coefficients in the range are the two tables
    shape = (sysm.cells_per_axis,) * sysm.d + (1,)
    arg_spec = ParaproductSpec(GridFunction(sysm, (H @ row_sym).reshape(shape)),
                               (level_lo, level_hi))
    dual_spec = ParaproductSpec(GridFunction(sysm, (H @ col_sym).reshape(shape)),
                                (level_lo, level_hi))
    out = []
    for chunk in stack_chunks(pairs, sysm):
        gs, fs = [g for g, _ in chunk], [f for _, f in chunk]
        args = apply_paraproduct([arg_spec] * len(chunk), fs)
        for g, f, arg, dual in zip(gs, fs, args, apply_paraproduct([dual_spec] * len(chunk), gs)):
            cf = vol * (H.T @ f.scalar_values().reshape(-1))
            cg = vol * (H.T @ g.scalar_values().reshape(-1))
            out.append(PairingDecomposition(
                raw_pairing(g, T, f), float(cg @ elements @ cf), float(cg @ ext @ cf),
                pair(g, arg), pair(f, dual)))
    return out


def full_pairing_sum(T: DiscreteOperator, g: GridFunction, f: GridFunction,
                     level_lo: int, level_hi: int) -> float:
    """Unrestricted double Haar sum over the given cube levels.

    Built cube by cube from haar_vector and haar_coefficient, independently
    of the frames above, as a cross-check of the pairing.  The coefficients
    are summed against the Haar vectors before T applies, so no matrix of
    elements is formed.
    """
    sysm = T.system
    cols = [(cube, eta) for level in range(level_lo, level_hi + 1)
            for cube in sysm.cubes_at_level(level) for eta in etas(sysm.d)]
    H = np.stack([haar_vector(cube, eta).reshape(-1) for cube, eta in cols], axis=1)
    cf = np.array([haar_coefficient(f, cube, eta)[0] for cube, eta in cols])
    cg = np.array([haar_coefficient(g, cube, eta)[0] for cube, eta in cols])
    return sysm.cell_volume * float((H @ cg) @ (T.matrix @ (H @ cf)))


# -- decay of matrix-element magnitudes ----------------------------------------------


DECAY_CASES = ("far_disjoint", "near_disjoint", "equal", "deeply_nested",
               "shallowly_nested")


@dataclass(frozen=True)
class DecayReport:
    case: str
    i_values: tuple
    magnitudes: tuple        # max over K of sup |a| per i
    slope: Optional[float]
    slope_target: Optional[float]

    @property
    def passed(self) -> bool:
        if self.slope_target is None:
            return all(np.isfinite(self.magnitudes))
        return self.slope is not None and self.slope <= self.slope_target


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
    box = tuple(slice(r.start * size + sysm.origin_cell + s, r.stop * size + sysm.origin_cell + s)
                for r, s in zip(ranges, sysm.shift_cells(level)))
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
    The equal case stays on `matrix_element`, one call per cube: for an odd
    kernel <h_K, T h_K> vanishes, so its value is rounding noise that any
    other summation order would change.
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
            eta = (1,)
            return max(abs(matrix_element(T, K, eta, K, eta)) for K in sysm.cubes_at_level(k))
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
    return DecayReport(case, tuple(used_i), tuple(mags), slope, slope_target)


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
class RepresentationConfig:
    """Goodness data and the cap on enumerated translation bits.

    The averaging identity covers all 2^n translated grids, n the
    (m_top + depth) * d translation bits, as 2^n coarsest-level blocks, and
    raises ResourceLimitError when n exceeds `exhaustive_bit_cap`.
    """

    goodness: GoodnessParams
    exhaustive_bit_cap: int = 20

    def __post_init__(self):
        if self.goodness.max_generations is None:
            raise ValueError("translated-grid averaging needs a relative "
                             "ancestor truncation (max_generations)")


@dataclass(frozen=True)
class AveragingIdentityReport:
    lhs: float
    rhs: float
    pi_good: float
    n_samples: int
    top_scale_defect: float   # mean pairing of the two top-scale remainders
    coarse_share: float       # mean contribution of pairs with a too-coarse smaller cube
    full_sum_mean: float

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


def _corner_bounds(system: DyadicSystem, level: int, box) -> tuple:
    """(lo, hi), each of shape (d, 2^(depth - level)): along each axis and for
    each translation s of the level by 0 <= s < 2^(depth - level) cells, the
    first and last corner of the level's cubes meeting the cell box, by
    `corner_ranges`' formula; hi < lo where no cube meets it."""
    size = 1 << (system.depth - level)
    base = system.origin_cell + np.arange(size)
    lo_cell, hi_cell = np.array(box).T[..., None]
    lo = np.maximum(-((base + size - 1 - lo_cell) // size), -(base // size))
    hi = np.minimum((hi_cell - 1 - base) // size,
                    (system.cells_per_axis - size - base) // size)
    return lo, hi


def _good_counts(base: DyadicSystem, level: int, gp: GoodnessParams, ranges: list) -> np.ndarray:
    """For each level-`level` cube of the per-axis corner ranges, how many of
    the 2^(d max_generations) patterns of its goodness window (the bits at
    `level` and the coarser scales `is_good` reads) make it good.  One system
    per pattern has only those bits set; `is_good` runs once per cube and
    pattern."""
    d, gens = base.d, gp.max_generations
    counts = np.zeros([len(r) for r in ranges], dtype=np.int64)
    corners = list(itertools.product(*ranges))
    for word in range(1 << (d * gens)):
        omega = [(0,) * d] * (base.m_top + base.depth)
        for t in range(gens):  # the bits of scale level - t
            omega[level - t + base.m_top - 1] = tuple((word >> (t * d + ax)) & 1
                                                      for ax in range(d))
        sysm = DyadicSystem(d=d, m_top=base.m_top, depth=base.depth, omega=tuple(omega))
        counts += np.reshape([is_good(sysm.cube(level, c), gp) for c in corners], counts.shape)
    return counts


def averaging_identity_residual(T: DiscreteOperator, g: GridFunction,
                                f: GridFunction, config: RepresentationConfig
                                ) -> AveragingIdentityReport:
    """Grid-averaged good-pair sums against the plain pairing.

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
    side), so both companion sums of a block's columns depend on the block
    alone, and the block lies in a share 2^(-d (depth - level)) of the
    grids.  A column's goodness depends only on its window bits, coarser
    than s, so it enters as the share of window patterns that make its
    cube good.
    """
    base = T.system
    gp = config.goodness
    gens = gp.max_generations
    pi = goodness_probability(gens, gp, base.d)
    if pi.good_count == 0:
        raise DegenerateInputError("goodness probability vanishes; cannot normalize")
    n_bits = (base.m_top + base.depth) * base.d
    if n_bits > config.exhaustive_bit_cap:
        raise ResourceLimitError(f"{n_bits} translation bits exceed the exhaustive "
                                 f"cap {config.exhaustive_bit_cap}")

    d, vol, n_eta = base.d, base.cell_volume, (1 << base.d) - 1
    levels = range(base.min_level, base.depth)
    floor = base.min_level + gens
    box = [(min(a[0], b[0]), max(a[1], b[1]))
           for a, b in zip(_support_box(f), _support_box(g))]
    bounds = [_corner_bounds(base, level, box) for level in levels]
    # a block has the product over axes of its corner counts; over all
    # shifts, that sums to the product of the per-axis sums
    n_cubes = [int(np.prod(np.maximum(hi - lo + 1, 0).sum(axis=1))) for lo, hi in bounds]
    n_cols = n_eta * sum(n_cubes)
    # W and T W, up to 16 vectors per column, a chain pair per level on the stack
    n_bytes = 8 * (n_cols * (2 * base.n_cells + 16) + 2 * base.n_cells * (len(levels) + 2))
    if n_bytes > _ASSEMBLE_BYTE_CAP:
        raise ResourceLimitError(
            f"{n_cols} Haar columns of {base.n_cells} cells "
            f"need {n_bytes} bytes, above the cap {_ASSEMBLE_BYTE_CAP}")

    # the columns level by level, blocks in row-major shift order, cubes in
    # row-major corner order, etas within a cube
    starts, good, block_cols, first = [], np.zeros(n_cols), {}, 0
    for level, (lo, hi) in zip(levels, bounds):
        size, level_first = 1 << (base.depth - level), first
        lo, hi = lo.tolist(), hi.tolist()
        corners, shifts = [], []
        for s in itertools.product(range(size), repeat=d):
            block = list(itertools.product(*(range(lo[ax][t], hi[ax][t] + 1)
                                             for ax, t in enumerate(s))))
            block_cols[level, s] = slice(first, first + n_eta * len(block))
            first += n_eta * len(block)
            corners += block
            shifts += [s] * len(block)
        corners = np.array(corners, dtype=np.intp).reshape(-1, d)
        shifts = np.array(shifts, dtype=np.intp).reshape(-1, d)
        starts.append((level, (corners * size + base.origin_cell + shifts).T))
        if level >= floor and len(corners):
            low = corners.min(axis=0)
            ranges = [range(a, b + 1) for a, b in zip(low, corners.max(axis=0))]
            counts = _good_counts(base, level, gp, ranges)[tuple((corners - low).T)]
            good[level_first:first] = np.repeat(counts, n_eta)

    lhs = raw_pairing(g, T, f)
    f_flat = f.scalar_values().reshape(-1)
    g_flat = g.scalar_values().reshape(-1)
    W = fill_haar_frame(base, starts)
    TW = T.matrix @ W
    cf, cg = vol * (W.T @ f_flat), vol * (W.T @ g_flat)
    pair_f = vol * (g_flat @ TW)                # <g, T h_I> per column
    pair_g = vol * (W.T @ (T.matrix @ f_flat))  # <h_J, T f> per column

    # From the finest level to the coarsest: block (level, s) is the finer
    # chain of the 2^d blocks (level - 1, s + t 2^(depth - level)), t in
    # {0, 1}^d.  An entry carries its strictly finer chain's sum of cg h_J
    # and its own and finer chain's sum of cf T h_I, as cell vectors.
    dot_f, dot_g = np.empty(n_cols), np.empty(n_cols)
    zero = np.zeros(base.n_cells)
    stack = [(level, s, zero, zero) for level in levels[-1:]  # the finest, if any
             for s in itertools.product(range(2), repeat=d)]
    while stack:
        level, s, chain_g, chain_tf = stack.pop()
        cols = block_cols[level, s]
        w, tw = W[:, cols], TW[:, cols]
        chain_tf = chain_tf + tw @ cf[cols]
        dot_f[cols] = chain_g @ tw
        dot_g[cols] = chain_tf @ w
        if level > base.min_level:
            chain_g = chain_g + w @ cg[cols]
            side = 1 << (base.depth - level)
            stack += [(level - 1, tuple(a + b * side for a, b in zip(s, t)), chain_g, chain_tf)
                      for t in itertools.product((0, 1), repeat=d)]

    # each column's companion sums, weighted by its block's share of the grids
    weight = np.repeat([2.0 ** (-d * (base.depth - level)) for level in levels],
                       [n_eta * n for n in n_cubes])
    sides = weight * (cf * (pair_f - vol * dot_f) + cg * (pair_g - vol * dot_g))
    total = float(sides.sum())
    coarse = float(sides[:n_eta * sum(n_cubes[:floor - base.min_level])].sum())
    goodsum = float(sides @ good) / (1 << (d * gens))
    return AveragingIdentityReport(lhs=lhs, rhs=goodsum / pi.value, pi_good=pi.value,
                                   n_samples=1 << n_bits, top_scale_defect=lhs - total,
                                   coarse_share=coarse, full_sum_mean=total)
