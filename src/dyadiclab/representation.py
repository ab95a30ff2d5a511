"""Singular kernels on the mesh, Haar matrix elements, and grid averaging.

A kernel operator is discretized by midpoint sampling on cell pairs, so
the discrete couplings are themselves admissible kernel values and the
decay estimates for Haar matrix elements apply verbatim to the discrete
sums.  Diagonal cells are never computed from the kernel; they are a
free parameter (default zero) visible only through the weak-boundedness
quantities.

Conventions for nested Haar pairs follow the paraproduct extraction: for
I strictly inside J the element pairs T h_I against the coarse factor
with its value on the child containing I removed and that child excluded
from the integration; symmetrically when J is strictly inside I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegenerateInputError, InsufficientDataError, MeshDepthError,
                     ResourceLimitError)
from .grid import (DyadicCube, DyadicSystem, GoodnessParams, common_ancestor,
                   goodness_probability, is_good)
from .gridfn import GridFunction, haar_coefficient, haar_vector, pair
from .rng import substream
from .shifts import ParaproductSpec, apply_averaging, apply_paraproduct
# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class CzKernel:
    """A singular kernel with decay/smoothness constants and optional cutoff."""

    fn: Callable  # (x, y) arrays of shape (..., d) -> values (scalar case)
    alpha: float
    c0: float
    c_alpha: float
    cutoff: Optional[float] = None
    name: str = "kernel"

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(x, y), dtype=float)
        if self.cutoff is not None:
            dist = np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)
            vals = np.where(dist <= self.cutoff, vals, 0.0)
        return vals

    def descriptor(self) -> str:
        return json.dumps(
            {"name": self.name, "alpha": self.alpha, "c0": self.c0,
             "c_alpha": self.c_alpha, "cutoff": self.cutoff},
            sort_keys=True,
        )


def hilbert_kernel(cutoff: Optional[float] = None) -> CzKernel:
    """k(x, y) = 1/(x - y) in one dimension."""

    def fn(x, y):
        diff = x[..., 0] - y[..., 0]
        with np.errstate(divide="ignore"):
            return np.where(diff != 0.0, 1.0 / np.where(diff == 0, 1.0, diff), 0.0)

    return CzKernel(fn, alpha=1.0, c0=1.0, c_alpha=2.0, cutoff=cutoff, name="hilbert")


def smooth_odd_kernel(width: float = 0.25, cutoff: Optional[float] = 1.0) -> CzKernel:
    """Bounded odd kernel (x-y) exp(-((x-y)/w)^2) / w^2 for identity tests."""

    def fn(x, y):
        diff = (x - y).sum(axis=-1)
        return diff * np.exp(-((diff / width) ** 2)) / width**2

    return CzKernel(fn, alpha=1.0, c0=1.0, c_alpha=4.0, cutoff=cutoff,
                    name=f"smooth-odd-{width}")


def validate_kernel(kernel: CzKernel, d: int, samples: int, seed: int) -> dict:
    """Sampled decay and smoothness quotients against the stated constants."""
    gen = substream(seed, "kernel-validate")
    x = gen.uniform(-1.0, 1.0, size=(samples, d))
    y = gen.uniform(-1.0, 1.0, size=(samples, d))
    keep = np.linalg.norm(x - y, axis=-1) > 1e-6
    if kernel.cutoff is not None:
        keep &= np.linalg.norm(x - y, axis=-1) <= kernel.cutoff
    x, y = x[keep], y[keep]
    dist = np.linalg.norm(x - y, axis=-1)
    decay = np.abs(kernel(x, y)) * dist**d
    # admissible perturbations of the first argument
    step = gen.uniform(0.05, 0.45, size=x.shape[0])[:, None]
    direction = gen.standard_normal(x.shape)
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    xp = x + direction * step * dist[:, None]
    move = np.linalg.norm(x - xp, axis=-1)
    holder = (np.abs(kernel(x, y) - kernel(xp, y))
              * (dist / move) ** kernel.alpha * dist**d)
    if kernel.cutoff is not None:
        inside = (np.linalg.norm(xp - y, axis=-1) <= kernel.cutoff)
        holder = holder[inside]
    return {
        "max_decay": float(decay.max()),
        "max_holder": float(holder.max()) if holder.size else 0.0,
        "decay_ok": bool(decay.max() <= kernel.c0 + 1e-9),
        "holder_ok": bool(holder.size == 0 or holder.max() <= kernel.c_alpha + 1e-9),
    }


# -- discretized operator --------------------------------------------------------


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense matrix acting on flattened cell functions; couplings include cell volume."""

    system: DyadicSystem
    matrix: np.ndarray

    def __post_init__(self):
        n = self.system.n_cells
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")
        object.__setattr__(self, "matrix", mat)

    def apply(self, f: GridFunction) -> GridFunction:
        flat = f.values.reshape(self.system.n_cells, f.space.dim)
        out = self.matrix @ flat
        return GridFunction(self.system, out.reshape(f.values.shape), f.space)

    def adjoint(self) -> "DiscreteOperator":
        return DiscreteOperator(self.system, self.matrix.T.copy())


def assemble(kernel: CzKernel, system: DyadicSystem, diagonal: float = 0.0,
             chunk: int = 512) -> DiscreteOperator:
    """Midpoint-rule discretization; diagonal cells take the free parameter."""
    centers = system.cell_centers().reshape(-1, system.d)
    n = centers.shape[0]
    mat = np.empty((n, n))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        mat[lo:hi] = kernel(centers[lo:hi, None, :], centers[None, :, :])
    mat *= system.cell_volume
    np.fill_diagonal(mat, diagonal)
    return DiscreteOperator(system, mat)


def raw_pairing(g: GridFunction, T: DiscreteOperator, f: GridFunction) -> float:
    return pair(g, T.apply(f))


# -- Haar matrix elements ----------------------------------------------------------


def _flat_haar(cube: DyadicCube, eta) -> np.ndarray:
    return haar_vector(cube, eta).reshape(-1)


def _nested_left_vector(J: DyadicCube, etaJ, I: DyadicCube) -> np.ndarray:
    """1 off the child of J containing I, times (h_J minus its value there)."""
    child = I.ancestor(I.level - J.level - 1)
    h = haar_vector(J, etaJ)
    value = h[tuple(s.start for s in child.cell_slices())]
    w = h - value
    w[child.cell_slices()] = 0.0
    return w.reshape(-1)


def matrix_element(T: DiscreteOperator, J: DyadicCube, etaJ,
                   I: DyadicCube, etaI, convention: str = "raw") -> float:
    """Haar matrix element <h_J, T h_I>, raw or with paraproducts extracted."""
    vol = T.system.cell_volume
    if convention == "raw":
        return float(vol * _flat_haar(J, etaJ) @ (T.matrix @ _flat_haar(I, etaI)))
    if convention != "paraproduct_extracted":
        raise ValueError(f"unknown convention {convention!r}")
    if J.level < I.level and J.contains_cube(I):
        left = _nested_left_vector(J, etaJ, I)
        return float(vol * left @ (T.matrix @ _flat_haar(I, etaI)))
    if I.level < J.level and I.contains_cube(J):
        right = _nested_left_vector(I, etaI, J)
        return float(vol * _flat_haar(J, etaJ) @ (T.matrix @ right))
    return float(vol * _flat_haar(J, etaJ) @ (T.matrix @ _flat_haar(I, etaI)))


def quadrature_refinement_gap(kernel: CzKernel, system: DyadicSystem,
                              J: DyadicCube, etaJ, I: DyadicCube, etaI,
                              diagonal: float = 0.0) -> float:
    """Difference of the raw element against assembly on a 4x refined mesh.

    A gap above 1e-6 flags the kernel as under-resolved at this mesh.
    """
    fine = DyadicSystem(d=system.d, m_top=system.m_top, depth=system.depth + 2,
                        omega=system.omega)
    coarse_val = matrix_element(assemble(kernel, system, diagonal), J, etaJ, I, etaI)
    fj = fine.cube(J.level, J.corner)
    fi = fine.cube(I.level, I.corner)
    fine_val = matrix_element(assemble(kernel, fine, diagonal), fj, etaJ, fi, etaI)
    return abs(coarse_val - fine_val)


# -- paraproduct extraction ----------------------------------------------------------


def _standard_cubes(system: DyadicSystem, level_lo: int, level_hi: int) -> list:
    cubes = []
    for level in range(level_lo, level_hi + 1):
        cubes.extend(system.cubes_at_level(level))
    return cubes


def extract_paraproducts(T: DiscreteOperator, level_lo: int, level_hi: int) -> tuple:
    """Coefficient tables of the two extracted paraproduct symbols.

    Returns (toward_argument, toward_dual): {(level, corner, eta): value}
    holding <1, T* h_Q> (the symbol tested against the argument's
    averages) and <1, T h_I> (its dual-side partner).
    """
    sysm = T.system
    vol = sysm.cell_volume
    col_sums = vol * T.matrix.sum(axis=0)
    row_sums = vol * T.matrix.sum(axis=1)
    toward_argument, toward_dual = {}, {}
    from .gridfn import etas

    for cube in _standard_cubes(sysm, level_lo, level_hi):
        for eta in etas(sysm.d):
            h = _flat_haar(cube, eta)
            toward_dual[cube.key() + (eta,)] = float(col_sums @ h)   # <1, T h>
            toward_argument[cube.key() + (eta,)] = float(row_sums @ h)  # <1, T* h>
    return toward_argument, toward_dual


def synthesize_symbol(system: DyadicSystem, table: dict, level_lo: int,
                      level_hi: int) -> GridFunction:
    """Grid function whose Haar coefficients in the range equal the table."""
    vals = np.zeros((system.cells_per_axis,) * system.d)
    from .gridfn import etas

    for cube in _standard_cubes(system, level_lo, level_hi):
        for eta in etas(system.d):
            coeff = table.get(cube.key() + (eta,), 0.0)
            if coeff:
                vals += coeff * haar_vector(cube, eta)
    return GridFunction(system, vals[..., None])


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


def pairing_decomposition(T: DiscreteOperator, g: GridFunction, f: GridFunction,
                          level_lo: int, level_hi: int) -> PairingDecomposition:
    """Raw double Haar sum against its extracted form plus paraproduct terms."""
    sysm = T.system
    vol = sysm.cell_volume
    from .gridfn import etas

    cubes = _standard_cubes(sysm, level_lo, level_hi)
    cols = [(cube, eta) for cube in cubes for eta in etas(sysm.d)]
    H = np.stack([_flat_haar(cube, eta) for cube, eta in cols], axis=1)
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
                nJ = index.get((anc, etaJ))
                if nJ is None:
                    continue
                w = _nested_left_vector(anc, etaJ, I)
                # inner cube on the argument side: modify the coarse dual factor
                ext[nJ, nI] = vol * w @ U[:, nI]
                # inner cube on the dual side: modify the coarse argument factor
                ext[nI, nJ] = vol * w @ V[:, nI]
    extracted_sum = float(cg @ ext @ cf)

    toward_argument, toward_dual = extract_paraproducts(T, level_lo, level_hi)
    b_arg = synthesize_symbol(sysm, toward_argument, level_lo, level_hi)
    b_dual = synthesize_symbol(sysm, toward_dual, level_lo, level_hi)
    levels = (level_lo, level_hi)
    para_arg = pair(g, apply_paraproduct(ParaproductSpec(b_arg, levels), f))
    para_dual = pair(f, apply_paraproduct(ParaproductSpec(b_dual, levels), g))
    return PairingDecomposition(raw_pairing(g, T, f), raw_sum, extracted_sum,
                                para_arg, para_dual)


def full_pairing_sum(T: DiscreteOperator, g: GridFunction, f: GridFunction,
                     level_lo: int, level_hi: int) -> float:
    """Unrestricted double Haar sum over the given cube levels."""
    sysm = T.system
    from .gridfn import etas

    cols = [(cube, eta) for cube in _standard_cubes(sysm, level_lo, level_hi)
            for eta in etas(sysm.d)]
    H = np.stack([_flat_haar(cube, eta) for cube, eta in cols], axis=1)
    cf = np.array([haar_coefficient(f, cube, eta)[0] for cube, eta in cols])
    cg = np.array([haar_coefficient(g, cube, eta)[0] for cube, eta in cols])
    elements = sysm.cell_volume * (H.T @ (T.matrix @ H))
    return float(cg @ elements @ cf)


# -- assembled shift coefficients ------------------------------------------------------


def _descendants(cube: DyadicCube, generations: int) -> list:
    out = [cube]
    for _ in range(generations):
        out = [kid for parent in out for kid in parent.children()]
    return out


def shift_coefficients(T: DiscreteOperator, K: DyadicCube, i: int, j: int,
                       params: GoodnessParams) -> np.ndarray:
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
    from .gridfn import etas

    b_axis = 1 << gap
    blocks = b_axis**sysm.d
    block_cells = K.size_cells >> gap
    table = np.zeros((blocks, blocks))
    i_cubes = _descendants(K, i)
    j_cubes = _descendants(K, j)

    def block_range(cube: DyadicCube) -> np.ndarray:
        rel = [(a - k) // block_cells for a, k in zip(cube.start_cells(), K.start_cells())]
        span = cube.size_cells // block_cells
        axes = [np.arange(r, r + span) for r in rel]
        if sysm.d == 1:
            return axes[0]
        return (axes[0][:, None] * b_axis + axes[1][None, :]).reshape(-1)

    def block_values(cube: DyadicCube, eta) -> np.ndarray:
        h = haar_vector(cube, eta)[cube.cell_slices()]
        if sysm.d == 1:
            vals = h[::block_cells]
        else:
            vals = h[::block_cells, ::block_cells].reshape(-1)
        return vals

    for I in i_cubes:
        for J in j_cubes:
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
                    rows = block_range(J)
                    cols_ = block_range(I)
                    outer = np.outer(block_values(J, etaJ), block_values(I, etaI))
                    table[np.ix_(rows, cols_)] += K.volume * elem * outer
    return table


def shift_block_apply(T: DiscreteOperator, K: DyadicCube, i: int, j: int,
                      params: GoodnessParams, f: GridFunction) -> GridFunction:
    """Apply project(j) . averaging-block . project(i) with the assembled table."""
    from .gridfn import shifted_projection

    table = shift_coefficients(T, K, i, j, params)
    inner = shifted_projection(f, K, i)
    averaged = apply_averaging(K, table, inner, K.level + max(i, j) + 1)
    return shifted_projection(averaged, K, j)


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
    if case == "far_disjoint":
        return i > r
    if case == "near_disjoint":
        return 1 <= i <= r
    if case == "deeply_nested":
        return i > r
    if case == "shallowly_nested":
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


def decay_check(T: DiscreteOperator, case: str, i_values: Sequence[int],
                params: GoodnessParams, alpha: float, j_disjoint: int = 1) -> DecayReport:
    """Per-complexity peak coefficient magnitudes and their fitted decay slope.

    One-dimensional scalar kernels only: there each kernel-table point is
    hit by at most one Haar pair, so the sup of |a| over a cube is the
    max over pairs of |K| |element| / sqrt(|I| |J|).
    """
    sysm = T.system
    if sysm.d != 1:
        raise ValueError("decay scan implemented for one dimension")
    if case not in DECAY_CASES:
        raise ValueError(f"unknown case {case!r}")
    vol = sysm.cell_volume
    mags = []
    used_i = []
    for i in i_values:
        if not _case_constraints(case, params.r, i):
            continue
        j = 0 if case in ("deeply_nested", "shallowly_nested") else (
            0 if case == "equal" else j_disjoint)
        top = 0.0
        for k_level in range(sysm.min_level, sysm.depth - max(i, j)):
            for K in sysm.cubes_at_level(k_level):
                top = max(top, _peak_magnitude(T, K, i, j, case, params, vol))
        if top > 0.0:
            mags.append(top)
            used_i.append(i)
    slope_target = decay_slope_target(case, alpha, params.gamma, sysm.d)
    if slope_target is not None:
        if len(used_i) < 3:
            raise InsufficientDataError(
                f"case {case}: only {len(used_i)} usable complexities "
                "(the good-cube family may be empty at these parameters)"
            )
        slope = float(np.polyfit(used_i, np.log2(mags), 1)[0])
    else:
        if not used_i:
            raise InsufficientDataError(f"case {case}: no usable complexities")
        slope = (float(np.polyfit(used_i, np.log2(mags), 1)[0])
                 if len(used_i) >= 3 else None)
    return DecayReport(case, tuple(used_i), tuple(mags), slope, slope_target)


def _local_haar(cube: DyadicCube, K: DyadicCube) -> np.ndarray:
    """Haar vector of `cube` restricted to K's cell slice (one dimension)."""
    rel = cube.start_cells()[0] - K.start_cells()[0]
    out = np.zeros(K.size_cells)
    half = cube.size_cells // 2
    amp = cube.volume**-0.5
    out[rel:rel + half] = amp
    out[rel + half:rel + cube.size_cells] = -amp
    return out


def _peak_magnitude(T: DiscreteOperator, K: DyadicCube, i: int, j: int,
                    case: str, params: GoodnessParams, vol: float) -> float:
    eta = (1,)
    if case == "equal":
        elem = matrix_element(T, K, eta, K, eta, convention="raw")
        return abs(elem)  # |K| * vol_K^{-1} cancels in one dimension
    good = [I for I in _descendants(K, i) if is_good(I, params)]
    if not good:
        return 0.0
    ksl = K.cell_slices()[0]
    HI = np.stack([_local_haar(I, K) for I in good], axis=1)
    if case in ("deeply_nested", "shallowly_nested"):
        # the extracted coarse factor reaches outside K, so keep full rows
        U = T.matrix[:, ksl] @ HI
        top = 0.0
        hJ_inf = K.volume**-0.5
        for n, I in enumerate(good):
            left = _nested_left_vector(K, eta, I)
            elem = vol * left @ U[:, n]
            top = max(top, K.volume * abs(elem) * hJ_inf * I.volume**-0.5)
        return top
    # disjoint cases: everything is supported inside K
    U = T.matrix[ksl, ksl] @ HI
    top = 0.0
    for J in _descendants(K, j):
        hJ = _local_haar(J, K)
        for n, I in enumerate(good):
            if J.contains_cube(I) or I.contains_cube(J):
                continue
            if common_ancestor(I, J).key() != K.key():
                continue
            elem = vol * hJ @ U[:, n]
            top = max(top, K.volume * abs(elem) * (I.volume * J.volume) ** -0.5)
    return top


# -- weak boundedness -------------------------------------------------------------------


def wbp_constants(T: DiscreteOperator) -> dict:
    """Per-cube diagonal averaging quantities and their maximum."""
    sysm = T.system
    c = sysm.cells_per_axis
    vol = sysm.cell_volume
    view = T.matrix if sysm.d == 1 else T.matrix.reshape(c, c, c, c)
    values = {}
    for level in range(sysm.min_level, sysm.depth + 1):
        for cube in sysm.cubes_at_level(level):
            sl = cube.cell_slices()
            if sysm.d == 1:
                block = view[sl[0], sl[0]]
            else:
                block = view[sl[0], sl[1], sl[0], sl[1]]
            values[cube.key()] = float(block.sum()) * vol / cube.volume
    top = max(abs(v) for v in values.values()) if values else 0.0
    return {"per_cube": values, "max": top}


# -- averaging over translated grids -----------------------------------------------------


@dataclass(frozen=True)
class RepresentationConfig:
    """Goodness data, complexity caps, and the translation sampling plan."""

    goodness: GoodnessParams
    epsilon: float = 0.25
    ij_cap: int = 3
    sampling: str = "exhaustive"     # or "mc"
    mc_trials: int = 256
    seed: int = 0
    exhaustive_bit_cap: int = 20

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.goodness.max_generations is None:
            raise ValueError("translated-grid averaging needs a relative "
                             "ancestor truncation (max_generations)")


def gamma_from_epsilon(epsilon: float, alpha: float, d: int) -> float:
    return epsilon * alpha / (alpha + d)


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


def _support_box(f: GridFunction, pad: int = 0) -> list:
    mask = np.abs(f.values).sum(axis=-1) > 0
    idx = np.nonzero(mask)
    box = []
    for ax in range(f.system.d):
        if idx[ax].size == 0:
            box.append((0, 1))
        else:
            box.append((max(int(idx[ax].min()) - pad, 0),
                        min(int(idx[ax].max()) + 1 + pad, f.system.cells_per_axis)))
    return box


def _relevant_cubes(system: DyadicSystem, box, level_lo: int, level_hi: int) -> list:
    out = []
    for level in range(level_lo, level_hi + 1):
        out.extend(system.cubes_at_level(level, within=box))
    return out


def averaging_identity_residual(T: DiscreteOperator, g: GridFunction,
                                f: GridFunction, config: RepresentationConfig
                                ) -> AveragingIdentityReport:
    """Grid-averaged good-pair sums against the plain pairing.

    For each sampled translation, every cube deep enough to carry a full
    goodness bit window contributes, when good, its Haar coefficient times
    the complete companion sum over the coarser-or-equal scales (realized
    through the direct pairing with the operator, so the companion side is
    never truncated).  The companion quantity of a cube depends only on
    strictly finer translation bits than its goodness does, so dividing
    the grid average by the enumerated goodness probability recovers the
    pairing exactly up to two reported remainders: the product of the two
    top-scale averages and the pairs whose smaller cube sits below the
    eligibility floor.
    """
    base = T.system
    gp = config.goodness
    gens = gp.max_generations
    pi = goodness_probability(gens, gp, base.d)
    if pi.good_count == 0:
        raise DegenerateInputError("goodness probability vanishes; cannot normalize")
    lhs = raw_pairing(g, T, f)
    level_hi = base.depth - 1
    floor = base.min_level + gens
    n_bits = (base.m_top + base.depth) * base.d

    if config.sampling == "exhaustive":
        if n_bits > config.exhaustive_bit_cap:
            raise ResourceLimitError(
                f"{n_bits} translation bits exceed the exhaustive cap "
                f"{config.exhaustive_bit_cap}"
            )
        patterns = list(range(1 << n_bits))
    else:
        gen = substream(config.seed, "identity-grids")
        patterns = [int(x) for x in gen.integers(0, 1 << n_bits, size=config.mc_trials)]

    fbox = _support_box(f)
    gbox = _support_box(g)
    box = [(min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(fbox, gbox)]
    vol = base.cell_volume
    f_flat = f.values.reshape(-1)
    g_flat = g.values.reshape(-1)

    goodsum = total_sum = coarse = 0.0
    for word in patterns:
        bits = []
        for pos in range(base.m_top + base.depth):
            bits.append(tuple((word >> (pos * base.d + ax)) & 1 for ax in range(base.d)))
        sysm = DyadicSystem(d=base.d, m_top=base.m_top, depth=base.depth,
                            omega=tuple(bits))
        cubes = _relevant_cubes(sysm, box, sysm.min_level, level_hi)
        if not cubes:
            continue
        from .gridfn import etas

        cols = [(cube, eta) for cube in cubes for eta in etas(base.d)]
        H = np.stack([_flat_haar(cube, eta) for cube, eta in cols], axis=1)
        cf = np.array([haar_coefficient(f, cube, eta)[0] for cube, eta in cols])
        cg = np.array([haar_coefficient(g, cube, eta)[0] for cube, eta in cols])
        U = T.matrix @ H
        elements = vol * (H.T @ U)
        pair_f = vol * (g_flat @ U)           # <g, T h_I> per column
        pair_g = vol * (H.T @ (T.matrix @ f_flat))  # <h_J, T f> per column
        levels = np.array([cube.level for cube, _ in cols])
        good = np.array([is_good(cube, gp) if cube.level >= floor else False
                         for cube, _ in cols])
        eligible = levels >= floor
        finer_j = levels[:, None] > levels[None, :]      # J strictly finer than I
        finer_eq_i = levels[None, :] >= levels[:, None]  # I at least as fine as J
        # each cube's companion sum keeps the complete coarser-or-equal side
        side_f = cf * (pair_f - cg @ np.where(finer_j, elements, 0.0))
        side_g = cg * (pair_g - np.where(finer_eq_i, elements, 0.0) @ cf)
        goodsum += float(side_f[good & eligible].sum()
                         + side_g[good & eligible].sum())
        total_sum += float(side_f.sum() + side_g.sum())
        coarse += float(side_f[~eligible].sum() + side_g[~eligible].sum())

    n = len(patterns)
    rhs = goodsum / n / pi.value
    return AveragingIdentityReport(
        lhs=lhs,
        rhs=rhs,
        pi_good=pi.value,
        n_samples=n,
        top_scale_defect=lhs - total_sum / n,
        coarse_share=coarse / n,
        full_sum_mean=total_sum / n,
    )


# -- exports -------------------------------------------------------------------------


def coefficient_rows_to_csv(rows) -> str:
    """CSV of (i, j, K-level, K-corner, magnitude) coefficient summaries."""
    lines = ["i,j,k_level,k_corner,magnitude"]
    for i, j, level, corner, mag in rows:
        corner_txt = ";".join(str(c) for c in corner)
        lines.append(f"{i},{j},{level},{corner_txt},{mag!r}")
    return "\n".join(lines) + "\n"
