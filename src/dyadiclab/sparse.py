"""Stopping-time families of dyadic cubes, Carleson sums, and adapted sums.

A stopping family below a root cube is built by repeatedly collecting the
maximal subcubes whose average of |f| exceeds a threshold factor times
the parent generation's average.  Measures are nonnegative per-cell
densities (default all ones, i.e. Lebesgue); with the default factor 2
the construction is sparse: each member keeps at least half its measure
outside its stopping children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AdaptednessError, SparsityError
from .grid import DyadicCube
from .gridfn import GridFunction, _blocks
from .space import conjugate_exponent

_EXACT_TOL = 1e-12


@dataclass
class SparseFamily:
    """Members of a stopping family with parent/child links and a measure."""

    root: DyadicCube
    cubes: list = field(default_factory=list)          # DyadicCube per member
    parents: list = field(default_factory=list)        # parent member index or None
    children: list = field(default_factory=list)       # lists of member indices
    weights: Optional[np.ndarray] = None               # per-cell density, default 1

    def __post_init__(self):
        if self.weights is not None:
            shape = (self.root.system.cells_per_axis,) * self.root.system.d
            w = np.asarray(self.weights)
            if w.shape != shape or not np.all((0 <= w) & (w < np.inf)):
                raise ValueError(f"weights must be finite, nonnegative and of shape {shape}")
        if not self.cubes:
            self.cubes = [self.root]
            self.parents = [None]
            self.children = [[]]
        self._index = {cube.key(): k for k, cube in enumerate(self.cubes)}
        self._lebesgue = None

    def __len__(self):
        return len(self.cubes)

    def member_index(self, cube: DyadicCube) -> int:
        try:
            return self._index[cube.key()]
        except KeyError:
            raise KeyError(f"cube {cube.key()} is not a member of the family")

    def add(self, cube: DyadicCube, parent: int) -> int:
        idx = len(self.cubes)
        self.cubes.append(cube)
        self.parents.append(parent)
        self.children.append([])
        self.children[parent].append(idx)
        self._index[cube.key()] = idx
        return idx

    # -- measure -------------------------------------------------------------

    def density(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        if self._lebesgue is None:
            sysm = self.root.system
            self._lebesgue = np.ones((sysm.cells_per_axis,) * sysm.d)
            self._lebesgue.flags.writeable = False
        return self._lebesgue

    def measure(self, cube: DyadicCube) -> float:
        return float(self.density()[cube.cell_slices()].sum()) * self.root.system.cell_volume

    def cell_count(self, cube: DyadicCube) -> int:
        return cube.size_cells ** self.root.system.d

    def weighted_average(self, values: np.ndarray, cube: DyadicCube) -> np.ndarray:
        """Measure-weighted average of a cell array over a cube."""
        w = self.density()[cube.cell_slices()].reshape(-1)
        v = values[cube.cell_slices()].reshape(-1, values.shape[-1])
        total = w.sum()
        if total <= 0:
            raise SparsityError("member with zero measure")
        return (w[:, None] * v).sum(axis=0) / total

    def exceptional_mask(self, idx: int) -> np.ndarray:
        """Cells of member `idx` outside all of its stopping children."""
        sysm = self.root.system
        mask = np.zeros((sysm.cells_per_axis,) * sysm.d, dtype=bool)
        mask[self.cubes[idx].cell_slices()] = True
        for child in self.children[idx]:
            mask[self.cubes[child].cell_slices()] = False
        return mask

    def exceptional_measure(self, idx: int) -> float:
        dens = self.density()
        return float(dens[self.exceptional_mask(idx)].sum()) * self.root.system.cell_volume

    def locate(self, cube: DyadicCube) -> int:
        """Index of the minimal member containing `cube`."""
        if not self.cubes[0].contains_cube(cube):
            raise KeyError("cube not contained in the root")
        best = 0
        moved = True
        while moved:
            moved = False
            for child in self.children[best]:
                if self.cubes[child].contains_cube(cube):
                    best = child
                    moved = True
                    break
        return best

    def is_sparse(self) -> bool:
        """Whether every member keeps half of its measure outside children."""
        if self.weights is None:
            # Lebesgue: exact in integer cell counts
            for idx in range(len(self)):
                kept = self.cell_count(self.cubes[idx]) - sum(
                    self.cell_count(self.cubes[c]) for c in self.children[idx]
                )
                if 2 * kept < self.cell_count(self.cubes[idx]):
                    return False
            return True
        for idx in range(len(self)):
            if self.exceptional_measure(idx) < 0.5 * self.measure(self.cubes[idx]) - _EXACT_TOL:
                return False
        return True

    def export_records(self) -> str:
        """Newline-delimited records: level, corner components, parent index."""
        lines = []
        for cube, parent in zip(self.cubes, self.parents):
            corner = " ".join(str(c) for c in cube.corner)
            lines.append(f"{cube.level} {corner} {-1 if parent is None else parent}")
        return "\n".join(lines) + "\n"


def _level_averages(weights: np.ndarray, norms: np.ndarray, root: DyadicCube):
    """Yield (level, block averages of `norms` under `weights` in the root's box)
    from the root's level down.  Each level sums its blocks' own cells in row-major
    order along one axis, so every average has `SparseFamily.weighted_average`'s bits."""
    w = weights[root.cell_slices()]
    wf = w * norms[root.cell_slices()]
    for level in range(root.level, root.system.depth + 1):
        size = 1 << (root.system.depth - level)
        fsum, wsum = (_blocks(a, w.ndim, size).sum(-1) for a in (wf, w))
        if np.any(wsum <= 0):
            raise SparsityError("member with zero measure")
        yield level, fsum / wsum


def build_stopping_family(f: GridFunction, root: DyadicCube,
                          threshold_factor: float = 2.0,
                          weights: Optional[np.ndarray] = None) -> SparseFamily:
    """Iterated maximal subcubes with |f|-average above factor times the parent's,
    found in one sweep from the root's level down in which each cube inherits
    the label of the minimal member strictly containing it."""
    family = SparseFamily(root, weights=weights)
    sysm = root.system
    levels = _level_averages(family.density(), f.space.norm(f.values), root)
    bases = next(levels)[1].reshape(1)
    labels = np.zeros((1,) * sysm.d, dtype=np.intp)
    found = []  # (walk key, label, level, block, parent label) per member below the root
    for level, avg in levels:
        for ax in range(sysm.d):
            labels = labels.repeat(2, axis=ax)
        new = avg > threshold_factor * bases[labels]
        for block, parent in zip(np.argwhere(new).tolist(), labels[new].tolist()):
            # ancestor blocks, negated, sort as a depth-first walk taking children last to first
            key = tuple(tuple(-(i >> b) for i in block) for b in reversed(range(level - root.level)))
            found.append((key, len(found) + 1, level, block, parent))
        labels[new] = np.arange(len(bases), len(found) + 1)
        bases = np.concatenate([bases, avg[new]])
    index = {0: 0}
    for _, label, level, block, parent in sorted(found):
        size = 1 << (sysm.depth - level)
        corner = [b + (s - sysm.origin_cell - t) // size
                  for b, s, t in zip(block, root.start_cells(), sysm.shift_cells(level))]
        index[label] = family.add(sysm.cube(level, corner), index[parent])
    return family


@dataclass(frozen=True)
class CarlesonResult:
    lhs: float
    fnorm: float
    stated_bound: float   # 2 p'
    proof_bound: float    # 2^(1/p) p'

    @property
    def ratio(self) -> float:
        return self.lhs / self.fnorm if self.fnorm else 0.0


def carleson_sum(family: SparseFamily, f: GridFunction, p: float) -> CarlesonResult:
    """Embedding sum (sum_S <|f|>_S^p mu(S))^(1/p) against the L^p(mu) norm."""
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


def project_onto_member(family: SparseFamily, member: DyadicCube,
                        f: GridFunction) -> GridFunction:
    """Adapted projection onto one member, in closed form.

    Equals the sum of measure-weighted Haar projections over the cubes
    whose minimal member is the given one; the closed form is: children
    averages on children, f itself on the exceptional set, minus the
    member average everywhere on the member.
    """
    idx = family.member_index(member)
    cube = family.cubes[idx]
    out = np.zeros_like(f.values)
    sl = cube.cell_slices()
    mask = family.exceptional_mask(idx)
    out[mask] = f.values[mask]
    for child in family.children[idx]:
        kid = family.cubes[child]
        out[kid.cell_slices()] = family.weighted_average(f.values, kid)
    out[sl] -= family.weighted_average(f.values, cube)
    full = np.zeros_like(f.values)
    full[sl] = out[sl]
    return GridFunction(f.system, full, f.space)


def lp_norm_weighted(family: SparseFamily, f: GridFunction, p: float) -> float:
    dens = family.density()
    norms = f.space.norm(f.values)
    if p == np.inf:
        return float(norms[dens > 0].max()) if np.any(dens > 0) else 0.0
    return float(((norms**p) * dens).sum() * f.system.cell_volume) ** (1.0 / p)


def validate_adapted(family: SparseFamily, fs: Sequence[GridFunction]):
    """Each function must vanish off its member and be constant on its children."""
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


@dataclass(frozen=True)
class PythagorasResult:
    sum_norm: float
    power_sum_root: float
    direct_bound: float
    reverse_bound: float

    @property
    def direct_ratio(self) -> float:
        if self.power_sum_root == 0.0:
            return 0.0
        return self.sum_norm / self.power_sum_root

    @property
    def reverse_ratio(self) -> float:
        if self.sum_norm == 0.0:
            return np.inf if self.power_sum_root > 0 else 0.0
        return self.power_sum_root / self.sum_norm


def pythagoras_check(family: SparseFamily, fs: Sequence[GridFunction], p: float,
                     mode: str = "direct") -> PythagorasResult:
    """Compare the norm of the adapted sum with the l^p sum of member norms.

    Modes: 'direct' imposes only adaptedness; 'reverse_cancellative'
    additionally requires zero member integrals, 'reverse_nonneg' scalar
    nonnegative members.  The direct ratio is bounded by 3p and, under
    either reverse hypothesis, the reverse ratio by 6p'.
    """
    if mode not in ("direct", "reverse_cancellative", "reverse_nonneg"):
        raise ValueError(f"unknown mode {mode!r}")
    validate_adapted(family, fs)
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
    sum_norm = lp_norm_weighted(family, total, p)
    powers = sum(lp_norm_weighted(family, f, p) ** p for f in fs)
    return PythagorasResult(sum_norm, powers ** (1.0 / p),
                            3.0 * p, 6.0 * conjugate_exponent(p))


def stopping_control(family: SparseFamily, f: GridFunction) -> dict:
    """Worst-case stopping ratios over all dyadic subcubes of the root.

    Returns the max of <|f|>_Q / <|f|>_{minimal member containing Q} and
    the max of <|f|>_{S'} / <|f|>_S over stopping children (the latter is
    bounded by factor * 2^d for the Lebesgue measure).
    """
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
