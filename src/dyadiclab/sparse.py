"""Stopping-time families of dyadic cubes, Carleson sums, and adapted sums.

A stopping family below a root cube is built by repeatedly collecting the
maximal subcubes whose average of |f| exceeds a threshold factor times
the parent generation's average.  Measures are nonnegative per-cell
densities (default all ones, i.e. Lebesgue); with factor 2 the
construction is sparse: each member keeps at least half its measure
outside its stopping children.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AdaptednessError, SparsityError
from .grid import DyadicCube, _in_range_cube
from .gridfn import GridFunction, _blocks, _stack, stack_chunks
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
            self.weights = w
        if not self.cubes:
            self.cubes = [self.root]
            self.parents = [None]
            self.children = [[]]
        self._lebesgue = None
        self._owner = None

    def __len__(self):
        return len(self.cubes)

    def add(self, cube: DyadicCube, parent: int) -> int:
        idx = len(self.cubes)
        self.cubes.append(cube)
        self.parents.append(parent)
        self.children.append([])
        self.children[parent].append(idx)
        self._owner = None
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

    def weighted_average(self, values: np.ndarray, cube: DyadicCube) -> np.ndarray:
        """Measure-weighted average of a cell array over a cube."""
        w = self.density()[cube.cell_slices()].reshape(-1)
        v = values[cube.cell_slices()].reshape(-1, values.shape[-1])
        total = w.sum()
        if total <= 0:
            raise SparsityError("member with zero measure")
        return (w[:, None] * v).sum(axis=0) / total

    def owner(self) -> np.ndarray:
        """Index of the minimal member holding each cell, -1 off the root.

        Members are painted in member order (a parent before its children);
        the read-only array is kept until the next `add`.
        """
        if self._owner is None:
            sysm = self.root.system
            self._owner = np.full((sysm.cells_per_axis,) * sysm.d, -1, dtype=np.intp)
            for idx, cube in enumerate(self.cubes):
                self._owner[cube.cell_slices()] = idx
            self._owner.flags.writeable = False
        return self._owner

    def locate(self, cube: DyadicCube) -> int:
        """Index of the minimal member containing `cube`: its first cell's owner or an ancestor."""
        if not self.cubes[0].contains_cube(cube):
            raise KeyError("cube not contained in the root")
        best = int(self.owner()[cube.start_cells()])
        while self.cubes[best].size_cells < cube.size_cells:
            best = self.parents[best]
        return best

    def is_sparse(self) -> bool:
        """Whether every member keeps half of its measure outside its children: the
        density of its own cells against its whole measure, which adds its children's in
        one reverse pass (a parent precedes them).  Under Lebesgue measure both are cell
        counts, so a failing member misses by half a cell, at least 2^-24 > tolerance."""
        kept = np.bincount(self.owner().reshape(-1) + 1, weights=self.density().reshape(-1),
                           minlength=len(self) + 1)[1:]  # bin 0 holds the cells off the root
        whole = kept.copy()
        for idx in range(len(self) - 1, 0, -1):
            whole[self.parents[idx]] += whole[idx]
        vol = self.root.system.cell_volume
        return bool(np.all(kept * vol >= 0.5 * whole * vol - _EXACT_TOL))

    def export_records(self) -> str:
        """Newline-delimited records: level, corner components, parent index."""
        lines = []
        for cube, parent in zip(self.cubes, self.parents):
            corner = " ".join(str(c) for c in cube.corner)
            lines.append(f"{cube.level} {corner} {-1 if parent is None else parent}")
        return "\n".join(lines) + "\n"


def _level_sums(weights: np.ndarray, norms: np.ndarray, root: DyadicCube):
    """Yield (level, block sums of `weights * norms`, block sums of `weights`) in
    the root's box from the root's level down, for arrays of any leading stack
    axes before the system's cells.  Each level sums its blocks' own cells in
    row-major order along one axis, so a block's quotient has
    `SparseFamily.weighted_average`'s bits in every row of a stack."""
    box = (Ellipsis, *root.cell_slices())
    w = weights[box]
    wf = w * norms[box]
    d, lead = root.system.d, w.ndim - root.system.d
    for level in range(root.level, root.system.depth + 1):
        size = 1 << (root.system.depth - level)
        yield (level, *(_blocks(a, d, size, lead).sum(-1) for a in (wf, w)))


def _level_averages(weights: np.ndarray, norms: np.ndarray, root: DyadicCube):
    """Yield (level, block averages) as `_level_sums` orders them; any block
    without measure raises."""
    for level, fsum, wsum in _level_sums(weights, norms, root):
        if np.any(wsum <= 0):
            raise SparsityError("member with zero measure")
        yield level, fsum / wsum


def _stacked(pairs: list) -> tuple:
    """(families, pointwise norms, densities) of the (family, function) `pairs`,
    the arrays stacked along a leading axis."""
    families, fs = zip(*pairs)
    norms = fs[0].space.norm(_stack(list(fs))[2])
    return families, norms, np.stack([fam.density() for fam in families])


def build_stopping_family(f, root: DyadicCube, weights=None):
    """Iterated maximal subcubes with |f|-average above twice the parent's,
    found in one sweep from the root's level down in which each cube inherits
    the label of the minimal member strictly containing it.

    `f` is one GridFunction, giving one SparseFamily, or a list of functions
    sharing a system and space, giving one family each; `weights` is then None
    or one density-or-None per function.  A list is swept as stacks of at most
    `gridfn._STACK_CELLS` cells, each level's threshold test taken once per stack.
    """
    single = isinstance(f, GridFunction)
    if single:
        fs, ws = [f], [weights]
    else:
        fs = list(f)
        ws = [None] * len(fs) if weights is None else list(weights)
    if len(ws) != len(fs):
        raise ValueError("one density or None per function required")
    families = [SparseFamily(root, weights=w) for w in ws]
    for chunk in stack_chunks(zip(families, fs), root.system):
        _sweep(chunk)
    return families[0] if single else families


def _sweep(pairs: list):
    """Add each family's members, in depth-first order, from one sweep of the
    stack of the (family, function) `pairs`.  Labels are numbered across the
    stack, root i taking label i."""
    families, norms, dens = _stacked(pairs)
    root = families[0].root
    sysm, n = root.system, len(families)
    levels = _level_averages(dens, norms, root)
    bases = next(levels)[1].reshape(n)
    labels = np.arange(n).reshape((n,) + (1,) * sysm.d)
    found = [[] for _ in range(n)]  # (walk key, label, level, block, parent label) per member
    for level, avg in levels:
        for ax in range(1, sysm.d + 1):
            labels = labels.repeat(2, axis=ax)
        new = avg > 2.0 * bases[labels]
        hits = np.argwhere(new).tolist()
        for label, (row, *block), parent in zip(itertools.count(len(bases)), hits,
                                                labels[new].tolist()):
            # ancestor blocks, negated, sort as a depth-first walk taking children last to first
            key = tuple(tuple(-(i >> b) for i in block) for b in reversed(range(level - root.level)))
            found[row].append((key, label, level, block, parent))
        labels[new] = np.arange(len(bases), len(bases) + len(hits))
        bases = np.concatenate([bases, avg[new]])
    index = dict.fromkeys(range(n), 0)
    root_start = root.start_cells()
    for family, members in zip(families, found):
        for _, label, level, block, parent in sorted(members):
            size = 1 << (sysm.depth - level)
            start = tuple(r + b * size for b, r in zip(block, root_start))
            corner = tuple((s - sysm.origin_cell - t) // size
                           for s, t in zip(start, sysm.shift_cells(level)))
            index[label] = family.add(_in_range_cube(sysm, level, corner, start, size),
                                      index[parent])


@dataclass(frozen=True)
class CarlesonResult:
    lhs: float
    fnorm: float
    stated_bound: float   # 2 p'
    proof_bound: float    # 2^(1/p) p'

    @property
    def ratio(self) -> float:
        return self.lhs / self.fnorm if self.fnorm else 0.0


def _exponents(ps) -> list:
    """The exponents of `ps` as a list; each must lie in (1, inf)."""
    ps = list(ps)
    for p in ps:
        if not 1.0 < p < np.inf:
            raise ValueError(f"exponent {p!r} is outside (1, inf)")
    return ps


def carleson_sum(family, f, ps: Sequence[float]) -> list:
    """Embedding sum (sum_S <|f|>_S^p mu(S))^(1/p) against the L^p(mu) norm,
    one `CarlesonResult` per exponent of `ps`.

    `family` and `f` are one SparseFamily and its function, or lists of
    families sharing a root and of one function each, giving one list of
    results per family.  Sparsity is checked for every family first; the
    level sums come from one sweep per stack of at most `gridfn._STACK_CELLS`
    cells, each member's average and measure are taken once, and each
    exponent then sums its terms in member order.
    """
    ps = _exponents(ps)
    single = isinstance(family, SparseFamily)
    families, fs = ([family], [f]) if single else (list(family), list(f))
    if len(fs) != len(families) or any(fam.root != families[0].root for fam in families):
        raise ValueError("one function per family, and families sharing a root, required")
    if not all(fam.is_sparse() for fam in families):
        raise SparsityError("the Carleson embedding requires a sparse family")
    out = []
    for chunk in stack_chunks(zip(families, fs), families[0].root.system):
        out += _carleson_stack(chunk, ps)
    return out[0] if single else out


def _carleson_stack(pairs: list, ps: list) -> list:
    """`carleson_sum`'s results for each (family, function) of `pairs`, from one
    sweep of their stack."""
    families, norms, dens = _stacked(pairs)
    root, root_start = families[0].root, families[0].root.start_cells()
    sums = {level: pair for level, *pair in _level_sums(dens, norms, root)}
    out = []
    for row, family in enumerate(families):
        terms = []  # (average, measure) per member
        for cube in family.cubes:
            block = tuple((s - r) // cube.size_cells for s, r in zip(cube.start_cells(), root_start))
            fsum, wsum = (a[(row, *block)] for a in sums[cube.level])
            if wsum <= 0:
                raise SparsityError("member with zero measure")
            terms.append((fsum / wsum, family.measure(cube)))
        results = []
        for p in ps:
            total = 0.0
            for avg, mu in terms:
                total += avg ** p * mu
            fnorm = float(((norms[row] ** p) * dens[row]).sum() * root.system.cell_volume)
            q = conjugate_exponent(p)
            results.append(CarlesonResult(total ** (1.0 / p), fnorm ** (1.0 / p),
                                          2.0 * q, 2.0 ** (1.0 / p) * q))
        out.append(results)
    return out


def _lp_norms_weighted(family: SparseFamily, norms: np.ndarray, p: float) -> list:
    """L^p(mu) norm of each row of `norms`: one row per function, its cells after."""
    sums = ((norms**p) * family.density()).reshape(len(norms), -1).sum(axis=1)
    return [float(s * family.root.system.cell_volume) ** (1.0 / p) for s in sums]


def _rows_any(bad: np.ndarray) -> np.ndarray:
    """Per member (first axis), whether any of its entries is True."""
    return bad.reshape(len(bad), -1).any(axis=1)


def validate_adapted(family: SparseFamily, fs: Sequence[GridFunction]) -> np.ndarray:
    """Each function must vanish off its member and be constant on its children.

    The first member that fails raises, its support tested before its
    children.  Returns the values stacked along a new first axis.
    """
    if len(fs) != len(family):
        raise AdaptednessError("one function per family member required")
    for idx, f in enumerate(fs):
        if f.space != fs[0].space:
            raise AdaptednessError(f"member {idx}: value space differs from member 0's")
    values = np.stack([f.values for f in fs])
    inside = np.zeros(values.shape[:-1], dtype=bool)
    anchors = values.copy()  # each child's first cell, spread over the child
    for idx, cube in enumerate(family.cubes):
        inside[(idx, *cube.cell_slices())] = True
        for child in family.children[idx]:
            kid = family.cubes[child]
            anchors[(idx, *kid.cell_slices())] = values[(idx, *kid.start_cells())]
    off_support = _rows_any((np.abs(values) > _EXACT_TOL).any(axis=-1) & ~inside)
    not_constant = _rows_any(np.abs(values - anchors) > _EXACT_TOL)
    for idx in np.flatnonzero(off_support | not_constant)[:1]:
        what = ("function not supported on its cube" if off_support[idx]
                else "not constant on a stopping child")
        raise AdaptednessError(f"member {idx}: {what}")
    return values


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


def pythagoras_check(family: SparseFamily, fs: Sequence[GridFunction], ps: Sequence[float],
                     mode: str = "direct") -> list:
    """Compare the norm of the adapted sum with the l^p sum of member norms,
    one `PythagorasResult` per exponent of `ps`.

    Modes: 'direct' imposes only adaptedness; 'reverse_cancellative'
    additionally requires zero member integrals, 'reverse_nonneg' scalar
    nonnegative members.  The direct ratio is bounded by 3p and, under
    either reverse hypothesis, the reverse ratio by 6p'.  The hypotheses
    and the pointwise norms are taken once for all exponents.
    """
    if mode not in ("direct", "reverse_cancellative", "reverse_nonneg"):
        raise ValueError(f"unknown mode {mode!r}")
    ps = _exponents(ps)
    values = validate_adapted(family, fs)
    space = fs[0].space
    if mode == "reverse_cancellative":
        integrals = (values * family.density()[..., None]).reshape(len(fs), -1, space.dim)
        bad = np.abs(integrals.sum(axis=1)) * family.root.system.cell_volume > 1e-9
        for idx in np.flatnonzero(_rows_any(bad))[:1]:
            raise AdaptednessError(f"member {idx}: nonzero integral")
    if mode == "reverse_nonneg":
        bad = _rows_any(values < -_EXACT_TOL) | (space.dim != 1)
        for idx in np.flatnonzero(bad)[:1]:
            raise AdaptednessError(f"member {idx}: not scalar nonnegative")
    norms = space.norm(np.concatenate([values.sum(axis=0)[None], values]))
    results = []
    for p in ps:
        sum_norm, *member_norms = _lp_norms_weighted(family, norms, p)
        powers = sum(norm**p for norm in member_norms)
        results.append(PythagorasResult(sum_norm, powers ** (1.0 / p),
                                        3.0 * p, 6.0 * conjugate_exponent(p)))
    return results


def _worse(worst, avg, base):
    """`worst` updated by the ratio avg / base; a positive average over a zero
    base is infinite."""
    if base > 0:
        return max(worst, avg / base)
    return np.inf if avg > 0 else worst


def stopping_control(family: SparseFamily, f: GridFunction) -> dict:
    """Worst-case stopping ratios over all dyadic subcubes of the root.

    Returns the max of <|f|>_Q / <|f|>_{minimal member containing Q} and
    the max of <|f|>_{S'} / <|f|>_S over stopping children (the latter is
    bounded by factor * 2^d for the Lebesgue measure).  Each member's
    average is taken once, and every subcube's comes from one level sweep.
    """
    norms = f.space.norm(f.values)
    averages = dict(_level_averages(family.density(), norms, family.root))
    bases = [family.weighted_average(norms[..., None], cube)[0] for cube in family.cubes]

    root_start, depth = family.root.start_cells(), f.system.depth
    worst_q = 0.0
    stack = [family.root]
    while stack:
        cube = stack.pop()
        block = tuple((s - r) // cube.size_cells for s, r in zip(cube.start_cells(), root_start))
        avg = averages[cube.level][block]
        worst_q = _worse(worst_q, avg, bases[family.locate(cube)])
        if cube.level < depth:
            stack.extend(cube.children())

    worst_child = 0.0
    for idx, base in enumerate(bases):
        for child in family.children[idx]:
            worst_child = _worse(worst_child, bases[child], base)
    return {"max_q_over_member": worst_q, "max_child_over_parent": worst_child}
