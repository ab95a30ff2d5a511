"""Dyadic cubes, randomly translated dyadic systems, and good-cube geometry.

The ambient domain is the half-open cube A = [-2^m_top, 2^m_top)^d.  A
system resolves levels k in [-m_top, depth]; a cube at level k has side
2^-k.  Random translation is encoded by bits omega_j in {0,1}^d, one per
scale 2^-j with -m_top < j <= depth; a level-k cube is shifted by
sum_{j>k} 2^-j omega_j, so translated cubes are always unions of finest
level cells and all geometry stays exact in integer cell units.  A system
keeps one integer word per axis, with bit omega_j at place depth - j (the
unsampled fine scales are zeros): a level-k shift in cells is the word's
low depth - k bits, and the word shifted right by depth - k holds the bits
that goodness at level k reads, scale k - t at place t.

Nesting in a translated system is rerandomized across scales: the parent
of the cube with corner m at level k has corner floor((m - omega_k)/2).
Consequently the bits at scales coarser than or equal to a cube's side
determine its position inside its ancestors (hence its goodness), while
the strictly finer bits determine its absolute position.  These two bit
groups are disjoint, which makes position and goodness exactly
independent under enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import AmbientRangeError, ResourceLimitError
from .rng import substream

_GOOD_TIE_TOL = 1e-12
MESH_CELL_BITS = 24  # a system has at most 2^24 finest cells
_PROBABILITY_PATTERNS = 1 << 22  # most bit patterns `goodness_probability` enumerates
_JOINT_PATTERNS = 1 << 20  # most bit patterns `goodness_position_joint` enumerates


@dataclass(frozen=True)
class DyadicSystem:
    """A truncated, possibly translated dyadic lattice over the ambient cube."""

    d: int = 1
    m_top: int = 0
    depth: int = 8
    omega: tuple = ()  # bits for scales j = -m_top+1 .. depth, each in {0,1}^d

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only d in {1, 2} is supported")
        if self.depth < 0 or self.m_top < 0:
            raise ValueError("depth and m_top must be nonnegative")
        cells_log2 = self.d * (self.m_top + 1 + self.depth)  # checked before any allocation
        if cells_log2 > MESH_CELL_BITS:
            raise ResourceLimitError(f"a mesh of 2^{cells_log2} cells exceeds 2^{MESH_CELL_BITS}")
        if len(self.omega) > self.m_top + self.depth:
            raise ValueError("too many translation bits for the level range")
        words = [0] * self.d  # per axis, the bit of scale j at place depth - j
        for bits in self.omega:
            if len(bits) != self.d:
                raise ValueError("omega entries must be bits in {0,1}^d")
            for ax, b in enumerate(bits):
                if b not in (0, 1):
                    raise ValueError("omega entries must be bits in {0,1}^d")
                words[ax] = words[ax] << 1 | (1 if b else 0)
        pad = self.m_top + self.depth - len(self.omega)  # the unsampled fine scales
        # plain attributes, so eq, hash and repr see only the fields
        object.__setattr__(self, "_words", tuple(w << pad for w in words))
        object.__setattr__(self, "_shifts", {})  # `shift_cells` by level

    @staticmethod
    def random(seed: int, d: int = 1, m_top: int = 0, depth: int = 8) -> "DyadicSystem":
        gen = substream(seed, "dyadic-system-omega")
        bits = tuple(
            tuple(int(b) for b in gen.integers(0, 2, size=d))
            for _ in range(m_top + depth)
        )
        return DyadicSystem(d=d, m_top=m_top, depth=depth, omega=bits)

    # -- scales and cells -------------------------------------------------

    @property
    def min_level(self) -> int:
        return -self.m_top

    @property
    def cells_per_axis(self) -> int:
        return 1 << (self.m_top + 1 + self.depth)

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.d

    @property
    def cell_volume(self) -> float:
        return float(2.0 ** (-self.depth * self.d))

    @property
    def origin_cell(self) -> int:
        """Cell index of coordinate 0 along each axis."""
        return 1 << (self.m_top + self.depth)

    def bit(self, j: int) -> tuple:
        """Translation bits at scale 2^-j (unsampled scales default to 0)."""
        idx = j + self.m_top - 1
        if 0 <= idx < len(self.omega):
            return self.omega[idx]
        return (0,) * self.d

    def shift_cells(self, level: int) -> tuple:
        """Translation of level-`level` cubes, in finest-cell units: the low
        depth - level bits of each axis word, kept once asked for."""
        if level not in self._shifts:
            if not self.min_level <= level <= self.depth:
                raise AmbientRangeError(f"level {level} outside [{self.min_level}, {self.depth}]")
            self._shifts[level] = tuple(w & ((1 << (self.depth - level)) - 1) for w in self._words)
        return self._shifts[level]

    def cell_centers(self) -> np.ndarray:
        """Midpoints of all finest cells, shape (cells_per_axis,)*d + (d,)."""
        side = 2.0**-self.depth
        axis = -(2.0**self.m_top) + side * (np.arange(self.cells_per_axis) + 0.5)
        return np.stack(np.meshgrid(*(axis,) * self.d, indexing="ij"), axis=-1)

    # -- cube construction -------------------------------------------------

    def cube(self, level: int, corner: Sequence[int]) -> "DyadicCube":
        return DyadicCube(self, level, tuple(int(c) for c in corner))

    def top_cubes(self) -> list:
        return list(self.cubes_at_level(self.min_level))

    def cubes_at_level(self, level: int) -> Iterator["DyadicCube"]:
        """All level-`level` cubes inside the ambient cube, corners in row-major order.

        The corners come from `corner_ranges`, so they are in range by
        construction: each cube is built by `_in_range_cube` from its start
        cells, m * size + origin_cell + shift.
        """
        ranges = self.corner_ranges(level)
        size = 1 << (self.depth - level)
        bases = [self.origin_cell + s for s in self.shift_cells(level)]
        starts = [range(r.start * size + base, r.stop * size + base, size)
                  for r, base in zip(ranges, bases)]
        for corner, start in zip(itertools.product(*ranges), itertools.product(*starts)):
            yield _in_range_cube(self, level, corner, start, size)

    def corner_ranges(self, level: int) -> list:
        """Per-axis corner ranges of the cubes that `cubes_at_level` lists.

        The cubes of one axis range are consecutive, so they tile one cell
        run: corner m starts at cell m * size + base, base = origin_cell + shift.
        """
        size = 1 << (self.depth - level)
        bases = [self.origin_cell + s for s in self.shift_cells(level)]
        return [range(-(base // size), (self.cells_per_axis - base) // size) for base in bases]

    def level_cubes(self, level: int) -> tuple:
        """(corners, starts) of the cubes `cubes_at_level` lists, in its order: two
        int64 arrays of shape (d, n), the corners and the first cells per axis."""
        size = 1 << (self.depth - level)
        ranges = self.corner_ranges(level)  # which keeps `shift_cells(level)` in `_shifts`
        out = np.empty((2, self.d) + tuple(map(len, ranges)), dtype=np.int64)
        for ax, (r, s) in enumerate(zip(ranges, self._shifts[level])):
            # each axis's corners and first cells, broadcast over the later axes
            shape, base = (-1,) + (1,) * (self.d - 1 - ax), self.origin_cell + s
            out[0, ax] = np.arange(r.start, r.stop).reshape(shape)
            out[1, ax] = np.arange(r.start * size + base, r.stop * size + base, size).reshape(shape)
        return tuple(out.reshape(2, self.d, -1))


@dataclass(frozen=True)
class DyadicCube:
    """A cube of side 2^-level inside a (possibly translated) dyadic system."""

    system: DyadicSystem
    level: int
    corner: tuple

    def __post_init__(self):
        sysm = self.system
        if not (sysm.min_level <= self.level <= sysm.depth):
            raise AmbientRangeError(
                f"level {self.level} outside [{sysm.min_level}, {sysm.depth}]"
            )
        if len(self.corner) != sysm.d:
            raise AmbientRangeError("corner dimension mismatch")
        size = 1 << (sysm.depth - self.level)
        base = sysm.origin_cell
        start = tuple(m * size + base + s
                      for m, s in zip(self.corner, sysm.shift_cells(self.level)))
        for s in start:
            if s < 0 or s + size > sysm.cells_per_axis:
                raise AmbientRangeError(
                    f"cube level={self.level} corner={self.corner} leaves the ambient"
                )
        # plain attributes, so eq, hash and repr see only the fields
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "size_cells", size)  # side in finest cells

    # -- geometry ----------------------------------------------------------

    @property
    def side(self) -> float:
        return float(2.0**-self.level)

    @property
    def volume(self) -> float:
        return self.side**self.system.d

    def start_cells(self) -> tuple:
        """First finest cell of the cube along each axis."""
        return self._start

    def cell_slices(self) -> tuple:
        """Per-axis slices of the cube's cells, built on first use and kept."""
        try:
            return self._slices
        except AttributeError:
            object.__setattr__(self, "_slices", tuple(slice(s, s + self.size_cells)
                                                      for s in self._start))
            return self._slices

    def contains_cube(self, other: "DyadicCube") -> bool:
        grow = self.size_cells - other.size_cells
        for a, b in zip(self._start, other._start):
            if not 0 <= b - a <= grow:
                return False
        return True

    # -- lattice structure (translated nesting) -----------------------------

    def parent(self) -> "DyadicCube":
        sysm = self.system
        if self.level <= sysm.min_level:
            raise AmbientRangeError("top-level cube has no parent in the system")
        bits = sysm.bit(self.level)
        corner = tuple((m - b) >> 1 for m, b in zip(self.corner, bits))
        return DyadicCube(sysm, self.level - 1, corner)

    def children(self) -> list:
        """The 2^d next-level cubes, built by `_in_range_cube`: they tile this one,
        corners 2m + b + (0, 1) starting (0, half) cells in per axis."""
        if self.level >= self.system.depth:
            raise AmbientRangeError("finest-level cube has no children in the mesh")
        level, half, bits = self.level + 1, self.size_cells >> 1, self.system.bit(self.level + 1)
        corners = [(2 * m + b, 2 * m + b + 1) for m, b in zip(self.corner, bits)]
        starts = [(s, s + half) for s in self._start]
        return [_in_range_cube(self.system, level, corner, start, half)
                for corner, start in zip(itertools.product(*corners), itertools.product(*starts))]

    def key(self) -> tuple:
        return (self.level, self.corner)


def _in_range_cube(system, level: int, corner: tuple, start: tuple, size: int) -> DyadicCube:
    """The cube's fields and the geometry `__post_init__` would set (first cells `start`,
    side `size` cells), without its checks: the caller keeps the cube in range."""
    cube = object.__new__(DyadicCube)
    cube.__dict__.update(system=system, level=level, corner=corner, _start=start, size_cells=size)
    return cube


# -- goodness ---------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessParams:
    """Boundary exponent, ancestor threshold, and ancestor-chain truncation.

    Ancestors at level gap s (side 2^s times the cube's) are inspected for
    r <= s, truncated by `max_generations` when given and always by the
    system's own level floor.  A cube with no inspectable ancestors is
    good by vacuity.
    """

    gamma: float
    r: int
    max_generations: Optional[int] = None

    def __post_init__(self):
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must lie in (0, 1)")
        if self.r < 1:
            raise ValueError("r must be a positive integer")


def _gap_range(system: DyadicSystem, level: int, params: GoodnessParams) -> range:
    s_hi = level - system.min_level
    if params.max_generations is not None:
        s_hi = min(s_hi, params.max_generations)
    return range(params.r, s_hi + 1)


def is_good(cube: DyadicCube, params: GoodnessParams) -> bool:
    """Whether the translated cube is far from every inspected ancestor's boundary.

    The distance test compares the integer cell distance against the
    gamma-power threshold (evaluated in floating point); near-ties within
    1e-12 count as bad.
    """
    sysm = cube.system
    # bit t of each word is scale level - t: the offsets inside every ancestor
    above = [w >> (sysm.depth - cube.level) for w in sysm._words]
    for s in _gap_range(sysm, cube.level, params):
        mod = 1 << s
        dist_units = min(min(o, mod - 1 - o)
                         for o in ((m - w) % mod for m, w in zip(cube.corner, above)))
        threshold = 2.0 ** (s * (1.0 - params.gamma))
        if not dist_units > threshold + _GOOD_TIE_TOL:
            return False
    return True


def goodness_bound(params: GoodnessParams, d: int) -> float:
    """Analytic lower bound for the probability of being good."""
    return 1.0 - (8.0 * d / params.gamma) * 2.0 ** (-params.r * params.gamma)


@dataclass(frozen=True)
class GoodnessProbability:
    good_count: int
    total: int
    analytic_bound: float

    @property
    def value(self) -> float:
        return self.good_count / self.total


def _good_mask(u: np.ndarray, corners: np.ndarray, gaps: range, gamma: float) -> np.ndarray:
    """Vectorized goodness of corners against ancestor bit words, one axis per
    row; the two (d, n) arrays broadcast, so either may be a single column."""
    good = np.ones(np.broadcast_shapes(u.shape, corners.shape)[1], dtype=bool)
    for s in gaps:
        o = (corners - u) % (1 << s)
        dist = np.minimum(o, (1 << s) - 1 - o).min(axis=0)
        good &= dist > 2.0 ** (s * (1.0 - gamma)) + _GOOD_TIE_TOL
    return good


def good_mask(system: DyadicSystem, level: int, params: GoodnessParams) -> np.ndarray:
    """`is_good` of every cube of `cubes_at_level(level)`, in that order.

    The cubes of a level share their ancestors' bits, so one bit word per
    axis, tested against every corner at once, gives the same flags.
    """
    gaps = _gap_range(system, level, params)
    corners, _ = system.level_cubes(level)
    u = [w >> (system.depth - level) for w in system._words]  # as in `is_good`
    return _good_mask(np.array(u, dtype=np.int64)[:, None], corners, gaps, params.gamma)


def goodness_probability(max_gap: int, params: GoodnessParams, d: int = 1,
                         base_corner: Optional[Sequence[int]] = None) -> GoodnessProbability:
    """Exact goodness probability over the bits of gaps r..max_gap.

    Enumerates all 2^(max_gap*d) relevant translation-bit patterns; the
    result does not depend on `base_corner`, which is exposed so callers
    can verify that claim.
    """
    if max_gap < params.r:
        raise ValueError("max_gap must be at least the ancestor threshold r")
    n_bits = max_gap * d
    if 2**n_bits > _PROBABILITY_PATTERNS:
        raise ResourceLimitError(
            f"enumeration of 2^{n_bits} bit patterns exceeds cap {_PROBABILITY_PATTERNS}"
        )
    corner = np.array(base_corner if base_corner is not None else (0,) * d, dtype=np.int64)
    axes = [np.arange(1 << max_gap, dtype=np.int64)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    u_flat = np.stack([g.ravel() for g in grids], axis=0)
    good = _good_mask(u_flat, corner[:, None], range(params.r, max_gap + 1), params.gamma)
    return GoodnessProbability(int(good.sum()), good.size, goodness_bound(params, d))


def goodness_position_joint(d: int, level: int, depth: int, m_top: int,
                            params: GoodnessParams) -> np.ndarray:
    """Joint counts of (translated position, goodness) by full bit enumeration.

    Builds a real system for every pattern of the bits at scales
    (level - max_generations, depth] and records the finest-cell shift of
    the base cube together with its goodness flag.  Returns an integer
    array of shape (2^((depth-level)*d), 2) from which exact factorization
    of the joint distribution can be checked.
    """
    if params.max_generations is None:
        raise ValueError("a relative ancestor truncation is required here")
    gens = params.max_generations
    if level - gens < -m_top:
        raise ValueError("system too shallow for the requested generations")
    n_bits = (gens + depth - level) * d
    if 2**n_bits > _JOINT_PATTERNS:
        raise ResourceLimitError(f"2^{n_bits} bit patterns exceed cap {_JOINT_PATTERNS}")
    n_pos = 1 << ((depth - level) * d)
    counts = np.zeros((n_pos, 2), dtype=np.int64)
    head = ((0,) * d,) * (m_top + level - gens)  # scales -m_top < j <= level - gens
    bits = list(itertools.product((0, 1), repeat=d))  # every entry omega may hold
    cells = 1 << (depth - level)
    for pattern in itertools.product(bits, repeat=gens + depth - level):
        sysm = DyadicSystem(d=d, m_top=m_top, depth=depth, omega=head + pattern)
        cube = sysm.cube(level, (0,) * d)
        pos = 0
        for shift in sysm.shift_cells(level):
            pos = pos * cells + shift
        counts[pos, int(is_good(cube, params))] += 1
    return counts
