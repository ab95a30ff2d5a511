"""Averaging blocks, dyadic shifts, and paraproducts.

A shift with parameters (i, j) maps f to the sum over cubes K of
project-out(j) . average-block(K) . project-in(i), where the per-cube
kernel is piecewise constant on the blocks max(i, j) + 1 generations
below K (the deeper of the two projection scales, so nothing the shift
can see is lost).  Kernels are either explicit tables or seeded draws
whose R-bound is capped by construction: scalar entries are drawn inside
the cap, and matrix tables, which act on a Hilbert space where a finite
family's R-bound is exactly its largest operator norm, are scaled so that
their largest spectral norm is the cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MeshDepthError
from .grid import DyadicCube, DyadicSystem
from .gridfn import (GridFunction, _block_means, _blocks, _expand_blocks, _stack, _unblocks,
                     _unstack, conditional_expectation)
from .rng import array_substreams
from .space import SCALAR, NormedSpace


_KERNEL_LABEL = "shift-kernel"  # a table's stream is keyed (seed, label, level, *corner)
_KEY_ROWS = 1 << 8  # most tables of several specs keyed in one batch, ~400 B each


@dataclass(frozen=True)
class RandomKernel:
    """Seeded per-cube kernel draws, capped in sup norm (scalar case) or scaled so
    that the largest spectral norm of a table's blocks is the cap (matrix case):
    on l^2, at p = 2, that norm is the blocks' exact R-bound."""

    seed: int
    cap: float = 1.0
    matrix_dim: int = 1

    def table(self, cube: DyadicCube, blocks: int, gen) -> np.ndarray:
        """The cube's table, drawn from `gen`: its stream already keyed, by `fill_tables`,
        as (seed, `_KERNEL_LABEL`, level, *corner)."""
        if self.matrix_dim == 1:
            return gen.uniform(-self.cap, self.cap, size=(blocks, blocks))
        raw = gen.uniform(-1.0, 1.0,
                          size=(blocks, blocks, self.matrix_dim, self.matrix_dim))
        return raw * (self.cap / np.linalg.norm(raw, 2, axis=(-2, -1)).max())


@dataclass(frozen=True)
class ExplicitKernel:
    """Kernel tables given per cube, keyed by (level, corner tuple)."""

    tables: dict

    def table(self, cube: DyadicCube, blocks: int) -> np.ndarray:
        try:
            return np.asarray(self.tables[cube.key()], dtype=float)
        except KeyError:
            raise ValueError(f"no kernel table for cube {cube.key()}") from None


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters, kernel source, and summation range of a dyadic shift."""

    i: int
    j: int
    system: DyadicSystem
    kernel: object
    space: NormedSpace = SCALAR

    @property
    def block_gap(self) -> int:
        return max(self.i, self.j) + 1

    def level_range(self) -> range:
        lo = self.system.min_level
        hi = self.system.depth - self.block_gap
        if hi < lo:
            raise MeshDepthError("shift complexity exceeds the mesh depth")
        return range(lo, hi + 1)

    def blocks_per_axis(self) -> int:
        return 1 << self.block_gap

    def __post_init__(self):
        kernel_dim = self.kernel.matrix_dim if isinstance(self.kernel, RandomKernel) else 1
        if kernel_dim not in (1, self.space.dim):
            raise ValueError(f"kernel matrix_dim {kernel_dim} does not match "
                             f"the space dim {self.space.dim}")
        if kernel_dim > 1 and self.space.q != 2:
            raise ValueError("matrix kernels need an l^2 space, where their cap is the R-bound")
        # level -> table stack, filled on first use; not a field, so eq/hash/repr skip it
        object.__setattr__(self, "_stacks", {})

    def level_tables(self, level: int) -> tuple:
        """(first cell per axis, cubes per axis, stacked kernel tables) of the level's
        cubes, in `cubes_at_level` order; each table is drawn or read only once.
        The first call draws every level of `level_range`, and `level` must be one."""
        if level not in self._stacks:
            next(fill_tables([self]))
        return self._stacks[level]


def fill_tables(specs):
    """Yield each spec of the iterable `specs`, in order, once it holds the kernel
    tables of its whole `level_range`; a spec that holds them already, or whose
    range is empty, is yielded as it is.

    The cubes of a level are listed once per system.  The random tables of
    consecutive specs on systems of one d are keyed in one batch, by one
    (kernel seed, level, *corner) array of at most `_KEY_ROWS` rows unless one
    spec has more, so the key temporaries stay small at any depth.  A spec's
    tables are drawn when it is yielded and the spec is let go then, so a
    caller that keeps no spec holds the tables of one spec at a time.  A given
    table must be scalar, (blocks, blocks), or for a space of dim n > 1 a
    matrix one, (blocks, blocks, n, n).
    """
    geometry = {}  # (system, level) -> (its cubes, cubes per axis, (level, *corner) rows)
    jobs = deque()  # (spec, [(level, *geometry) of each level to fill], random tables)
    for spec in specs:
        try:
            levels = () if spec._stacks else spec.level_range()
        except MeshDepthError:
            levels = ()
        todo = []
        for lv in levels:
            if (spec.system, lv) not in geometry:
                corners, _ = spec.system.level_cubes(lv)
                rows = np.full((corners.shape[1], 1 + len(corners)), lv, dtype=np.int64)
                rows[:, 1:] = corners.T
                counts = tuple((corners[:, -1] - corners[:, 0] + 1).tolist())  # row-major
                geometry[spec.system, lv] = (list(spec.system.cubes_at_level(lv)), counts, rows)
            todo.append((lv, *geometry[spec.system, lv]))
        jobs.append((spec, todo, sum(len(rows) for *_, rows in todo)
                     if isinstance(spec.kernel, RandomKernel) else 0))
    while jobs:
        batch = deque([jobs.popleft()])
        size, d = batch[0][2], batch[0][0].system.d
        while jobs and jobs[0][0].system.d == d and size + jobs[0][2] <= _KEY_ROWS:
            size += jobs[0][2]
            batch.append(jobs.popleft())
        # one shared generator, re-keyed by next(): each table is drawn before the next key
        drawn = [(spec.kernel.seed, rows) for spec, todo, n in batch if n for *_, rows in todo]
        gens = array_substreams([seed for seed, _ in drawn], (_KERNEL_LABEL,),
                                np.concatenate([rows for _, rows in drawn]),
                                [len(rows) for _, rows in drawn]) if drawn else None
        while batch:
            spec, todo, _ = batch.popleft()
            _draw_tables(spec, todo, gens)
            yield spec


def _draw_tables(spec: ShiftSpec, todo: list, gens):
    """Draw or read the tables of the levels `todo` lists for `spec`, random ones
    from the shared generator `gens`."""
    blocks = spec.blocks_per_axis() ** spec.system.d
    if isinstance(spec.kernel, RandomKernel):
        draw = lambda cube: spec.kernel.table(cube, blocks, next(gens))
    else:
        n = spec.space.dim
        shapes = {(blocks, blocks)} | ({(blocks, blocks, n, n)} if n > 1 else set())

        def draw(cube):
            table = spec.kernel.table(cube, blocks)
            if table.shape not in shapes:
                raise ValueError(f"kernel table for cube {cube.key()} has shape "
                                 f"{table.shape}, expected one of {sorted(shapes)}")
            return table

    for lv, cubes, counts, _ in todo:
        tables = np.stack([draw(cube) for cube in cubes])
        tables.setflags(write=False)
        spec._stacks[lv] = (cubes[0].start_cells(), counts, tables)


def _scale_step(arr: np.ndarray, d: int, side: int, g: int, res: int) -> np.ndarray:
    """Block means at 2^(g+1) minus at 2^g blocks per cube side, for cubes of
    `side` cells per axis tiling `arr`, expanded to 2^res blocks per side."""
    fine = _expand_blocks(_block_means(arr, d, side >> (g + 1)), d, 1 << (res - g - 1))
    return fine - _expand_blocks(_block_means(arr, d, side >> g), d, 1 << (res - g))


def apply_shift(spec: ShiftSpec, f):
    """Sum over cubes K of project(j) . averaging-block(K) . project(i).

    `f` is one GridFunction or a list of them, applied as one stack (see
    `gridfn._stack`); the result is of the same kind.
    The cubes of a level tile one box of cells, so each level is one pass
    over that box: the i-side block means, one batched contraction with the
    level's stacked tables, then the j-side block means of the result.
    """
    single, fs, stack = _stack(f)
    if fs[0].system != spec.system or fs[0].space.dim != spec.space.dim:
        raise ValueError("function does not match the shift's system/space")
    d, n, gap = spec.system.d, spec.space.dim, spec.block_gap
    b_axis = 1 << gap
    out = np.zeros_like(stack)
    for level in spec.level_range():
        start, counts, tables = spec.level_tables(level)
        size = 1 << (spec.system.depth - level)
        vol = float(2.0**-level) ** d
        box = (slice(None),) + tuple(slice(s, s + c * size) for s, c in zip(start, counts))
        proj_in = _scale_step(stack[box], d, size, spec.i, gap)
        integrals = (_blocks(proj_in, d, b_axis, 1).reshape(len(fs), len(tables), b_axis**d, n)
                     * (vol / b_axis**d))
        if tables.ndim == 3:
            averaged = (tables @ integrals) / vol
        else:
            averaged = np.einsum("koibc,mkic->mkob", tables, integrals) / vol
        grid = _unblocks(averaged.reshape(len(fs), *counts, b_axis**d, n), d, b_axis, 1)
        proj_out = _scale_step(grid, d, b_axis, spec.j, gap)
        out[box] += _expand_blocks(proj_out, d, size >> gap)
    return _unstack(single, spec.system, spec.space, out)


def adjoint_spec(spec: ShiftSpec) -> ShiftSpec:
    """Adjoint shift: parameters swapped, kernels transposed per cube."""
    tables = {}
    for level in spec.level_range():
        stack = spec.level_tables(level)[2]
        flipped = np.ascontiguousarray(stack.transpose(0, 2, 1, *range(stack.ndim - 1, 2, -1)))
        tables.update(zip((c.key() for c in spec.system.cubes_at_level(level)), flipped))
    return ShiftSpec(spec.j, spec.i, spec.system, ExplicitKernel(tables), spec.space)


# -- paraproducts -----------------------------------------------------------------


@dataclass(frozen=True)
class ParaproductSpec:
    """Symbol function and cube range of a dyadic paraproduct."""

    b: GridFunction
    levels: Optional[tuple] = None  # inclusive (lo, hi) cube levels

    def level_range(self) -> range:
        sysm = self.b.system
        lo, hi = sysm.min_level, sysm.depth - 1
        if self.levels is not None:
            lo, hi = max(lo, self.levels[0]), min(hi, self.levels[1])
        return range(lo, hi + 1)


def apply_paraproduct(spec, f):
    """Sum over cubes Q of (Haar projection of the symbol at Q) times <f>_Q.

    Scalar symbols multiply vector values pointwise; matrix symbols (with
    values stored as flattened n*n vectors) act by matrix-vector products.
    `spec` and `f` are one ParaproductSpec and one GridFunction, or equal-length
    lists applied pair by pair as stacks (see `gridfn._stack`), whose specs share
    the symbols' system and space and levels; the result is of the same kind.
    """
    single, fs, stack = _stack(f)
    specs = [spec] if isinstance(spec, ParaproductSpec) else list(spec)
    if isinstance(spec, ParaproductSpec) != single or len(specs) != len(fs):
        raise ValueError("give one spec and one function, or two lists of equal length")
    first, frame = specs[0], lambda s: (s.b.system, s.b.space, s.levels)
    if any(frame(s) != frame(first) for s in specs):
        raise ValueError("the specs of a list must share system, space and levels")
    b, sysm = first.b if single else [s.b for s in specs], first.b.system
    if fs[0].system != sysm:
        raise ValueError("symbol and argument live on different systems")
    n = fs[0].space.dim
    matrix_symbol = first.b.space.dim == n * n and n > 1
    if not matrix_symbol and first.b.space.dim != 1:
        raise ValueError("symbol must be scalar or act as n x n matrices")
    out = np.zeros_like(stack)
    levels = first.level_range()
    expect = lambda g, level: _stack(conditional_expectation(g, level))[2]
    # each level's finer expectation of the symbol is the next level's coarser one
    coarse = expect(b, levels.start) if levels else None
    for level in levels:
        fine = expect(b, level + 1)
        proj = fine - coarse
        coarse = fine
        avg = expect(f, level)
        if matrix_symbol:
            term = np.einsum("...bc,...c->...b",
                             proj.reshape(proj.shape[:-1] + (n, n)), avg)
        else:
            term = proj * avg
        out += term
    return _unstack(single, sysm, fs[0].space, out)
