"""Atom hierarchies, auxiliary martingale splittings, and decoupled norms.

An atom hierarchy is a refining sequence of partitions of a finite
weighted ground set.  Each atom with children carries one probability
factor whose outcomes are its children (with measure-proportional
probabilities), and a product point assigns one independent child choice
per atom.  A function adapted to an atom (supported there, constant on
children, zero mean) splits into a symmetric and an antisymmetric table
over child pairs; the symmetric part has zero mean against the product
factor and the antisymmetric part kills every function of the symmetric
one, which is exactly what the martingale-difference checks verify.

Every integrand here depends on finitely many product coordinates (the
chain of atoms through a ground cell), so expectations are computed
exactly per cell without materializing the full product space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AdaptednessError, ResourceLimitError
from .rademacher import sign_average
from .rng import substream, substreams
from .space import SCALAR, NormedSpace

_TOL = 1e-12
# the most child-choice tuples one root-to-leaf chain of a drawn hierarchy may take
_CHAIN_CAP = 1_000_000
# the most child-choice tuples times sign patterns one cell may take: 8^4, the
# largest a depth-4 hierarchy with at most 4 children per atom can reach
_CELL_WORK_CAP = 4096


@dataclass(frozen=True)
class AtomHierarchy:
    """Refining partitions of weighted ground cells, as index lists per atom.

    Each level lists its atoms in ascending order of their cell tuples, so
    every atom's children come in that one order.  The hierarchy is indexed
    once, when it is made.
    """

    cell_weights: np.ndarray
    levels: tuple  # levels[l] is a tuple of atoms; an atom is a tuple of cell indices

    def __post_init__(self):
        w = np.asarray(self.cell_weights, dtype=float)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("ground-cell weights must be finite and positive")
        object.__setattr__(self, "cell_weights", w)
        owners = []  # owners[l][cell] is the index of the level-l atom holding the cell
        for atoms in self.levels:
            seen = [c for atom in atoms for c in atom]
            if sorted(seen) != list(range(w.size)):
                raise ValueError("each level must partition the ground set")
            if list(atoms) != sorted(atoms):
                raise ValueError("each level must list its atoms in ascending cell order")
            owner = np.empty(w.size, dtype=np.intp)
            for k, atom in enumerate(atoms):
                owner[list(atom)] = k
            owners.append(owner)
        # plain attributes, so eq and repr see only the fields: the active atoms,
        # and per level above the finest, each cell's atom as an index into them
        active, chains = [], []
        for level, owner in enumerate(owners[:-1]):
            kids = [[] for _ in self.levels[level]]
            for child in self.levels[level + 1]:
                parents = set(owner[list(child)])
                if len(parents) != 1:
                    raise ValueError("levels must refine")
                kids[parents.pop()].append(child)
            chains.append(owner + len(active))
            active += [(level, atom, ch, np.array([self.atom_weight(k) for k in ch]))
                       for atom, ch in zip(self.levels[level], kids)]
        object.__setattr__(self, "_active", tuple(active))
        object.__setattr__(self, "_chains", chains)

    @property
    def n_cells(self) -> int:
        return self.cell_weights.size

    def atom_weight(self, atom) -> float:
        return float(self.cell_weights[list(atom)].sum())

    def active_atoms(self) -> tuple:
        """(level, atom, children, child masses) of every atom above the finest level,
        coarse to fine; atoms with a single child are included."""
        return self._active

    def chain_through(self, cell: int) -> list:
        """The active atoms containing a ground cell, coarse to fine."""
        return [self._active[chain[cell]] for chain in self._chains]


def random_hierarchy(seed: int, depth: int = 3, max_children: int = 4) -> AtomHierarchy:
    """Seeded hierarchy: the root splits recursively into 1..max_children parts.

    Raises ResourceLimitError, while the tree is drawn, once one root-to-leaf
    product of child counts passes the chain cap.
    """
    if depth < 0 or max_children < 1:
        raise ValueError(f"a hierarchy needs depth >= 0 and max_children >= 1, "
                         f"not {depth} and {max_children}")
    gen = substream(seed, "atom-hierarchy")
    leaf_counter = itertools.count()
    levels = [[] for _ in range(depth + 1)]

    # each atom's cells join its level after its children's, so levels fill left to right
    def split(node_depth: int, choices: int) -> tuple:
        if node_depth == depth:
            cells = (next(leaf_counter),)
        else:
            k = int(gen.integers(1, max_children + 1))
            if choices * k > _CHAIN_CAP:
                raise ResourceLimitError(f"a root-to-leaf product of child counts passes "
                                         f"the chain cap {_CHAIN_CAP}")
            cells = tuple(c for _ in range(k) for c in split(node_depth + 1, choices * k))
        levels[node_depth].append(cells)
        return cells

    split(0, 1)
    n_cells = next(leaf_counter)
    weights = np.exp(gen.uniform(-1.0, 1.0, size=n_cells))
    return AtomHierarchy(weights, tuple(map(tuple, levels)))


@dataclass(frozen=True)
class AdaptedFamily:
    """Per active atom: values on its children with zero weighted mean."""

    hierarchy: AtomHierarchy
    values: dict  # (level, atom) -> array (n_children, dim)
    space: NormedSpace = SCALAR

    def __post_init__(self):
        for (level, atom, kids, masses) in self.hierarchy.active_atoms():
            vals = np.asarray(self.values[(level, atom)], dtype=float)
            if vals.shape != (len(kids), self.space.dim):
                raise AdaptednessError("wrong table shape for an atom")
            if np.any(np.abs(masses @ vals / masses.sum()) > _TOL * max(1.0, np.abs(vals).max())):
                raise AdaptednessError("nonzero weighted mean on an atom")

    def cell_sum(self) -> np.ndarray:
        """The plain sum over atoms, as one value per ground cell."""
        h = self.hierarchy
        out = np.zeros((h.n_cells, self.space.dim))
        for (level, atom, kids, _) in h.active_atoms():
            vals = self.values[(level, atom)]
            for kid, v in zip(kids, vals):
                out[list(kid)] += v
        return out


def random_adapted_family(hierarchy: AtomHierarchy, seed: int,
                          space: NormedSpace = SCALAR) -> AdaptedFamily:
    gen = substream(seed, "adapted-family")
    values = {}
    for (level, atom, kids, masses) in hierarchy.active_atoms():
        vals = gen.standard_normal((len(kids), space.dim))
        vals -= (masses @ vals) / masses.sum()
        values[(level, atom)] = vals
    return AdaptedFamily(hierarchy, values, space)


@dataclass(frozen=True)
class UVTables:
    """Symmetric/antisymmetric child-pair tables of an adapted family."""

    family: AdaptedFamily
    symmetric: dict      # (level, atom) -> (C, C, dim)
    antisymmetric: dict  # (level, atom) -> (C, C, dim)


def construct_uv(family: AdaptedFamily) -> UVTables:
    """Split each atom's difference into symmetric and antisymmetric parts.

    On the child pair (A, B) the two parts are (val_A + val_B)/2 and
    (val_A - val_B)/2; their sum restores the difference evaluated in the
    base variable and their difference the decoupled copy.
    """
    sym, skew = {}, {}
    for (level, atom, _, _) in family.hierarchy.active_atoms():
        vals = np.asarray(family.values[(level, atom)])
        a = vals[:, None, :]
        b = vals[None, :, :]
        sym[(level, atom)] = (a + b) / 2.0
        skew[(level, atom)] = (a - b) / 2.0
    return UVTables(family, sym, skew)


def check_mds(uv: UVTables, test_functions: int = 20, seed: int = 0) -> float:
    """Largest violation of the martingale-difference identities.

    Per atom: the symmetric table must integrate to zero against the
    product factor, and the antisymmetric table must kill every function
    of the symmetric one (random polynomial test functions, drawn once per level).
    """
    h = uv.family.hierarchy
    dim = uv.family.space.dim
    levels = range(len(h.levels) - 1)
    gens = substreams(seed, [("mds-test", level, t) for level in levels
                             for t in range(test_functions)])
    drawn = [(gen.standard_normal(dim), gen.standard_normal(4)) for gen in gens]
    tests = [drawn[level * test_functions:(level + 1) * test_functions] for level in levels]
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


def plain_pnorm(family: AdaptedFamily, p: float) -> float:
    """L^p(mu) norm of the plain sum of the adapted functions."""
    h = family.hierarchy
    cellvals = family.cell_sum()
    norms = family.space.norm(cellvals)
    return float((norms**p * h.cell_weights).sum() ** (1.0 / p))


def decoupled_pnorm(family: AdaptedFamily, p: float) -> float:
    """Randomized-sign decoupled norm, with independent per-atom coordinates.

    Only the chain of atoms through a ground cell enters the integrand, and
    cells with the same atom at the last active level share it, so the
    expectation is exact per chain.  A chain costs its child-choice tuples
    times 2^(chain length) sign patterns; every chain is checked against
    `_CELL_WORK_CAP` on that product, which also keeps its length within the
    sign enumeration cap, before any is evaluated in one batch.
    """
    h = family.hierarchy
    last = h._chains[-1] if h._chains else np.zeros(0, dtype=np.intp)
    _, firsts = np.unique(last, return_index=True)
    chains = {int(last[cell]): h.chain_through(cell) for cell in np.sort(firsts)}
    for chain in chains.values():
        choices = math.prod(len(kids) for (_, _, kids, _) in chain)
        if choices << len(chain) > _CELL_WORK_CAP:
            raise ResourceLimitError(f"a chain of {len(chain)} atoms and {choices} child "
                                     f"choices passes the cell work cap {_CELL_WORK_CAP}")
    expectation = {}
    for key, chain in chains.items():
        # every child-choice tuple, in itertools.product order
        choice = np.indices([len(kids) for (_, _, kids, _) in chain]).reshape(len(chain), -1)
        elements = np.stack([np.asarray(family.values[(level, atom)])[c]
                             for (level, atom, _, _), c in zip(chain, choice)], axis=1)
        probs = np.prod([(mu / mu.sum())[c] for (_, _, _, mu), c in zip(chain, choice)], axis=0)
        acc = 0.0
        for prob, mean in zip(probs.tolist(), sign_average(elements, p, family.space).tolist()):
            acc += prob * mean
        expectation[key] = acc
    total = 0.0
    for key, weight in zip(last.tolist(), h.cell_weights.tolist()):
        total += expectation[key] * weight
    return total ** (1.0 / p)


# -- sums of independent conditional expectations -----------------------------------


@dataclass(frozen=True)
class FiniteProbSpace:
    """A finite probability space given by point weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be finite and nonnegative with positive total")
        object.__setattr__(self, "weights", w / w.sum())

    @property
    def size(self) -> int:
        return self.weights.size


def condexp_sum_check(factors: Sequence[FiniteProbSpace], fs: Sequence[np.ndarray],
                      partitions: Sequence[Sequence[Sequence[int]]], p: float,
                      space: NormedSpace = SCALAR) -> float:
    """Ratio of the summed conditioned functions to the plain sum, in L^p.

    Factor n carries f_n (one value per point) and a sub-algebra given as
    a partition of its points; expectations over the product space are
    exact.  The ratio never exceeds one.
    """
    n_factors = len(factors)
    conditioned = []
    for f, factor, part in zip(fs, factors, partitions):
        f = np.asarray(f, dtype=float)
        g = np.zeros_like(f)
        for block in part:
            block = list(block)
            w = factor.weights[block]
            g[block] = (w[:, None] * f[block]).sum(axis=0) / w.sum()
        conditioned.append(g)

    def product_norm(values: Sequence[np.ndarray]) -> float:
        shape = tuple(sp.size for sp in factors)
        total = np.zeros(shape + (space.dim,))
        for n, vals in enumerate(values):
            idx = [None] * n_factors + [slice(None)]
            idx[n] = slice(None)
            total = total + vals[tuple(idx)]
        weight = np.ones(shape)
        for n, factor in enumerate(factors):
            idx = [None] * n_factors
            idx[n] = slice(None)
            weight = weight * factor.weights[tuple(idx)]
        return float(((space.norm(total) ** p) * weight).sum() ** (1.0 / p))

    num = product_norm(conditioned)
    den = product_norm([np.asarray(f, dtype=float) for f in fs])
    if den == 0.0:
        return 0.0
    return num / den
