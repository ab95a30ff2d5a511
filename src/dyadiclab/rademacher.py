"""Rademacher averages, R-bound witnesses and probes, and Stein's inequality.

R-bounds and unconditionality constants are suprema over infinite witness
sets, so this module certifies them from below: any witness ratio is a
valid lower bound, and probes are maxima over seeded witness searches.
Upper bounds come from the inequalities under test, never from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ResourceLimitError
from .gridfn import GridFunction, conditional_expectation
from .rng import substreams
from .space import NormedSpace, umd_beta_scalar

EXHAUSTIVE_CAP = 20


def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign patterns as a (2^n, n) array of +-1."""
    if n > EXHAUSTIVE_CAP:
        raise ResourceLimitError(f"exhaustive signs capped at {EXHAUSTIVE_CAP}, got {n}")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def sign_average(elements: np.ndarray, p: float, space: NormedSpace) -> np.ndarray:
    """Mean of |sum_n eps_n x_n|^p over all 2^n sign patterns, per leading index.

    `elements` has shape (..., n, dim); the result has shape (...).
    """
    elements = np.asarray(elements, dtype=float)
    powers = space.norm(sign_patterns(elements.shape[-2]) @ elements) ** p
    return powers.mean(axis=-1)


@dataclass(frozen=True)
class OperatorFamily:
    """A finite family of real matrices acting on one normed space."""

    operators: tuple
    space: NormedSpace

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=float) for op in self.operators)
        for op in ops:
            if op.shape != (self.space.dim, self.space.dim):
                raise ValueError("operator shape must match the space dimension")
        object.__setattr__(self, "operators", ops)

    def __len__(self):
        return len(self.operators)


def _witness_ratios(family: OperatorFamily, ks, elems, p: float) -> list:
    """Witness ratios of equal-length assignments, given as operator indices
    (batch, n) and elements (batch, n, dim); None where the input norm is zero."""
    elems = np.asarray(elems, dtype=float)
    outs = (np.asarray(family.operators)[np.asarray(ks)] @ elems[..., None])[..., 0]
    num, den = sign_average(np.stack([outs, elems]), p, family.space)
    return [float(a) ** (1.0 / p) / float(b) ** (1.0 / p) if b != 0.0 else None
            for a, b in zip(num, den)]


def rbound_witness(family: OperatorFamily, assignment, p: float) -> float:
    """Ratio of output to input Rademacher p-norms for one assignment.

    `assignment` is a sequence of (operator index, element) pairs; any
    witness ratio is a lower bound for the family's R-bound.
    """
    if len(assignment) == 0:
        raise DegenerateInputError("assignment must be nonempty")
    elems = np.stack([np.asarray(e, dtype=float) for _, e in assignment])
    ratio, = _witness_ratios(family, [[k for k, _ in assignment]], elems[None], p)
    if ratio is None:
        raise DegenerateInputError("input Rademacher norm is zero")
    return ratio


def _power_iteration_vector(op: np.ndarray, gen, iters: int = 12) -> np.ndarray:
    v = gen.standard_normal(op.shape[1])
    v /= max(np.linalg.norm(v), 1e-300)
    for _ in range(iters):
        w = op.T @ (op @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return v
        v = w / nw
    return v


def rbound_probe(family: OperatorFamily, p: float, budget: int, seed: int,
                 extra_assignments=()) -> float:
    """Best witness ratio found by a seeded search; monotone in `budget`.

    The search always evaluates canonical single-operator witnesses
    (basis vectors plus a power-iteration direction per operator) and
    then `budget` random assignments from per-trial substreams, so a
    larger budget extends, never replaces, a smaller one.  Assignments of
    one length are scored together; empty and zero-norm ones are skipped.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    dim = family.space.dim
    groups = {}  # assignment length -> [(operator indices, elements)]

    def add(ks, es):
        if len(ks):
            groups.setdefault(len(ks), []).append((ks, es))

    gens = substreams(seed, [("probe-power", k) for k in range(len(family))]
                      + [("probe-trial", t) for t in range(budget)])
    for k, op in enumerate(family.operators):
        for e in np.eye(dim):
            add([k], e[None])
        add([k], _power_iteration_vector(op, next(gens))[None])
    for gen in gens:
        n = int(gen.integers(1, 5))  # repeats of operators are valid witnesses
        add(gen.integers(0, len(family), size=n), gen.standard_normal((n, dim)))
    for assignment in extra_assignments:
        add([k for k, _ in assignment], [e for _, e in assignment])
    ratios = [r for group in groups.values()
              for r in _witness_ratios(family, *zip(*group), p) if r is not None]
    return max([0.0, *ratios])


# -- conditional-expectation (Stein) probe --------------------------------------


@dataclass(frozen=True)
class SteinResult:
    ratio: float
    bound: float


def stein_check(fs: Sequence[GridFunction], levels: Sequence[int], p: float) -> SteinResult:
    """Randomized ratio of conditioned to raw sums against the scalar beta_p.

    Computes (E_eps ||sum_k eps_k E[f_k | level_k]||_p^p)^(1/p) divided by
    the same expression without the conditioning, with exhaustive signs.
    The reference constant is known only for scalar functions.
    """
    if len(fs) != len(levels):
        raise ValueError("one conditioning level per function")
    if fs[0].space.dim != 1:
        raise ValueError("the reference constant is known only for scalar spaces")
    # (conditioned or raw, cell, function, value), averaged over signs per cell
    stacks = np.array([[conditional_expectation(f, lv).values for f, lv in zip(fs, levels)],
                       [f.values for f in fs]]).reshape(2, len(fs), -1).swapaxes(1, 2)[..., None]
    powers = sign_average(stacks, p, fs[0].space).sum(axis=1) * fs[0].system.cell_volume
    num, den = (float(x) ** (1.0 / p) for x in powers)
    if den == 0.0:
        raise DegenerateInputError("zero input family")
    return SteinResult(num / den, umd_beta_scalar(p))


# -- calculus checks: averaging and triangle inequality ----------------------------


@dataclass(frozen=True)
class CalculusCheck:
    witness: float
    probe: float


def averaging_check(pointwise: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                    measure: np.ndarray, assignment, p: float,
                    space: NormedSpace, probe_budget: int = 40, seed: int = 0) -> CalculusCheck:
    """Witness of an averaged family against a probe of its pointwise family.

    `pointwise[s]` has shape (npts, dim, dim); the averaged operator is
    sum_x L_s(x) lambda_s(x) mu(x).  Provided each integral of |lambda_s|
    is at most one, the averaged family's R-bound is dominated by the
    pointwise family's, so the witness must not exceed the probe.  The
    probe includes the derived assignments that realize the domination:
    the same operator indices at every tuple of mesh points, with the
    elements scaled by the weight masses.
    """
    measure = np.asarray(measure, dtype=float)
    npts = measure.size
    masses = [float(np.abs(w * measure).sum()) for w in weights]
    if max(masses) > 1.0 + 1e-12:
        raise ValueError("weights must have integral of |lambda| at most 1")
    averaged = OperatorFamily(
        tuple(np.tensordot(w * measure, ls, axes=(0, 0))
              for ls, w in zip(pointwise, weights)),
        space,
    )
    # pointwise operator x of family s is member s * npts + x
    pw_family = OperatorFamily(tuple(op for ls in pointwise for op in ls), space)

    witness = rbound_witness(averaged, assignment, p)
    derived = []
    ks = [k for k, _ in assignment]
    es = [np.asarray(e, dtype=float) for _, e in assignment]
    scaled = [max(masses[k], 1e-300) * e for k, e in zip(ks, es)]
    for xs in itertools.product(range(npts), repeat=len(ks)):
        derived.append([(k * npts + x, e) for k, x, e in zip(ks, xs, scaled)])
    probe = rbound_probe(pw_family, p, probe_budget, seed, extra_assignments=derived)
    return CalculusCheck(witness, probe)


def triangle_check(left: OperatorFamily, right: OperatorFamily, assignment,
                   p: float, probe_budget: int = 40, seed: int = 0) -> CalculusCheck:
    """Witness of the sum family {M_s + L_t} against probe(M) + probe(L).

    `assignment` pairs ((s, t), element); the probes include the two
    projected assignments, which dominate the summed witness by the
    triangle inequality in L^p of the signs.
    """
    if left.space != right.space:
        raise ValueError("families must share a space")
    pairs = sorted({(s, t) for (s, t), _ in assignment})
    pair_index = {st: k for k, st in enumerate(pairs)}
    sum_ops = tuple(left.operators[s] + right.operators[t] for s, t in pairs)
    sum_family = OperatorFamily(sum_ops, left.space)
    sum_assign = [(pair_index[st], e) for st, e in assignment]
    witness = rbound_witness(sum_family, sum_assign, p)
    left_assign = [(st[0], e) for st, e in assignment]
    right_assign = [(st[1], e) for st, e in assignment]
    probe_l = rbound_probe(left, p, probe_budget, seed, extra_assignments=[left_assign])
    probe_r = rbound_probe(right, p, probe_budget, seed + 1,
                           extra_assignments=[right_assign])
    return CalculusCheck(witness, probe_l + probe_r)
