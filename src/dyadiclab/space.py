"""Finite-dimensional normed value spaces.

A value space is R^dim with an l^q norm (1 <= q <= inf).  The dual of l^q
is l^{q'} with the usual conjugate exponent; pairings are plain dot products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def umd_beta_scalar(p: float) -> float:
    """Sharp unconditionality constant for scalar martingale transforms."""
    return max(p, conjugate_exponent(p)) - 1.0


@dataclass(frozen=True)
class NormedSpace:
    """R^dim with an l^q norm."""

    dim: int
    q: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not (1 <= self.q):
            raise ValueError("q must be in [1, inf]")

    def norm(self, v: np.ndarray) -> np.ndarray:
        """Norm along the trailing axis; keeps leading axes."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise ValueError(f"expected trailing dimension {self.dim}")
        a = np.abs(v)
        if self.q == np.inf:
            return a.max(axis=-1)
        if self.q == 1:
            return a.sum(axis=-1)
        if self.q == 2:
            return np.sqrt((a * a).sum(axis=-1))
        return (a**self.q).sum(axis=-1) ** (1.0 / self.q)


SCALAR = NormedSpace(1, 2.0)
