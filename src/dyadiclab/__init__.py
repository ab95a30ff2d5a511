"""Numerical laboratory for dyadic harmonic analysis on finite meshes."""

from .grid import (DyadicCube, DyadicSystem, GoodnessParams, goodness_bound,
                   goodness_probability, is_good)
from .gridfn import (GridFunction, analyze, bmo_norm, cube_average, from_callable,
                     haar_coefficient, indicator, lp_norm, pair, random_grid_function,
                     synthesize)
from .space import SCALAR, NormedSpace, conjugate_exponent, umd_beta_scalar

__all__ = [
    "DyadicCube", "DyadicSystem", "GoodnessParams", "GridFunction", "NormedSpace",
    "SCALAR", "analyze", "bmo_norm", "conjugate_exponent",
    "cube_average", "from_callable", "goodness_bound", "goodness_probability",
    "haar_coefficient", "indicator", "is_good",
    "lp_norm", "pair", "random_grid_function", "synthesize",
    "umd_beta_scalar",
]
