"""Proximal gradient methods for convex composite multiobjective optimization.

The library minimizes vector objectives ``F_i = f_i + g_i`` (smooth plus
proxable convex terms) in the Pareto sense.  Each iteration solves a
strongly convex min-max subproblem through its differentiable dual over
the probability simplex; the plain method steps from the current point,
the accelerated one from an extrapolated point with momentum
coefficients that yield the faster rate.  A benchmark harness (CLI
``mopg``) runs seeded batches on four shipped test problems and writes
CSV records, front data and summaries.

The public names are those of each module's ``__all__``.
"""

from . import bench, core, merit, problems, solvers, subproblem
from .bench import *
from .core import *
from .merit import *
from .problems import *
from .solvers import *
from .subproblem import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, subproblem, solvers, merit, problems, bench)
    for name in module.__all__
]
