"""Closed-form calculus for matrix-fractional support functions.

The library evaluates the support function of constrained quadratic graph
sets ``{(Y, -1/2 Y Y^T) : A Y = B}`` in closed form via null-space KKT
solves, and provides the surrounding convex geometry: subspace-restricted
PSD cones and their polars, the closed convex hull with explicit
convex-combination witnesses, normal cones and subdifferentials, polar and
horizon cones, and the gauge calculus of the homogeneous case.  Every
closed form has an independent brute-force counterpart in
:mod:`gmfrac.bruteforce` for verification, and :mod:`gmfrac.verify` runs
those checks on one pair.
"""

from .linalg import *  # noqa: F401,F403
from .cones import *  # noqa: F401,F403
from .support import *  # noqa: F401,F403
from .hull import *  # noqa: F401,F403
from .subgrad import *  # noqa: F401,F403
from .gauges import *  # noqa: F401,F403
from .bruteforce import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from . import bruteforce, cones, gauges, hull, linalg, subgrad, support, verify

__version__ = "0.1.0"

# Each public name is declared once, in the ``__all__`` of the module that
# defines it.
__all__ = [
    name
    for module in (linalg, cones, support, hull, subgrad, gauges, bruteforce, verify)
    for name in module.__all__
]
