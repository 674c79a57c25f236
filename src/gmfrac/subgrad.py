"""Normal cones of the hull and subdifferentials of the support function.

At a hull point ``(Y, W)`` the normal cone consists of the duals ``(X, V)``
with ``V`` PSD on ``ker A``, complementarity ``<V, 1/2 Y Y^T + W> = 0``, and
``rge(X - V Y)`` orthogonal to ``ker A``.  Combined with hull membership
this characterizes the subdifferential of the support function, and the KKT
solve of :func:`gmfrac.support.eval_support` yields one canonical
subgradient at every domain point.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _norm, _small, frobenius_inner, symmetrize
from .cones import in_cone
from .support import PreconditionError, eval_support, in_domain
from .hull import PrimalPoint, in_hull, _gap

__all__ = [
    "SubgradientResult",
    "in_normal_cone",
    "canonical_subgradient",
    "in_subdifferential",
]


@dataclass
class SubgradientResult:
    """A constructed subgradient with its certificate.

    ``point = (Y*, -1/2 Y* Y*^T)`` lies on the graph set itself, so it
    satisfies complementarity with any cone element, and ``multiplier`` is
    the ``Z`` certifying ``X = V Y* + A^T Z``.  ``value`` is the support
    value at the dual point, which equals ``<X, Y*> + <V, W*>`` (the Fenchel
    equality).
    """

    point: PrimalPoint
    multiplier: np.ndarray
    value: float


def in_normal_cone(dual, base, pair):
    """Normal-cone membership of ``(X, V)`` at a hull point ``(Y, W)``.

    Checks the three conditions: ``V`` in the cone over ``ker A``,
    complementarity ``<V, 1/2 Y Y^T + W> = 0`` within
    ``eq_tol * max(1, ||V|| ||1/2 Y Y^T + W||)``, and
    ``||Q^T (X - V Y)||_F <= range_tol * max(1, ||X - V Y||_F)`` (existence of
    a multiplier ``Z`` with ``X - V Y = A^T Z``, since ``rge A^T`` is the
    orthogonal complement of ``ker A``).

    Raises
    ------
    PreconditionError
        If ``base`` is not in the hull.
    """
    if not in_hull(base, pair):
        raise PreconditionError("normal cone is only defined at hull points")
    if not in_cone(dual.V, pair.kernel, tol=pair.tol):
        return False
    return _normal_conditions(dual, base, pair)


def _normal_conditions(dual, base, pair):
    # complementarity and Q^T (X - V Y) = 0: the normal-cone conditions left
    # once hull membership of the base and the cone test on V are known;
    # ||Q^T R||_F = ||Q Q^T R||_F since Q has orthonormal columns
    V = dual.V
    gap = _gap(base)
    if not _small(frobenius_inner(V, gap), _norm(V) * _norm(gap), pair.tol.eq_tol):
        return False
    resid = dual.X - V @ base.Y
    return _small(pair.kernel.basis.T @ resid, resid, pair.tol.range_tol)


def canonical_subgradient(dual, pair):
    """One explicit subgradient of the support function at a domain point.

    Takes ``(Y*, Z*)`` from the KKT solve and returns the graph-set
    representative ``(Y*, -1/2 Y* Y*^T)``; its gap matrix is exactly zero, so
    complementarity holds for free and the subdifferential meets the graph
    set at every domain point.

    Raises
    ------
    PreconditionError
        If the dual point is outside the domain.
    """
    res = eval_support(dual, pair)
    if not res.finite:
        raise PreconditionError("dual point is outside the support-function domain")
    y_star = res.maximizer
    w_star = symmetrize(-0.5 * (y_star @ y_star.T))
    return SubgradientResult(
        point=PrimalPoint(y_star, w_star), multiplier=res.multiplier, value=res.value
    )


def in_subdifferential(candidate, dual, pair):
    """Subdifferential membership of ``(Y, W)`` at a domain point ``(X, V)``.

    Equivalent to hull membership plus normal-cone membership of the dual at
    the candidate.  The domain test already places ``V`` in the cone, so of
    the normal-cone conditions only complementarity and ``Q^T (X - V Y) = 0``
    remain to check.

    Raises
    ------
    PreconditionError
        If the dual point is outside the domain.
    """
    if not in_domain(dual, pair):
        raise PreconditionError("dual point is outside the support-function domain")
    if not in_hull(candidate, pair):
        return False
    return _normal_conditions(dual, candidate, pair)
