"""Normal cones of the hull and subdifferentials of the support function.

At a hull point ``(Y, W)`` the normal cone consists of the duals ``(X, V)``
with ``V`` PSD on ``ker A``, complementarity ``<V, 1/2 Y Y^T + W> = 0``, and
``rge(X - V Y)`` orthogonal to ``ker A``.  Combined with hull membership
this characterizes the subdifferential of the support function, and the KKT
solve of :func:`gmfrac.support.eval_support` yields one canonical
subgradient at every domain point.

The canonical subgradient is a point of :func:`gmfrac.graph_point`, whose
gap matrix ``1/2 Y Y^T + W`` is exactly zero and marked so when the point
is built (see :mod:`gmfrac.hull`).  At such a point both tests here form no
gap: feasibility decides the hull test, complementarity holds exactly, and
only the cone test on ``V`` (normal cone only) and the residual
``Q^T (X - V Y)`` remain.  Any other point, the same values built through
``PrimalPoint`` included, forms its gap, which complementarity reads, and
takes its hull test through the memo of the hull tests (see
:mod:`gmfrac.hull`): a point just tested by :func:`gmfrac.in_hull` or
another test of its gap compresses and factorizes nothing for it.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _norm, _small, frobenius_inner
from .cones import _in_cone
from .support import PreconditionError, _check_point, eval_support, in_domain
from .hull import PrimalPoint, _hull_test, graph_point

__all__ = [
    "SubgradientResult",
    "in_normal_cone",
    "canonical_subgradient",
    "in_subdifferential",
]


@dataclass(eq=False)
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
    ``1e-9 * max(1, ||V|| ||1/2 Y Y^T + W||)``, and
    ``||Q^T (X - V Y)||_F <= 1e-9 * max(1, ||X - V Y||_F)`` (existence of
    a multiplier ``Z`` with ``X - V Y = A^T Z``, since ``rge A^T`` is the
    orthogonal complement of ``ker A``).  At a point of
    :func:`gmfrac.graph_point` the gap matrix is exactly zero: the base is
    in the hull when it is feasible, complementarity holds, and no gap is
    formed.  At any other base the hull test is read from the memo of the
    hull tests where it holds the base and pair.

    Raises
    ------
    PreconditionError
        If ``base`` is not in the hull.
    """
    _check_point(dual, pair)
    inside, gap = _hull_test(base, pair)
    if not inside:
        raise PreconditionError("normal cone is only defined at hull points")
    if not _in_cone(dual.V, pair.kernel):
        return False
    return _normal_conditions(dual, base, gap, pair)


def _normal_conditions(dual, base, gap, pair):
    # complementarity and Q^T (X - V Y) = 0 for the base's gap matrix, None
    # where it is exactly zero and complementarity holds: the normal-cone
    # conditions left once hull membership of the base and the cone test on
    # V are known; ||Q^T R||_F = ||Q Q^T R||_F since Q has orthonormal
    # columns
    V = dual.V
    if gap is not None and not _small(frobenius_inner(V, gap), _norm(V) * _norm(gap)):
        return False
    resid = dual.X - V @ base.Y
    return _small(pair.kernel.basis.T @ resid, resid)


def canonical_subgradient(dual, pair):
    """One explicit subgradient of the support function at a domain point.

    Takes ``(Y*, Z*)`` from the KKT solve and returns the graph-set
    representative ``(Y*, -1/2 Y* Y*^T)``, built by
    :func:`gmfrac.graph_point`; its gap matrix is exactly zero, so
    complementarity holds for free and the subdifferential meets the graph
    set at every domain point.  The point is marked as a graph point, so
    :func:`in_subdifferential` and :func:`in_normal_cone` at it form no gap:
    its hull test is the feasibility test alone.  The KKT solve is that of
    :func:`gmfrac.eval_support`, so it is read from the memo when the same
    point was one of the two most recent solved on the pair.

    Raises
    ------
    PreconditionError
        If the dual point is outside the domain.
    """
    res = eval_support(dual, pair)
    if not res.finite:
        raise PreconditionError("dual point is outside the support-function domain")
    return SubgradientResult(
        point=graph_point(res.maximizer), multiplier=res.multiplier, value=res.value
    )


def in_subdifferential(candidate, dual, pair):
    """Subdifferential membership of ``(Y, W)`` at a domain point ``(X, V)``.

    Equivalent to hull membership plus normal-cone membership of the dual at
    the candidate.  The domain test already places ``V`` in the cone, so of
    the normal-cone conditions only complementarity and ``Q^T (X - V Y) = 0``
    remain to check.  At a point of :func:`gmfrac.graph_point`, such as the
    canonical subgradient, the gap matrix is exactly zero and is not formed:
    feasibility decides the hull test, complementarity holds, and only the
    residual ``Q^T (X - V Y)`` is tested.  The domain test is the support
    solve and shares its memo, so repeated calls at one dual point, and
    calls after :func:`canonical_subgradient` at it, compress and factorize
    it once; the hull test of any other candidate shares the memo of the
    hull tests in the same way.

    Raises
    ------
    PreconditionError
        If the dual point is outside the domain.
    """
    if not in_domain(dual, pair):
        raise PreconditionError("dual point is outside the support-function domain")
    inside, gap = _hull_test(candidate, pair)
    if not inside:
        return False
    return _normal_conditions(dual, candidate, gap, pair)
