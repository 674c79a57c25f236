"""Gauge calculus for the homogeneous case ``B = 0``.

Only when ``B = 0`` does the hull contain the origin, so only then is the
support function a gauge (of the polar set) and the hull's own gauge
available in closed form.  The gauge of ``(Y, W)`` is the smallest ``t``
with ``1/2 Y Y^T <= t (-W)``, which by the standard semidefinite-domination
lemma (``Y Y^T <= c G`` iff ``rge Y subset rge G`` and ``Y^T G^+ Y <= c I``)
equals

    gauge(Y, W) = 1/2 * lambda_max( S U^T (-W)^+ U S )

with reduced SVD ``Y = U S V^T``, on the domain ``rge Y subset ker A
intersect rge W``, ``W`` in the polar cone.  Equivalently the value is
``1/2 / sigma_min`` of the critical matrix, the pseudoinverse of
``-Y^T W^+ Y``; note the block of the inverse here, not the inverse of the
block: compressing ``W`` itself to ``rge Y`` would drop the coupling
between ``rge Y`` and the rest of the kernel and can understate the gauge.
A missing nonzero singular value (``rank_tol`` decides "nonzero") means
gauge zero, e.g. ``Y = 0`` with ``W`` in the polar cone.

The domain test is the polar-cone test on ``W``, the sign test of
``-C = -Q^T W Q`` that :func:`gmfrac.cones.in_polar_cone` takes.  On the
polar cone ``W = Q C Q^T``, so ``(-W)^+ = Q (-C)^+ Q^T``, and ``rge Y``
inside ``Q rge C`` is ``rge Y subset ker A intersect rge W``.  The gauge
reads ``(-C)^+`` the way the reduced support solve reads ``H^+``: where one
Cholesky factorization certifies that the rank cutoff keeps every
eigenvalue of ``-C`` (``linalg._nonsingular``), ``Q rge C`` is ``ker A``,
the range test is the residual of ``Y`` outside ``ker A``, and
``(-C)^+ = (-C)^-1`` is one LU solve, with no eigensolve.  Only a singular
``-C``, or one inside that certificate's rounding band, takes its kept
eigenpairs from ``linalg._eig_kept``; an eigenvalue that is negative,
which the sign test counted as zero, is never kept, so the gauge is finite
only where :func:`gmfrac.hull.in_hull` can accept the point.  ``W`` is
never factorized as an n-by-n matrix.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _eig_kept, _kept, _nonsingular, _outside, _small, symmetrize
from .cones import _in_polar, _polar_form
from .support import PreconditionError, eval_support

__all__ = [
    "GaugeResult",
    "in_scaled_hull",
    "eval_gauge",
    "eval_polar_gauge",
]


@dataclass
class GaugeResult:
    """Gauge value with the spectral data that produced it.

    ``finite`` is the explicit +inf flag.  ``critical_matrix`` is the m-by-m
    matrix ``-Y^+ W (Y^+)^T`` when it was formed, and ``sigma_min`` its
    smallest nonzero singular value (``None`` encodes "no nonzero singular
    value", in which case the gauge is 0 by the ``1/inf = 0`` convention).
    """

    finite: bool
    value: Optional[float] = None
    critical_matrix: Optional[np.ndarray] = None
    sigma_min: Optional[float] = None

    @classmethod
    def infinite(cls):
        return cls(finite=False)


def _require_homogeneous(pair):
    if not pair.homogeneous:
        raise PreconditionError("gauge calculus requires B = 0")


def in_scaled_hull(point, t, pair):
    """Membership of ``(Y, W)`` in ``t`` times the hull of the ``B = 0`` set.

    The scaled set is ``{(Y, W) : A Y = 0 and 1/2 Y Y^T + t W in polar}``;
    the same formula is applied at ``t = 0``.  Membership is upward closed
    in ``t`` on ``(0, inf)`` because the hull is convex and contains the
    origin.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    ValueError
        If ``t`` is negative or not finite.
    """
    _require_homogeneous(pair)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"scale t must be finite and nonnegative, got {t!r}")
    if not _small(pair.A @ point.Y, 0.0, pair.tol):
        return False
    gap = symmetrize(0.5 * (point.Y @ point.Y.T) + t * point.W)
    return _in_polar(gap, pair.kernel, pair.tol)


def eval_gauge(point, pair):
    """Closed-form gauge of the hull of the ``B = 0`` graph set.

    Returns an infinite result unless ``W`` lies in the polar cone and
    ``rge Y subset ker A intersect rge W``, tested as ``rge Y`` inside
    ``Q rge C`` for ``C = Q^T W Q``.  On that domain the value is
    ``1/2 / sigma_min`` of the critical matrix (see module docstring); a
    numerically zero ``Y`` gives gauge 0.  A ``-C`` certified nonsingular
    by one Cholesky factorization takes one LU solve and no eigensolve of
    ``-C``: then ``Q rge C = ker A`` and ``(-W)^+ = Q (-C)^-1 Q^T``.  Only a
    singular ``-C`` is eigendecomposed, for its kept eigenpairs.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    """
    _require_homogeneous(pair)
    tol = pair.tol
    Y = point.Y
    kernel = pair.kernel
    neg = _polar_form(point.W, kernel, tol)
    if neg is None:
        return GaugeResult.infinite()
    # a certified nonsingular -C keeps every eigenvalue: Q rge C = ker A and
    # (-W)^+ = Q (-C)^-1 Q^T, with no eigensolve.  Otherwise the kept
    # eigenpairs of -C give Q rge C and (-W)^+ = Q (-C)^+ Q^T
    nonsingular = _nonsingular(neg, tol)
    if nonsingular:
        outside = _outside(Y, kernel)
    else:
        lam_k, v = _eig_kept(neg, tol)
        vk = kernel.basis @ v
        outside = Y - vk @ (vk.T @ Y)
    if not _small(outside, Y, tol):
        return GaugeResult.infinite()
    if _small(Y, 0.0, tol):
        return GaugeResult(finite=True, value=0.0)
    u, s, vt = np.linalg.svd(Y, full_matrices=False)
    rank = np.count_nonzero(_kept(s, tol))
    ur, sr, vr = u[:, :rank], s[:rank], vt[:rank].T
    # compressed form of Y^T (-W)^+ Y, PSD by construction; its top
    # eigenvalue decides the gauge
    if nonsingular:
        t = kernel.basis.T @ ur
        inner = t.T @ np.linalg.solve(neg, t)
    else:
        t = vk.T @ ur
        inner = (t.T / lam_k) @ t
    reduced = symmetrize(inner * np.outer(sr, sr))
    lam, q = _eig_kept(reduced, tol)
    if lam.size == 0:
        return GaugeResult(finite=True, value=0.0)
    top = float(lam[-1])
    # critical matrix = pinv(-Y^T W^+ Y); its smallest nonzero singular
    # value is 1 / lambda_max(reduced)
    vq = vr @ q
    critical = symmetrize((vq * (1.0 / lam)) @ vq.T)
    sigma_min = 1.0 / top
    return GaugeResult(
        finite=True, value=0.5 * top, critical_matrix=critical, sigma_min=sigma_min
    )


def eval_polar_gauge(dual, pair):
    """Gauge of the polar set, which equals the support value at ``(X, V)``.

    Returns ``math.inf`` outside the support-function domain.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    """
    _require_homogeneous(pair)
    res = eval_support(dual, pair)
    return res.value if res.finite else math.inf
