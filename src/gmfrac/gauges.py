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
``-C = -Q^T W Q`` that :func:`gmfrac.cones.in_polar_cone` takes, followed,
once it passes, by the kept eigenpairs of the k-by-k ``-C`` from
``linalg._eig_kept``: on the polar cone ``W = Q C Q^T``, so
``(-W)^+ = Q (-C)^+ Q^T``, and ``rge Y`` inside ``Q rge C`` is
``rge Y subset ker A intersect rge W``.  An eigenvalue of ``-C`` that is
negative, which the sign test counted as zero, is never kept, so the gauge
is finite only where :func:`gmfrac.hull.in_hull` can accept the point.
``W`` is never factorized as an n-by-n matrix.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _eig_kept, _kept, _norm, _small, symmetrize
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
    if not _small(pair.A @ point.Y, 0.0, pair.tol.feas_tol):
        return False
    gap = symmetrize(0.5 * (point.Y @ point.Y.T) + t * point.W)
    return _in_polar(gap, pair.kernel, pair.tol)


def eval_gauge(point, pair):
    """Closed-form gauge of the hull of the ``B = 0`` graph set.

    Returns an infinite result unless ``W`` lies in the polar cone and
    ``rge Y subset ker A intersect rge W``, tested as ``rge Y`` inside
    ``Q rge C`` for ``C = Q^T W Q``.  On that domain the value is
    ``1/2 / sigma_min`` of the critical matrix (see module docstring); a
    numerically zero ``Y`` gives gauge 0.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    """
    _require_homogeneous(pair)
    tol = pair.tol
    Y = point.Y
    neg = _polar_form(point.W, pair.kernel, tol)
    if neg is None:
        return GaugeResult.infinite()
    # the kept eigenpairs of -C give Q rge C and (-W)^+ = Q (-C)^+ Q^T
    lam_k, v = _eig_kept(neg, tol)
    vk = pair.kernel.basis @ v
    if not _small(Y - vk @ (vk.T @ Y), Y, tol.range_tol):
        return GaugeResult.infinite()
    if _norm(Y) <= tol.eq_tol:
        return GaugeResult(finite=True, value=0.0)
    u, s, vt = np.linalg.svd(Y, full_matrices=False)
    rank = np.count_nonzero(_kept(s, tol))
    ur, sr, vr = u[:, :rank], s[:rank], vt[:rank].T
    # compressed form of Y^T (-W)^+ Y, PSD by construction; its top
    # eigenvalue decides the gauge
    t = vk.T @ ur
    reduced = symmetrize(((t.T / lam_k) @ t) * np.outer(sr, sr))
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
