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
The reduced SVD of ``Y`` and its rank cut are ``linalg._svd_kept``'s, and
the gauge has one zero path, its formula's: a reduced matrix with no kept
eigenvalue.  An exact ``Y = 0`` with ``W`` in the polar cone reaches it,
as ``Y`` has no nonzero singular value and the reduced matrix is empty;
no threshold on ``||Y||`` decides it, so no rescaling ``(t Y, t^2 W)``,
under which the hull is unchanged, turns a nonzero ``Y`` into gauge 0.

The domain test is the polar-cone test on ``W``, the sign test of ``-C =
-Q^T W Q`` that :func:`gmfrac.cones.in_polar_cone` takes.  On the polar
cone ``W = Q C Q^T``, so ``(-W)^+ = Q (-C)^+ Q^T``, and ``rge Y`` inside
``Q rge C`` is ``rge Y subset ker A intersect rge W``.  It is tested in two
steps: the residual of ``Y`` outside ``ker A`` (``linalg._outside``)
against ``||Y||_F``, and then ``rge Q^T Y`` inside ``rge C``.  The second
step and ``(-C)^+`` are the package's one pseudo-inverse rule,
``linalg._pinv_solve``, the one that gives the reduced support solve's
``H^+ R``, applied to ``t = Q^T U_r S_r = Q^T Y V_r``, whose norm is that
of ``Q^T Y``.  It reads what ``linalg._psd_kept`` returned when it took
the polar test's sign test, so that test hands its answer back: where one
Cholesky factorization certifies that the rank cutoff keeps every
eigenvalue of ``-C``, ``Q rge C`` is ``ker A`` and ``(-C)^+ t = (-C)^-1 t``
is one LU solve, with no eigensolve.  Inside that certificate's rounding
band the one ``eigh`` that took the sign test gives the kept eigenpairs
of ``-C``, the residual of ``t`` outside their span and the minimum-norm
``(-C)^+ t``; an eigenvalue that is negative, which the sign test counted
as zero, is never kept, so the gauge is finite only where
:func:`gmfrac.hull.in_hull` can accept the point.  ``W`` is never
factorized as an n-by-n matrix, and this module applies no rank or sign
rule of its own.  :func:`in_scaled_hull` is the hull's own test,
``gmfrac.hull._in_hull``, on the scaled gap ``1/2 Y Y^T + t W``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _eig_kept, _outside, _pinv_solve, _small, _svd_kept, symmetrize
from .cones import _polar_form
from .support import PreconditionError, _check_point, eval_support
from .hull import _gap, _in_hull

__all__ = [
    "GaugeResult",
    "in_scaled_hull",
    "eval_gauge",
    "eval_polar_gauge",
]


@dataclass(eq=False)
class GaugeResult:
    """Gauge value with the spectral data that produced it.

    ``finite`` is the explicit +inf flag.  ``critical_matrix`` is the m-by-m
    matrix ``pinv(Y^T (-W)^+ Y)`` when it was formed, and ``sigma_min`` its
    smallest nonzero singular value, ``1 / lambda_max(Y^T (-W)^+ Y)``, so
    that ``value = 1/2 / sigma_min`` (``None`` encodes "no nonzero singular
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
    origin.  It is the test of :func:`gmfrac.hull.in_hull` with the gap
    ``1/2 Y Y^T + t W`` in place of ``1/2 Y Y^T + W``, the constraint
    tested against the pair's ``B``, so at ``t = 1`` the two tests agree on
    every pair that passes the ``B = 0`` check.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    ValueError
        If ``t`` is negative or not finite, or ``Y`` is not n-by-m for the
        pair.
    """
    _require_homogeneous(pair)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"scale t must be finite and nonnegative, got {t!r}")
    return _in_hull(point, _gap(point, t), pair)


def eval_gauge(point, pair):
    """Closed-form gauge of the hull of the ``B = 0`` graph set.

    Returns an infinite result unless ``W`` lies in the polar cone and
    ``rge Y subset ker A intersect rge W``, tested as ``rge Y`` inside
    ``Q rge C`` for ``C = Q^T W Q``: ``Y`` outside ``ker A`` against
    ``||Y||_F``, then ``Q^T Y`` outside ``rge C`` against ``||Q^T Y||_F``.
    On that domain the value is ``1/2 / sigma_min`` of the critical matrix
    (see module docstring), and the one zero path is its formula's: an
    exact ``Y = 0`` keeps no singular value and gives gauge 0.  The
    range test on ``rge C`` and ``(-C)^+`` come from one rule, the one the
    support solve applies to ``H``: a ``-C`` certified nonsingular by the
    one Cholesky factorization that passes its sign test takes one LU solve
    and no eigensolve of ``-C``, since then ``Q rge C = ker A`` and
    ``(-W)^+ = Q (-C)^-1 Q^T``; any other ``-C`` takes its kept eigenpairs
    from the one ``eigh`` that decided its sign test.

    Raises
    ------
    PreconditionError
        If the pair has ``B != 0``.
    """
    _require_homogeneous(pair)
    _check_point(point, pair)
    Y = point.Y
    kernel = pair.kernel
    polar = _polar_form(point.W, kernel, rank=True)
    if polar is None or not _small(_outside(Y, kernel), Y):
        return GaugeResult.infinite()
    # (-W)^+ = Q (-C)^+ Q^T on the polar cone, so Y^T (-W)^+ Y = V_r t^T
    # (-C)^+ t V_r^T for t = Q^T U_r S_r = Q^T Y V_r.  The package's one
    # pseudo-inverse rule applies (-C)^+ to t and tests rge t inside rge C,
    # against ||t|| = ||Q^T Y||; the compressed form is PSD by construction,
    # and its top eigenvalue decides the gauge
    ur, sr, vr = _svd_kept(Y)
    t = (kernel.basis.T @ ur) * sr
    g = _pinv_solve(*polar, t)
    if g is None:
        return GaugeResult.infinite()
    reduced = symmetrize(t.T @ g)
    lam, q = _eig_kept(reduced)
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
