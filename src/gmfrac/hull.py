"""The closed convex hull of the constrained quadratic graph set.

The graph set ``{(Y, -1/2 Y Y^T) : A Y = B}`` is nonconvex, but its closed
convex hull has the simple description

    { (Y, W) : A Y = B  and  1/2 Y Y^T + W in (polar cone of K) },

where K is the cone of matrices PSD on ``ker A``.  This module implements
membership for the hull, its relative interior and affine hull, the
``(A, B) = (0, 0)`` special case, the polar set, both horizon cones, and an
explicit Caratheodory-style convex-combination witness that approximates any
hull point by graph points to accuracy ``O(sqrt(eps))``.

Every primal test reads the gap matrix ``1/2 Y Y^T + W``, built in one
n-by-n buffer.  It is symmetric by construction, bit for bit (numpy forms
``Y Y^T`` by a symmetric rank-k update and mirrors it, and the point's
``W`` is symmetric since the point was built), so it is never symmetrized.
For the same reason a graph point's ``W = -1/2 Y Y^T`` and the witness's
induced ``W`` are not symmetrized when their points are built.

The witness keeps ``N + 1 = n(n+1)/2 + 2`` components, all but at most
``rank + 1`` of them copies of the minimum-norm solution ``Z0``; that count
stays until perfbench's witness oracle, which pins it, is relaxed.  Its
induced point sums each run of bitwise-equal consecutive components once,
so evaluating it costs ``O(runs n^2 m)``, not ``O(N n^2 m)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _eig_kept, _norm, _small, frobenius_inner
from .cones import _in_aff_polar, _in_polar, _polar_form
from .support import ConstraintPair, PreconditionError, eval_support
from .support import _check_point, _freeze_point, _symmetric_point

__all__ = [
    "PrimalPoint",
    "ConvexWitness",
    "graph_point",
    "pairing",
    "distance",
    "in_hull",
    "in_hull_rint",
    "in_hull_aff",
    "in_free_hull",
    "in_hull_polar",
    "in_hull_horizon",
    "in_hull_polar_horizon",
    "caratheodory_witness",
]


@dataclass(frozen=True, eq=False)
class PrimalPoint:
    """A point ``(Y, W)`` tested against the hull, normal cones, and gauges.

    The point is frozen: ``W`` is symmetrized once, on entry, and ``Y`` and
    ``W`` are stored as read-only copies that cannot be rebound, so a later
    change to the caller's arrays cannot change the point and every test may
    read ``W`` as symmetric without symmetrizing it again.  The points of
    :func:`graph_point` and :meth:`ConvexWitness.induced_point` are built
    with a ``W`` that is symmetric bit for bit, which is not symmetrized
    again but otherwise checked and frozen alike.  Every operation that
    takes the point with a :class:`gmfrac.support.ConstraintPair` first
    checks that ``Y`` is n-by-m for it, and raises ``ValueError`` if not.
    """

    Y: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        _freeze_point(self)


def graph_point(Y):
    """The graph set point ``(Y, -1/2 Y Y^T)``.

    ``Y`` may be 1-D, as one column.  ``W = -1/2 Y Y^T`` is formed from an
    aligned C-order copy of ``Y``, for which numpy's symmetric rank-k update
    makes it symmetric bit for bit, so it is kept as formed, not symmetrized
    again; the point equals ``PrimalPoint(Y, -1/2 Y Y^T)`` built from that
    copy bit for bit, except where an entry of ``W`` lies below
    ``2^-1021``, whose last bit the public constructor's symmetrize drops.
    A ``Y`` whose ``Y Y^T`` is not finite raises ``ValueError``, as the
    public constructor does.
    """
    Y = np.array(Y, dtype=float, order="C")
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    return _symmetric_point(PrimalPoint, Y, -0.5 * (Y @ Y.T))


def pairing(dual, primal):
    """Duality pairing ``<(X, V), (Y, W)> = tr(X^T Y) + tr(V W)``."""
    return frobenius_inner(dual.X, primal.Y) + frobenius_inner(dual.V, primal.W)


def distance(a, b):
    """Distance ``sqrt(||Ya - Yb||_F^2 + ||Wa - Wb||_F^2)`` between points.

    Raises ``ValueError`` unless the two ``Y`` have one shape, and so the two
    ``W``, whose rows each point matched to its ``Y``'s.
    """
    if a.Y.shape != b.Y.shape:
        raise ValueError(f"points of shapes {a.Y.shape} and {b.Y.shape} differ")
    return math.hypot(_norm(a.Y - b.Y), _norm(a.W - b.W))


def _gap(point, t=1.0):
    # the matrix 1/2 Y Y^T + t W whose polar-cone membership characterizes
    # the hull (t = 1) and its multiple t (the gauge), built in one n-by-n
    # buffer and symmetric by construction (see the module docstring)
    g = point.Y @ point.Y.T
    g *= 0.5
    g += point.W if t == 1.0 else t * point.W
    return g


def _feasible(point, pair):
    # A Y = B, for a point checked against the pair first; the feasibility
    # test is where the hull, witness, normal-cone and subdifferential tests
    # check their primal point
    _check_point(point, pair)
    return _small(pair.A @ point.Y - pair.B, pair.b_norm)


def _in_hull(point, gap, pair):
    # the test of in_hull, given the point's gap matrix
    return _feasible(point, pair) and _in_polar(gap, pair.kernel)


def in_hull(point, pair):
    """Hull membership: ``A Y = B`` and ``1/2 Y Y^T + W`` in the polar cone."""
    return _in_hull(point, _gap(point), pair)


def in_hull_rint(point, pair):
    """Relative-interior membership: the gap matrix lies in rint of the polar."""
    return _feasible(point, pair) and _in_polar(_gap(point), pair.kernel, strict=True)


def in_hull_aff(point, pair):
    """Affine-hull membership: ``A Y = B`` and ``rge(1/2 Y Y^T + W) subset ker A``."""
    return _feasible(point, pair) and _in_aff_polar(_gap(point), pair.kernel)


def in_free_hull(point, strict=False):
    """Membership for the unconstrained special case ``A = B = 0``.

    The hull of ``{(Y, -1/2 Y Y^T) : Y arbitrary}`` is
    ``{(Y, W) : W + 1/2 Y Y^T <= 0}`` and its interior replaces ``<=`` by
    strict definiteness.  Decided by :func:`in_hull` (:func:`in_hull_rint`
    when ``strict``) on the pair with no constraints: its kernel basis is
    the identity, so the compression of the gap matrix is the gap itself.
    """
    n, m = point.Y.shape
    pair = ConstraintPair(np.zeros((0, n)), np.zeros((0, m)))
    return (in_hull_rint if strict else in_hull)(point, pair)


def in_hull_polar(dual, pair):
    """Polar-set membership: support value at ``(X, V)`` finite and ``<= 1``."""
    res = eval_support(dual, pair)
    return res.finite and _small(max(res.value - 1.0, 0.0), 0.0)


def in_hull_horizon(point, pair):
    """Horizon (recession) cone membership: ``Y = 0`` and ``W`` in the polar cone.

    ``Y = 0`` is exact, every entry zero, with no threshold: the horizon
    cone holds no point with ``Y != 0`` at any scale.
    """
    _check_point(point, pair)
    return not point.Y.any() and _in_polar(point.W, pair.kernel)


def in_hull_polar_horizon(dual, pair):
    """Horizon cone of the polar set: support value finite and ``<= 0``."""
    res = eval_support(dual, pair)
    return res.finite and _small(max(res.value, 0.0), 0.0)


def _runs(components):
    """Start index of each run of bitwise-equal consecutive components.

    Equality is of the float64 words, so ``-0.0`` and ``0.0`` differ.
    """
    count = len(components)
    words = np.ascontiguousarray(components, dtype=np.float64).reshape(count, -1).view(np.uint64)
    changed = (words[1:] != words[:-1]).any(axis=1)
    return np.concatenate(([0], np.flatnonzero(changed) + 1))


@dataclass(eq=False)
class ConvexWitness:
    """An explicit convex combination of graph points near a hull point.

    ``weights`` are nonnegative and sum to one; each component matrix ``Y_i``
    satisfies ``A Y_i = B``, so the induced point

        ( sum_i w_i Y_i,  -1/2 sum_i w_i Y_i Y_i^T )

    lies in the convex hull of the graph set by construction.  Its distance
    to the witnessed point shrinks like ``sqrt(epsilon)``.

    :meth:`induced_point` treats each run of bitwise-equal consecutive
    components as one component carrying the run's total weight, so its
    cost is ``O(runs n^2 m)``.  A witness from :func:`caratheodory_witness`
    has at most ``rank + 2`` runs among its ``N + 1`` components; the count
    stays ``N + 1`` until perfbench's witness oracle, which pins it, is
    relaxed.
    """

    weights: np.ndarray
    components: np.ndarray
    epsilon: float

    def induced_point(self):
        starts = _runs(self.components)
        w = np.add.reduceat(self.weights, starts)
        ys = self.components[starts]
        runs, n, m = ys.shape
        # every run's column scaled by sqrt(w_r), written into one new
        # n-by-(runs m) array (never into ``components``), so that
        # sum_r w_r Y_r Y_r^T is the single BLAS product cols cols^T
        cols = np.empty((n, runs, m))
        np.multiply(ys.transpose(1, 0, 2), np.sqrt(w)[:, None], out=cols)
        cols = cols.reshape(n, runs * m)
        return _symmetric_point(PrimalPoint, np.tensordot(w, ys, axes=1), -0.5 * (cols @ cols.T))

    def distance_to(self, point):
        return distance(self.induced_point(), point)


def caratheodory_witness(point, pair, epsilon):
    """Build the convex-combination witness for a hull point.

    The construction decomposes ``-(1/2 Y Y^T + W)`` into at most
    ``N = n(n+1)/2 + 1`` rank-one terms ``mu_i v_i v_i^T`` with ``v_i = Q u_i``
    in ``ker A``, from the eigendecomposition of the k-by-k matrix
    ``Q^T (-(1/2 Y Y^T + W)) Q``, taken once the sign test of that matrix,
    which decides hull membership, has passed (negative eigenvalues and
    those at most ``1e-10`` times the largest count as zero, and zero
    terms pad the list up to N), then forms components

        Y_1     = Z0 + (Y - Z0) / sqrt(1 - eps),
        Y_{i+1} = Z0 + [ sqrt(2 mu_i / lam) v_i, 0, ..., 0 ],

    with weights ``1 - eps`` and ``lam = eps / N``, where ``Z0`` is the
    minimum-norm solution of ``A Z = B``, so the witness is deterministic.
    The correction of ``Y_1`` by ``Z0`` keeps every component exactly
    feasible while preserving ``(1 - eps) Y_1 Y_1^T = Y Y^T + O(eps)``.

    Parameters
    ----------
    point : PrimalPoint
        Must pass :func:`in_hull`.
    pair : ConstraintPair
    epsilon : float
        Approximation parameter in ``(0, 1)``; the induced point approaches
        the input at rate ``O(sqrt(epsilon))``.

    Raises
    ------
    PreconditionError
        If the point is not in the hull.
    ValueError
        If ``epsilon`` is out of range, the pair has no columns (m = 0), or
        ``Y`` is not n-by-m for the pair.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if pair.m == 0:
        raise ValueError("witness construction needs at least one column (m >= 1)")
    # the test of in_hull, then the kept eigenpairs of the matrix it passed
    neg = _polar_form(_gap(point), pair.kernel) if _feasible(point, pair) else None
    if neg is None:
        raise PreconditionError("point is not in the hull; no witness exists")

    n, m = pair.n, pair.m
    count = n * (n + 1) // 2 + 1
    w, u = _eig_kept(neg)
    # the terms in descending order of mu
    mu = w[::-1]
    rank = mu.size
    vecs = pair.kernel.basis @ u[:, ::-1]

    lam = epsilon / count
    weights = np.full(count + 1, lam)
    weights[0] = 1.0 - epsilon

    z0 = pair.min_norm_solution
    components = np.empty((count + 1, n, m))
    components[:] = z0
    components[0] = z0 + (point.Y - z0) / np.sqrt(1.0 - epsilon)
    components[1 : rank + 1, :, 0] += (np.sqrt(2.0 * mu[:rank] / lam) * vecs).T
    return ConvexWitness(weights=weights, components=components, epsilon=float(epsilon))
