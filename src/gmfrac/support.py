"""The matrix-fractional support function and its domain.

The central object is the support function of the graph set

    { (Y, -1/2 Y Y^T) : A Y = B },

evaluated at a dual point ``(X, V)``: the supremum of the concave quadratic
``<X, Y> - 1/2 <V, Y Y^T>`` over the affine manifold ``{A Y = B}``.  On its
domain the value has the closed form ``1/2 tr( (X; B)^T M(V)^+ (X; B) )``
where ``M(V)`` is the saddle (KKT) matrix ``[[V, A^T], [A, 0]]`` of that
equality-constrained quadratic program.

The value is computed by the null-space method for equality-constrained
QPs (Nocedal & Wright, *Numerical Optimization*, 16.2) rather than by a
pseudoinverse of ``M(V)``.  Write ``Y = Y0 + Q G`` with ``Y0`` the
minimum-norm solution of ``A Y = B`` and ``Q`` an orthonormal basis of
``ker A``; the problem becomes the unconstrained maximization of
``<R, G> - 1/2 <H, G G^T>`` with the k-by-k reduced Hessian ``H = Q^T V Q``
and ``R = Q^T (X - V Y0)``.  The domain is ``H >= 0`` and ``rge R`` inside
``rge H``; the maximizer is ``Y* = Y0 + Q H^+ R``.  The sign test and the
rank cutoff on ``H`` are those of :func:`gmfrac.cones.in_cone`: one Cholesky
factorization of ``H`` shifted by the rank threshold certifies both away
from their thresholds, and ``eigvalsh`` decides only inside Cholesky's
rounding band.  The pseudoinverse matters only where ``H`` is singular: when
the rank cutoff keeps every eigenvalue, ``R`` is in range and
``H^+ R = H^-1 R`` is one LU solve.  Only a singular ``H`` is
eigendecomposed, for the range test and the minimum-norm ``H^+ R``, and
then its kept spectrum is the one ``linalg._eig_kept`` gives every caller:
a negative eigenvalue that passed the sign test counts as zero.  The
multiplier ``Z*`` is the minimum-norm solution of ``A^T Z = X - V Y*``.
Both pieces of ``A`` this needs, ``Q`` and ``Y0``, come from the one
factorization of ``A`` taken when the :class:`ConstraintPair` is built: a QR
of ``A^T`` where ``A`` is certified to have full row rank, an SVD elsewhere;
``M(V)`` itself is never formed.
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _compress,
    _eig_kept,
    _norm,
    _psd_nonsingular,
    _small,
    _split,
    frobenius_inner,
    symmetrize,
)

__all__ = [
    "InfeasiblePairError",
    "PreconditionError",
    "ConstraintPair",
    "DualPoint",
    "SupportResult",
    "in_domain",
    "eval_support",
]


class InfeasiblePairError(ValueError):
    """Raised when ``rge B`` is not contained in ``rge A``."""


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition fails."""


class ConstraintPair:
    """The pair ``(A, B)`` defining the affine manifold ``{Y : A Y = B}``.

    Parameters
    ----------
    A : array_like, shape (p, n)
        Constraint matrix.  ``p = 0`` encodes the unconstrained case; a zero
        matrix with ``p >= 1`` is accepted and treated equivalently.
    B : array_like, shape (p, m)
        Right-hand side.  Must satisfy ``rge B subset rge A`` (checked at
        construction within ``range_tol``), which is exactly feasibility of
        the manifold.
    tol : ToleranceConfig

    Notes
    -----
    ``A`` and ``B`` are stored as read-only copies, so a later change to the
    caller's arrays cannot leave the cached factorization stale.  One
    factorization of ``A`` (none when ``p = 0``), taken by the same body as
    :func:`gmfrac.linalg.kernel_basis`, gives its rank, the orthonormal
    kernel basis and the minimum-norm solution of ``A Y = B``: where one
    Cholesky factorization of ``A A^T`` certifies full row rank, a QR of
    ``A^T``, and every ``B`` is feasible; elsewhere an SVD of ``A``, whose
    ``U_r`` decides the feasibility test.  These are computed once and
    cached, and all downstream operations read them from here.  A
    non-finite ``A`` or ``B`` raises ``ValueError``.  Of the range side only
    the p-by-r range factor ``G`` is kept (``R^-1`` of the QR, ``U_r S_r^-1``
    of the SVD), enough for the minimum-norm solution ``G G^T A C`` of
    ``A^T Z = C``, and ``V_r``, the basis of ``rge A^T``, is kept as the
    kernel basis's complement when ``r < k``.  ``b_norm`` is ``||B||_F``,
    taken once here for every feasibility test that reads it.
    """

    def __init__(self, A, B, tol=DEFAULT_TOL):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        if A.ndim != 2 or B.ndim != 2:
            raise ValueError("A and B must be 2-D arrays")
        if A.shape[0] != B.shape[0]:
            raise ValueError(
                f"A and B must have the same number of rows, got {A.shape} and {B.shape}"
            )
        if not np.isfinite(B).all():
            raise ValueError("B must have finite entries")
        A.setflags(write=False)
        B.setflags(write=False)
        self.A = A
        self.B = B
        self.tol = tol
        self.kernel, vr, g, ur = _split(A, tol)
        self.b_norm = _norm(B)
        if ur is not None and np.any(B):
            if not _small(B - ur @ (ur.T @ B), self.b_norm, tol):
                raise InfeasiblePairError(
                    "rge B is not contained in rge A: the manifold {A Y = B} is empty"
                )
        self._min_norm = vr @ (g.T @ B)
        self._range_factor = g

    @property
    def p(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def min_norm_solution(self):
        """Minimum-norm ``Y0`` with ``A Y0 = B`` (zero when p = 0)."""
        return self._min_norm

    def _transpose_solve(self, C):
        # minimum-norm Z with A^T Z = C (least squares for C outside rge A^T):
        # (A^T)^+ C = G G^T A C for the range factor G of linalg._split
        g = self._range_factor
        return g @ (g.T @ (self.A @ C))

    @property
    def homogeneous(self):
        """True iff ``||B||_F <= range_tol`` (gauge calculus applies)."""
        return _small(self.b_norm, 0.0, self.tol)

    def __repr__(self):
        return f"ConstraintPair(p={self.p}, n={self.n}, m={self.m})"


def _freeze_point(point):
    # the body shared by DualPoint and PrimalPoint, whose fields are a matrix
    # and a square matrix: read-only copies, a 1-D first field as one column,
    # the square one symmetrized once, finite entries and matching row counts
    a_name, s_name = (f.name for f in fields(point))
    a = np.array(getattr(point, a_name), dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    s = symmetrize(getattr(point, s_name))
    a.setflags(write=False)
    s.setflags(write=False)
    object.__setattr__(point, a_name, a)
    object.__setattr__(point, s_name, s)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s))):
        raise ValueError(f"{a_name} and {s_name} must have finite entries")
    if a.shape[0] != s.shape[0]:
        raise ValueError(
            f"{a_name} has {a.shape[0]} rows but {s_name} is {s.shape[0]}x{s.shape[1]}"
        )


@dataclass(frozen=True, eq=False)
class DualPoint:
    """A point ``(X, V)`` where the support function is evaluated.

    The point is frozen: ``V`` is symmetrized once, on entry, and ``X`` and
    ``V`` are stored as read-only copies that cannot be rebound, so a later
    change to the caller's arrays cannot change the point and every test may
    read ``V`` as symmetric without symmetrizing it again.  Every operation
    that takes the point with a :class:`ConstraintPair` first checks that
    ``X`` is n-by-m for it, and raises ``ValueError`` if not.
    """

    X: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        _freeze_point(self)


@dataclass(eq=False)
class SupportResult:
    """Value and certificates of one support-function evaluation.

    ``finite`` is an explicit flag; a ``+inf`` value is never carried as a
    float into arithmetic.  When finite, ``maximizer`` is the optimal ``Y*``
    and ``multiplier`` the constraint multiplier ``Z*``; together they solve
    the KKT system ``M(V) (Y; Z) = (X; B)``.
    """

    finite: bool
    value: Optional[float] = None
    maximizer: Optional[np.ndarray] = None
    multiplier: Optional[np.ndarray] = None

    @classmethod
    def infinite(cls):
        return cls(finite=False)


def _check_point(point, pair):
    # a dual or primal point against its pair: the first field, X or Y, must
    # be n-by-m, and the square one is then n-by-n, as _freeze_point matched
    # their rows.  The field is named from the class's field dict, which,
    # unlike dataclasses.fields, builds no tuple on this hot path
    name = next(iter(point.__dataclass_fields__))
    shape = getattr(point, name).shape
    if shape != (pair.n, pair.m):
        raise ValueError(f"{name} must be {pair.n}x{pair.m} for this pair, got {shape}")


def _reduced_solve(point, pair, solve=True):
    # G* = H^+ R for H = sym(Q^T V Q) and R = Q^T (X - V Y0), or None when
    # (X, V) is outside the domain.  The sign test and the rank cutoff are
    # in_cone's decisions on the same H, from one Cholesky outside the
    # rounding band and eigvalsh inside it.  When the rank cutoff keeps
    # every eigenvalue, H is nonsingular, R lies in its range and
    # G* = H^-1 R is one LU solve; with solve off that case returns True, as
    # the domain test needs no G.  Only a singular H takes _eig_kept, for
    # the range test and the minimum-norm H^+ R.
    _check_point(point, pair)
    tol = pair.tol
    kernel = pair.kernel
    h = _compress(point.V, kernel)
    psd, nonsingular = _psd_nonsingular(h, tol)
    if not psd:
        return None
    if nonsingular and not solve:
        return True
    r = kernel.basis.T @ (point.X - point.V @ pair.min_norm_solution)
    if nonsingular:
        return np.linalg.solve(h, r)
    w, u = _eig_kept(h, tol)
    coef = u.T @ r
    if not _small(r - u @ coef, r, tol):
        return None
    return u @ (coef / w[:, None])


def in_domain(point, pair):
    """Domain test for the support function at ``(X, V)``.

    True iff ``V`` lies in the cone of matrices PSD on ``ker A`` and
    ``rge (X; B) subset rge M(V)``.  With ``H = Q^T V Q`` and
    ``R = Q^T (X - V Y0)`` this is tested as ``lambda_min(H) >= -psd_tol``,
    by the same sign test as :func:`gmfrac.cones.in_cone` (a Cholesky
    factorization of ``H``, and ``eigvalsh`` within its rounding band), so
    that sign test and ``in_cone`` agree on every ``V``.  When the rank
    cutoff keeps every eigenvalue, which one Cholesky certifies for all but
    nearly singular ``H``, ``H`` is nonsingular and that test decides;
    otherwise one eigendecomposition of ``H`` tests that the residual of
    ``R`` outside the eigenspace of ``H``'s kept eigenvalues is at most
    ``range_tol * max(1, ||R||_F)``.  An eigenvalue is kept when it exceeds
    ``rank_tol`` times the largest; a negative one that passed the sign
    test is never kept.  This set is not closed: with
    ``A = B = 0`` and ``X != 0``, every ``V = eta I`` with ``eta > 0`` is in
    the domain but the limit ``V = 0`` is not.
    """
    return _reduced_solve(point, pair, solve=False) is not None


def eval_support(point, pair):
    """Evaluate the support function at ``(X, V)``.

    Out-of-domain points yield ``SupportResult.infinite()``; this is a
    regular result, not an error.  On the domain the value is the closed
    form

        value = 1/2 tr( (X; B)^T M(V)^+ (X; B) ),

    computed by the null-space method: the maximizer is
    ``Y* = Y0 + Q H^+ R``, the multiplier ``Z*`` is the minimum-norm solution
    of ``A^T Z = X - V Y*``, and ``value = 1/2 (<X, Y*> + <B, Z*>)``.  The
    domain is decided as in :func:`in_domain`.  When ``H`` is nonsingular,
    ``H^+ R = H^-1 R`` is one LU solve and ``(Y*, Z*)`` are the blocks of
    ``M(V)^+ (X; B)``.  A clearly nonsingular ``H`` costs one Cholesky
    factorization and that solve.  Only a singular ``H`` inside the domain
    takes the pseudoinverse, from its kept eigenpairs (see
    :func:`in_domain`); there the maximizers form the
    set ``Y* + Q ker H`` and ``Y*`` is the one of minimum norm.
    """
    g = _reduced_solve(point, pair)
    if g is None:
        return SupportResult.infinite()
    y_star = pair.min_norm_solution + pair.kernel.basis @ g
    z_star = pair._transpose_solve(point.X - point.V @ y_star)
    value = 0.5 * (frobenius_inner(point.X, y_star) + frobenius_inner(pair.B, z_star))
    return SupportResult(finite=True, value=value, maximizer=y_star, multiplier=z_star)
