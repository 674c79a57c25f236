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
rank cutoff on ``H`` come from one call, ``linalg._psd_kept``, whose sign
test is that of :func:`gmfrac.cones.in_cone`: one Cholesky factorization of
``H`` shifted by the rank threshold certifies both away from their
thresholds; inside Cholesky's rounding band one ``eigh`` of ``H`` decides
the sign and gives the kept eigenpairs.  The package's one pseudo-inverse
rule, ``linalg._pinv_solve``, which the gauge's ``(-C)^+`` also reads, then
gives the range test and ``H^+ R`` from that call's result: where the
Cholesky certified ``H``, ``R`` is in range and ``H^+ R = H^-1 R`` is one
LU solve; elsewhere the kept eigenpairs give the residual of ``R``
outside their span, tested against ``||R||_F``, and the minimum-norm
``H^+ R``.  A negative eigenvalue that passed the sign test counts as
zero, so a direction of ``H`` within ``1e-9`` below zero makes the value
``+inf`` unless ``R``'s part along it passes the residual test.  The
multiplier ``Z*`` is the minimum-norm solution of ``A^T Z = X - V Y*``.
Both pieces of ``A`` this needs, ``Q`` and ``Y0``, come from the one
factorization of ``A`` taken when the :class:`ConstraintPair` is built: a QR
of ``A^T`` where ``A`` is certified to have full row rank, an SVD elsewhere;
``M(V)`` itself is never formed.

Each dual point is solved to the end once, whichever of :func:`in_domain`
and :func:`eval_support` asks first.  The module keeps the outcome of the
two most recent solves, the finished solution ``(Y*, Z*, value)`` with
``Y*`` and ``Z*`` read-only, or "outside the domain", keyed by weak
references to the frozen :class:`DualPoint` and to the
:class:`ConstraintPair`.  A later call on the same two objects compresses,
factorizes and assembles nothing: a support value, subgradient or polar
test after it copies ``Y*`` and ``Z*`` at most.  So a first call of
:func:`in_domain` alone forms ``Y*`` and ``Z*`` too, which at
``(n, m, p) = (200, 10, 100)`` adds about a fifth to the solve; of the
package's callers, ``in_subdifferential`` pays it only at a dual point not
solved before, and the ``domain`` subcommand once per call.  The memo keeps
no point or pair alive, and a point equal to a solved one but not the same
object is solved again.
"""

from dataclasses import dataclass, fields
from typing import Optional
import weakref

import numpy as np

from .linalg import (
    _compress,
    _norm,
    _pinv_solve,
    _psd_kept,
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
        construction by the residual test, relative bound ``1e-9``), which is
        exactly feasibility of the manifold.

    Notes
    -----
    ``A`` and ``B`` are stored as read-only copies, so a later change to the
    caller's arrays cannot leave the cached factorization stale, and every
    cached array (the kernel basis and its complement, the minimum-norm
    solution and the range factor) is read-only, so an in-place write to
    one raises ``ValueError`` instead of rewriting the pair.  One
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

    def __init__(self, A, B):
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
        self.kernel, vr, g, ur = _split(A)
        self.b_norm = _norm(B)
        if ur is not None and np.any(B):
            if not _small(B - ur @ (ur.T @ B), self.b_norm):
                raise InfeasiblePairError(
                    "rge B is not contained in rge A: the manifold {A Y = B} is empty"
                )
        g.setflags(write=False)
        self._min_norm = vr @ (g.T @ B)
        self._min_norm.setflags(write=False)
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
        """True iff ``||B||_F <= 1e-9`` (gauge calculus applies)."""
        return _small(self.b_norm, 0.0)

    def __repr__(self):
        return f"ConstraintPair(p={self.p}, n={self.n}, m={self.m})"


def _freeze_point(point, symmetric=None):
    # the body shared by DualPoint and PrimalPoint, whose fields are a matrix
    # and a square matrix: read-only copies, a 1-D first field as one column,
    # the square one symmetrized once, unless _symmetric_point hands in both
    # as fresh float arrays, the square one symmetric, which are kept as they
    # are; finite entries and matching row counts
    a_name, s_name = (f.name for f in fields(point))
    a = getattr(point, a_name)
    if symmetric is None:
        a = np.array(a, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(f"{a_name} must be a 1-D or 2-D array, got shape {a.shape}")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    s = symmetrize(getattr(point, s_name)) if symmetric is None else symmetric
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


def _symmetric_point(cls, a, s):
    # a point of cls with the fresh float arrays a and s as its fields, s
    # symmetric bit for bit, such as -1/2 Y Y^T, which numpy forms by a
    # symmetric rank-k update and mirrors: the public constructor but its
    # copies and the symmetrize, which would return s unchanged but for
    # entries below 2^-1021, whose halving drops a bit.  a is kept, not
    # copied, so s = -1/2 a a^T is formed from the array the point stores
    point = object.__new__(cls)
    object.__setattr__(point, fields(cls)[0].name, a)
    _freeze_point(point, s)
    return point


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


# The outcomes of the two most recent solves, newest first: (weak reference
# to the point, weak reference to the pair, the read-only solution
# (Y*, Z*, value), or None outside the domain).  A lookup compares the
# referents by identity, so a dead point's entry can never match a new
# point, and the memo keeps neither alive.  The tuple is replaced whole and
# never edited, so threads racing on it can only drop an entry.  Two entries
# serve one caller's value, subgradient and subdifferential tests on one or
# two points, and nothing outlives the next two points solved.
_solved = ()


def _reduced_solve(point, pair):
    # the solution (Y*, Z*, value), or None when (X, V) is outside the
    # domain, read from the memo when it holds this point and pair; a
    # computed outcome becomes the newest entry
    global _solved
    _check_point(point, pair)
    for point_ref, pair_ref, sol in _solved:
        if point_ref() is point and pair_ref() is pair:
            return sol
    sol = _solve(point, pair)
    _solved = ((weakref.ref(point), weakref.ref(pair), sol),) + _solved[:1]
    return sol


def _solve(point, pair):
    # the read-only maximizer Y* = Y0 + Q H^+ R, the multiplier Z* and the
    # value for H = sym(Q^T V Q) and R = Q^T (X - V Y0), or None when (X, V)
    # is outside the domain.  The sign test and the rank cutoff are in_cone's
    # decisions on the same H, both from _psd_kept: one Cholesky outside the
    # rounding band, one eigh inside it.  The package's one pseudo-inverse
    # rule, linalg._pinv_solve, then takes the range test and H^+ R from what
    # _psd_kept returned: one LU solve where the Cholesky certified H
    # nonsingular, the kept eigenpairs otherwise.
    kernel = pair.kernel
    h = _compress(point.V, kernel)
    psd, kept = _psd_kept(h)
    if not psd:
        return None
    r = kernel.basis.T @ (point.X - point.V @ pair.min_norm_solution)
    g = _pinv_solve(h, kept, r)
    if g is None:
        return None
    y_star = pair.min_norm_solution + kernel.basis @ g
    z_star = pair._transpose_solve(point.X - point.V @ y_star)
    y_star.setflags(write=False)
    z_star.setflags(write=False)
    value = 0.5 * (frobenius_inner(point.X, y_star) + frobenius_inner(pair.B, z_star))
    return y_star, z_star, value


def in_domain(point, pair):
    """Domain test for the support function at ``(X, V)``.

    True iff ``V`` lies in the cone of matrices PSD on ``ker A`` and
    ``rge (X; B) subset rge M(V)``.  With ``H = Q^T V Q`` and
    ``R = Q^T (X - V Y0)`` this is tested as ``lambda_min(H) >= -1e-9``,
    by the same sign test as :func:`gmfrac.cones.in_cone` (a Cholesky
    factorization of ``H``, and ``eigh`` within its rounding band), so
    that sign test and ``in_cone`` agree on every ``V``.  Where one
    Cholesky certifies that the rank cutoff keeps every eigenvalue, as it
    does for all but nearly singular ``H``, ``H`` is nonsingular and that
    test decides; otherwise the same ``eigh`` of ``H`` that took the sign
    test tests that the residual of ``R`` outside the eigenspace of ``H``'s
    kept eigenvalues is at most ``1e-9 * max(1, ||R||_F)``.  An
    eigenvalue is kept when it exceeds ``1e-10`` times the largest; a
    negative one that passed the sign test is never kept.  This set is not
    closed: with ``A = B = 0`` and ``X != 0``, every ``V = eta I`` with
    ``eta > 0`` is in the domain but the limit ``V = 0`` is not.  The test
    is the solve of :func:`eval_support`, and shares its memo, which holds
    the finished solution: on a point not solved before, this call also
    forms ``Y*`` and ``Z*``, so that a later support value, subgradient or
    polar test at the point assembles nothing.
    """
    return _reduced_solve(point, pair) is not None


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
    factorization and that solve.  Any other ``H`` inside the domain takes
    the pseudoinverse from the kept eigenpairs of its one ``eigh`` (see
    :func:`in_domain`); where ``H`` is singular the maximizers form the set
    ``Y* + Q ker H`` and ``Y*`` is the one of minimum norm.  When this
    point and pair are among the two most recent solved, by this function
    or by :func:`in_domain`, the solution ``(Y*, Z*, value)`` is read from
    the memo and nothing is recomputed; the ``maximizer`` and
    ``multiplier`` are fresh copies on every call.
    """
    sol = _reduced_solve(point, pair)
    if sol is None:
        return SupportResult.infinite()
    y, z, value = sol
    return SupportResult(finite=True, value=value, maximizer=y.copy(), multiplier=z.copy())
