"""Tolerance-governed dense symmetric linear algebra kernel.

Every higher-level test in this package (cone membership, support-function
domains, hull geometry, gauges) reduces to a k-by-k compression of a
symmetric matrix onto a subspace (``_compress``), or the part of a matrix
outside it (``_outside``), and a few rules applied to them.  All rank and
membership decisions are governed by a single :class:`ToleranceConfig` and
applied only here, by three private rules that every other module calls:
``_kept`` (the rank cutoff, at ``rank_tol``), ``_small`` (the residual
test, at ``range_tol``) and ``_psd`` (the eigenvalue sign test, at
``psd_tol``).  No other module reads a tolerance field, so "zero",
"inside", and "equal" mean the same thing in every module.  ``_small``
reads each norm from one dot product (``_norm``), and only a sum that
under- or overflows is rescaled, so the rule sets no floating-point error
state on its common path and raises no warning under any.

A sign test compares the smallest eigenvalue of a k-by-k compression with a
threshold, and its answer is the one ``eigvalsh`` gives.  It is decided by
a Cholesky factorization of the shifted matrix wherever Cholesky's rounding
error provably cannot change that answer (``_above``), and by ``eigvalsh``
only inside that band, so no module calls ``eigvalsh`` or ``cholesky`` but
this one.  The reduced support solve reads its sign test and its rank
cutoff from one such certificate (``_psd_nonsingular``), and the gauge
reads the same rank certificate (``_nonsingular``) once its sign test has
passed; where it holds, a pseudoinverse is an inverse, one LU solve.  Once a
matrix has passed its sign test, ``_eig_kept`` gives the eigenpairs that
``_kept`` keeps, with the negative eigenvalues the sign test counted as
zero set to zero first; the support value on a singular Hessian, the
gauge's pseudoinverse of a singular ``-Q^T W Q`` and the hull witness read
that one spectrum, and it is the package's only ``eigh``.  ``ker A``
likewise has one body, ``_split``: one SVD of ``A`` and the rank cutoff,
for both :class:`gmfrac.support.ConstraintPair` and :func:`kernel_basis`.

Symmetry is established once and never re-checked on the hot path.  The
public cone tests symmetrize a raw matrix once, at entry; the points of
:mod:`gmfrac.support` and :mod:`gmfrac.hull` are frozen and symmetrized once
when built; and the private kernels (``_compress``, ``_psd``,
``_eig_kept``) take operands that are symmetric by construction.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SubspaceBasis",
    "symmetrize",
    "frobenius_inner",
    "kernel_basis",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by all operations.

    Attributes
    ----------
    rank_tol : float
        Cutoff, relative to the largest magnitude, below which a value
        counts as zero; applied by ``_kept``.  It reads the singular values
        of ``A`` and, through ``_eig_kept``, the eigenvalues of a k-by-k
        compression that has passed its sign test, with its negative
        eigenvalues counted as zero.
    psd_tol : float
        Absolute eigenvalue slack for semidefinite and strict-definite
        decisions; applied by ``_psd``.
    range_tol : float
        Relative bound for every residual test, applied by ``_small``:
        range inclusions, matrix equalities, the constraint residual
        ``A Y - B``, complementarity, and the scalar tests on a norm or a
        value.  One threshold, so that a condition stated twice, such as
        ``W = Q C Q^T`` and ``rge W subset S`` for a symmetric ``W``, is
        decided alike by every test that reads it.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    range_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 < v < 1.0:
                raise ValueError(
                    f"tolerance {f.name} must lie strictly in (0, 1), got {v!r}"
                )


DEFAULT_TOL = ToleranceConfig()


def _kept(w, tol):
    # the rank cutoff: which of the values w count as nonzero, those above
    # rank_tol times the largest magnitude (none of an all-zero or empty w)
    a = np.abs(w)
    return a > tol.rank_tol * a.max(initial=0.0)


def _norm(x):
    # the Frobenius norm at the cost of one dot product: |x| for a float;
    # else sqrt(vdot(x, x)), as vdot, unlike norm and dot, raises no overflow
    # or underflow warning.  Only a sum that came out 0 or inf is taken again,
    # on x / max|x| and under an errstate that ignores both, so a caller's
    # np.seterr(all="raise") never sees the rescaled pass
    if isinstance(x, float):
        return abs(x)
    r = math.sqrt(float(np.vdot(x, x)))
    if r == 0.0 or r == math.inf:
        with np.errstate(over="ignore", under="ignore"):
            s = float(np.max(np.abs(x), initial=0.0))
            if 0.0 < s < math.inf:
                y = x / s
                r = s * math.sqrt(float(np.vdot(y, y)))
    return r


def _small(resid, ref, tol):
    # the residual test ||resid|| <= range_tol * max(1, ||ref||), both norms
    # by _norm; resid and ref may be arrays or scalars, and a scalar ref of 0
    # makes the test absolute
    return _norm(resid) <= tol.range_tol * max(1.0, _norm(ref))


# c * eps in the half-width of _above's band, with c = 4
_BAND = 4.0 * np.finfo(float).eps
# the smallest normal number; eps times it is the spacing of subnormals
_TINY = np.finfo(float).tiny
# the range of ||h||_F^2 in which _above needs no rescaling
_SAFE = (2.0 ** -800, 2.0 ** 800)


def _factors(m):
    # whether numpy's Cholesky of the symmetric m runs to completion
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _above(h, t, reject, rel=0.0):
    # A three-way Cholesky certificate on lambda_min of a symmetric k-by-k h,
    # k >= 1, against the threshold T = t + rel * ||h||_F and the reject
    # threshold R = reject <= T: True when cholesky(h - (T + d) I) succeeds,
    # which proves eigvalsh(h)[0] > T; False when a diagonal entry of h is
    # below R - d or cholesky(h - (R - d) I) fails, either of which proves
    # eigvalsh(h)[0] < R; None otherwise, in the band where only eigvalsh
    # can decide.  An accept costs one factorization, a reject at most two.
    # The half-width is d = 4 k (k+1) eps (||h||_F + |T| + tiny), for the
    # larger of |T| and |R| and the smallest normal number tiny.
    # With u = eps/2 and M = fl(h - s I), whose diagonal is at most
    # ||h||_F + |s| and off by u of that:
    # - success: the computed factor has G^T G = M + E with
    #   |E| <= gamma_{k+1} |G^T| |G| (Higham, Accuracy and Stability of
    #   Numerical Algorithms, Thm 10.3), and ||G||_F^2 = tr(M + E), so
    #   lambda_min(M) >= -k (k+1) u (||h||_F + |s|) (1 + O(k u));
    # - failure: by Demmel's condition (Higham Thm 10.7) the factorization
    #   runs to completion once lambda_min(M) exceeds k gamma_{k+1} /
    #   (1 - k gamma_{k+1}) times M's largest diagonal entry, so a failure
    #   means lambda_min(M) <= k (k+1) u (||h||_F + |s|) (1 + O(k u));
    # - eigvalsh is backward stable: each computed eigenvalue lies within
    #   O(k) u ||h||_2 of the exact one (Weyl), and within the spacing
    #   eps * tiny of subnormals, to which it rounds.
    # d is eight times either of the first two bounds, which leaves about
    # 7 k (k+1) u (||h||_F + tiny) for the third; a larger c costs only more
    # eigvalsh calls.  An h whose ||h||_F^2 would overflow or underflow is
    # scaled by an exact power of two, with thresholds beyond every
    # eigenvalue clamped first; the zero matrix has the exact spectrum 0.
    k = h.shape[0]
    tiny = _TINY
    # vdot, unlike norm and dot, raises no overflow warning
    sq = float(np.vdot(h, h))
    if not _SAFE[0] < sq < _SAFE[1]:
        s = float(np.abs(h).max())
        if s == 0.0:
            return True if t < 0.0 else False if reject > 0.0 else None
        e = -math.frexp(s)[1]
        lim = 4.0 * k * s
        t = math.ldexp(min(max(t, -lim), lim), e)
        reject = math.ldexp(min(max(reject, -lim), lim), e)
        tiny = math.ldexp(tiny, e)
        h = np.ldexp(h, e)
        sq = float(np.vdot(h, h))
    nrm = math.sqrt(sq)
    t += rel * nrm
    d = _BAND * k * (k + 1) * (nrm + max(abs(t), abs(reject)) + tiny)
    m = h.copy()
    diag = m.reshape(-1)[:: k + 1]
    np.subtract(h.diagonal(), t + d, out=diag)
    if _factors(m):
        return True
    # lambda_min(h) <= min h_ii, so a diagonal entry below R - d proves the
    # reject with no second factorization: it makes a pivot of the shifted
    # matrix negative, and that Cholesky would fail
    r = reject - d
    if h.diagonal().min() < r:
        return False
    np.subtract(h.diagonal(), r, out=diag)
    return None if _factors(m) else False


def _psd(h, tol, strict=False):
    # the sign test on a symmetric k-by-k h: lambda_min(h) >= -psd_tol, or
    # > psd_tol when strict, as read from eigvalsh(h); vacuously true when
    # k = 0.  _above decides it by Cholesky outside its rounding band, and
    # eigvalsh decides inside it
    if h.shape[0] == 0:
        return True
    t = tol.psd_tol if strict else -tol.psd_tol
    ok = _above(h, t, t)
    if ok is None:
        w = np.linalg.eigvalsh(h)[0]
        ok = bool(w > t if strict else w >= t)
    return ok


def _psd_nonsingular(h, tol):
    # (psd, nonsingular) for a symmetric k-by-k h, k >= 1: the sign test
    # lambda_min(h) >= -psd_tol and "_kept keeps every eigenvalue", both as
    # read from eigvalsh(h); nonsingular matters only when psd.  A Cholesky
    # at rank_tol * ||h||_F, which is at least rank_tol * lambda_max,
    # certifies both, and one at -psd_tol rejects; eigvalsh decides the rest
    ok = _above(h, 0.0, -tol.psd_tol, rel=tol.rank_tol)
    if ok is not None:
        return ok, ok
    w = np.linalg.eigvalsh(h)
    return bool(w[0] >= -tol.psd_tol), bool(_kept(w, tol).all())


def _nonsingular(h, tol):
    # whether _psd_nonsingular's one Cholesky, at rank_tol * ||h||_F, proves
    # that _kept keeps every eigenvalue of a symmetric k-by-k h (and so that
    # h passes its sign test); vacuously true when k = 0.  False in the
    # rounding band too, with no eigvalsh: there the caller takes _eig_kept
    return h.shape[0] == 0 or _above(h, 0.0, -tol.psd_tol, rel=tol.rank_tol) is True


def _eig_kept(h, tol):
    # the eigenpairs (w, u) of a symmetric k-by-k h that has passed its sign
    # test, ascending, that _kept keeps once the negative eigenvalues, which
    # that test counted as zero, are set to zero; so each kept w > 0.  The
    # package's only eigh
    w, u = np.linalg.eigh(h)
    keep = _kept(np.maximum(w, 0.0), tol)
    return w[keep], u[:, keep]


def symmetrize(S):
    """Return ``(S + S^T) / 2`` as a float array.

    Formed as ``S/2 + S^T/2``, which cannot overflow for finite ``S``.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    h = 0.5 * S
    return h + h.T


def frobenius_inner(A, B):
    """Frobenius inner product ``tr(A^T B)`` of two matrices of one shape."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shapes {A.shape} and {B.shape} differ")
    return float(np.vdot(A, B))


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal basis of a subspace of R^n.

    ``basis`` is n-by-k with orthonormal columns ``Q`` spanning the
    subspace; ``k = 0`` encodes the zero subspace.  It is the only stored
    representation: every subspace test in this package reads ``Q``, either
    through the k-by-k compression ``Q^T V Q`` of a matrix or through its
    part ``C - Q (Q^T C)`` outside the subspace, and none forms the n-by-n
    projector ``Q Q^T``.
    """

    basis: np.ndarray

    @property
    def dim_ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]


def kernel_basis(A, tol=DEFAULT_TOL):
    """Orthonormal basis of ``ker A = {u : A u = 0}``.

    ``A`` may have zero rows (no constraints), in which case the kernel is
    all of R^n and the basis is the identity.  The rank of ``A`` is decided
    by the relative singular-value cutoff ``rank_tol``.  This is the basis
    :class:`gmfrac.support.ConstraintPair` stores.  Raises ``ValueError`` on
    a non-finite ``A``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D constraint matrix, got shape {A.shape}")
    return _split(A, tol)[0]


def _split(A, tol):
    # ker A and the range factors of a p-by-n float A, from its one SVD
    # A = U S V^T: the kernel basis (the rows of V^T past the rank r that
    # _kept decides), U_r, the r kept singular values and the rows V_r^T.
    # p = 0 takes no SVD and has r = 0; a non-finite A raises ValueError
    if not np.isfinite(A).all():
        raise ValueError("A must have finite entries")
    p, n = A.shape
    if p == 0:
        return SubspaceBasis(np.eye(n)), np.zeros((0, 0)), np.zeros(0), np.zeros((0, n))
    u, s, vh = np.linalg.svd(A)
    r = np.count_nonzero(_kept(s, tol))
    # copies of what is kept, so that the full p-by-p and n-by-n factors are
    # freed once the caller has used V_r^T
    return SubspaceBasis(vh[r:].T.copy()), u[:, :r].copy(), s[:r].copy(), vh[:r]


def _compress(V, subspace):
    # the k-by-k form sym(Q^T V Q) of a symmetric V on the subspace, whose
    # spectrum every cone and domain test reads.  V is not symmetrized again;
    # the k-by-k product is, because gemm rounding leaves it asymmetric
    q = subspace.basis
    return symmetrize(q.T @ V @ q)


def _outside(C, subspace):
    # the part C - Q (Q^T C) of C's columns outside the subspace, whose norm
    # every range test against the subspace reads
    q = subspace.basis
    return C - q @ (q.T @ C)
