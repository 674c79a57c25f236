"""Threshold-governed dense symmetric linear algebra kernel.

Every higher-level test in this package (cone membership, support-function
domains, hull geometry, gauges) reduces to a k-by-k compression of a
symmetric matrix onto a subspace (``_compress``), or the part of a matrix
outside it (``_outside``, and ``_off_subspace`` for the polar test's
support residual ``W - Q C Q^T``), and a few rules applied to them.  A
:class:`SubspaceBasis` is checked once, when it is built: its basis must
be a finite 2-D array, and it is kept as a read-only copy.  Only the split
of ``ker A``, ``_split``, stores the basis of the orthogonal complement, and
only where it is the narrower basis; the part outside the subspace is read
from whichever basis has fewer columns, and only this module reads that
complement or chooses between the bases.  All rank and membership decisions
are governed by three fixed thresholds and applied only here, by three
private rules that every other module calls: ``_kept`` (the rank cutoff,
at ``_RANK_TOL = 1e-10`` relative to the largest magnitude), ``_small``
(the residual test, at ``_RANGE_TOL = 1e-9`` relative) and ``_psd`` (the
eigenvalue sign test, at ``_PSD_TOL = 1e-9`` absolute).  No other module
reads a threshold, so "zero", "inside", and "equal" mean the same thing in
every module.  ``_small`` reads each norm from one dot product
(``_norm``), and only a sum that under- or overflows is rescaled, so the
rule sets no floating-point error state on its common path and raises no
warning under any.

A sign test compares the smallest eigenvalue of a k-by-k compression with a
threshold, and its answer is the one ``eigh`` gives.  It is decided by a
Cholesky factorization of the shifted matrix wherever Cholesky's rounding
error provably cannot change that answer (``_above``), and by ``eigh`` only
inside that band, so no module calls ``eigh`` or ``cholesky`` but this one.
On the zero subspace (k = 0) the empty spectrum lies above every
threshold, so ``_above`` accepts with no factorization, and no sign test or
solve branches on k = 0.  The reduced Hessian of the support solve and the
gauge's ``-Q^T W Q`` take their sign test, their rank and their kept
eigenpairs from one call, ``_psd_kept``: outside its rounding band one
Cholesky certificate, shifted by the rank threshold, decides the sign and
proves that the rank cutoff keeps every eigenvalue, so a pseudoinverse is
an inverse; inside it one ``eigh`` decides all three.  One rule,
``_pinv_solve``, then applies the pseudoinverse for both, from what
``_psd_kept`` returned: one LU solve where the certificate holds, and
otherwise the residual of the right-hand side outside the kept
eigenvectors' span, tested by ``_small`` against the right-hand side, and
the minimum-norm solution; no other module reads the layout of that
result.  The kept eigenpairs are those that ``_kept`` keeps once the
negative eigenvalues, which the sign test counted as zero, are set to
zero, and the hull witness and the gauge's reduced matrix read them from
``_eig_kept`` by the same rule.  Every decision inside a band reads the
one routine, so a cone test and the domain or gauge test of the same
matrix never take a coin toss apart.
``ker A`` likewise has one body, ``_split``, for both
:class:`gmfrac.support.ConstraintPair` and :func:`kernel_basis`.  Where one
Cholesky factorization of ``A A^T`` certifies that the rank cutoff keeps
every singular value of ``A`` (``_full_row_rank``, an accept of ``_above``),
``ker A`` is the trailing block of one Householder QR of ``A^T``; everywhere
else one SVD of ``A`` and the rank cutoff decide it.  The gauge's rank of
``Y`` is ``_svd_kept``, a reduced SVD and the same cutoff.  No other module
calls ``svd``, ``qr``, ``inv``, ``solve`` or ``_kept``.

Symmetry is established once and never re-checked on the hot path.  The
public cone tests symmetrize a raw matrix once, at entry; the points of
:mod:`gmfrac.support` and :mod:`gmfrac.hull` are frozen and symmetrized once
when built, except a graph point and the witness's induced point, whose
``W`` is formed as ``-1/2 Y Y^T`` by numpy's symmetric rank-k update and is
symmetric bit for bit without it; the hull's gap matrix is symmetric by
construction and never symmetrized; and the private kernels
(``_compress``, ``_psd``, ``_psd_kept``, ``_eig_kept``) take operands that
are symmetric by construction.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SubspaceBasis",
    "symmetrize",
    "frobenius_inner",
    "kernel_basis",
]


# The thresholds of every decision in the package.  _RANK_TOL is _kept's
# rank cutoff, relative to the largest magnitude (the singular values of A
# and of Y, and the eigenvalues of a compression that has passed its sign
# test, its negative ones counted as zero); _psd_kept and _full_row_rank
# read it to certify that the cutoff keeps every value.  _PSD_TOL is the
# absolute eigenvalue slack of the sign tests, _psd and _psd_kept.
# _RANGE_TOL is _small's relative bound for every residual test, one
# threshold so that a condition stated twice, such as W = Q C Q^T and
# rge W subset S for a symmetric W, is decided alike by every test that
# reads it.
_RANK_TOL = 1e-10
_PSD_TOL = 1e-9
_RANGE_TOL = 1e-9


def _kept(w):
    # the rank cutoff: which of the values w count as nonzero, those above
    # _RANK_TOL times the largest magnitude (none of an all-zero or empty w)
    a = np.abs(w)
    return a > _RANK_TOL * a.max(initial=0.0)


def _norm(x):
    # the Frobenius norm at the cost of one dot product: |x| for a float;
    # else sqrt(vdot(x, x)), as vdot, unlike norm and dot, raises no overflow
    # or underflow warning.  Only a sum that came out 0 or inf is taken again:
    # s = max|x| first, which raises nothing, so an exactly zero x returns 0
    # there; only for 0 < s < inf is the sum taken on x / s, under an
    # errstate that ignores over- and underflow, so a caller's
    # np.seterr(all="raise") never sees the rescaled pass
    if isinstance(x, float):
        return abs(x)
    r = math.sqrt(float(np.vdot(x, x)))
    if r == 0.0 or r == math.inf:
        s = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < s < math.inf:
            with np.errstate(over="ignore", under="ignore"):
                y = x / s
                r = s * math.sqrt(float(np.vdot(y, y)))
    return r


def _small(resid, ref):
    # the residual test ||resid|| <= _RANGE_TOL * max(1, ||ref||), both norms
    # by _norm; resid and ref may be arrays or scalars, and a scalar ref of 0
    # makes the test absolute, as only the scalar tests on ||B|| and on a
    # support value take it
    return _norm(resid) <= _RANGE_TOL * max(1.0, _norm(ref))


_EPS = np.finfo(float).eps
# c * eps in the half-width of _above's band, with c = 4
_BAND = 4.0 * _EPS
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


def _above(h, t, reject=None, rel=0.0):
    # A three-way Cholesky certificate on lambda_min of a symmetric k-by-k h
    # against the threshold T = t + rel * ||h||_F and the reject threshold
    # R = reject <= T: True when cholesky(h - (T + d) I) succeeds, which
    # proves eigh(h)[0][0] > T; False when a diagonal entry of h is below
    # R - d or cholesky(h - (R - d) I) fails, either of which proves
    # eigh(h)[0][0] < R; None otherwise, in the band where only eigh can
    # decide.  An accept costs one factorization, a reject at most two.
    # With no reject threshold only the accept is tried: True, or a falsy
    # value after at most that one factorization.
    # k = 0 is True with none: an empty spectrum lies above every threshold.
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
    # - eigh is backward stable, with or without its eigenvectors: each
    #   computed eigenvalue lies within O(k) u ||h||_2 of the exact one
    #   (Weyl), and within the spacing eps * tiny of subnormals, to which
    #   it rounds.
    # d is eight times either of the first two bounds, which leaves about
    # 7 k (k+1) u (||h||_F + tiny) for the third; a larger c costs only more
    # eigh calls.  An h whose ||h||_F^2 would overflow or underflow is
    # scaled by an exact power of two, with thresholds beyond every
    # eigenvalue clamped first; the zero matrix has the exact spectrum 0.
    k = h.shape[0]
    if k == 0:
        return True
    accept_only = reject is None
    if accept_only:
        reject = t
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
    if accept_only:
        return None
    # lambda_min(h) <= min h_ii, so a diagonal entry below R - d proves the
    # reject with no second factorization: it makes a pivot of the shifted
    # matrix negative, and that Cholesky would fail
    r = reject - d
    if h.diagonal().min() < r:
        return False
    np.subtract(h.diagonal(), r, out=diag)
    return None if _factors(m) else False


def _psd(h, strict=False):
    # the sign test on a symmetric k-by-k h: lambda_min(h) >= -_PSD_TOL, or
    # > _PSD_TOL when strict, as read from eigh(h); vacuously true when
    # k = 0.  _above decides it by Cholesky outside its rounding band, and
    # eigh decides inside it, the routine every other in-band decision reads
    t = _PSD_TOL if strict else -_PSD_TOL
    ok = _above(h, t, t)
    if ok is None:
        w = np.linalg.eigh(h)[0][0]
        ok = bool(w > t if strict else w >= t)
    return ok


def _psd_kept(h):
    # (psd, kept) for a symmetric k-by-k h: the sign test of _psd and the
    # eigenpairs of h that _kept keeps, both vacuously decided when k = 0;
    # kept matters only when psd.  A Cholesky at _RANK_TOL * ||h||_F, which
    # is at least _RANK_TOL * lambda_max, certifies both psd and that _kept
    # keeps every eigenvalue, and then kept is None: h^+ = h^-1, one LU
    # solve.  One at -_PSD_TOL rejects.  Inside that certificate's rounding
    # band one eigh decides the sign and gives the kept eigenpairs, as
    # _eig_kept does, with the negative eigenvalues counted as zero
    ok = _above(h, 0.0, -_PSD_TOL, rel=_RANK_TOL)
    if ok is not None:
        return ok, None
    w, u = np.linalg.eigh(h)
    return bool(w[0] >= -_PSD_TOL), _pairs_kept(w, u)


def _pinv_solve(h, kept, r):
    # h^+ r for a symmetric k-by-k h that passed _psd_kept's sign test, read
    # through the kept it returned, or None when r fails the range test.
    # Where kept is None the Cholesky proved h nonsingular, so r lies in its
    # range and h^+ r = h^-1 r is one LU solve.  Otherwise the kept
    # eigenpairs (w, u) give the residual of r outside rge u, tested by
    # _small against r, and the minimum-norm h^+ r = u (u^T r / w)
    if kept is None:
        return np.linalg.solve(h, r)
    w, u = kept
    coef = u.T @ r
    if not _small(r - u @ coef, r):
        return None
    return u @ (coef / w[:, None])


def _pairs_kept(w, u):
    # the eigenpairs (w, u) of eigh, ascending, that _kept keeps once the
    # negative eigenvalues, which the sign test counted as zero, are set to
    # zero; so each kept w > 0
    keep = _kept(np.maximum(w, 0.0))
    return w[keep], u[:, keep]


def _eig_kept(h):
    # the kept eigenpairs of a symmetric k-by-k h that has passed its sign
    # test, for a caller that needs them whatever that test's certificate
    return _pairs_kept(*np.linalg.eigh(h))


def _svd_kept(a):
    # the factors (U_r, s_r, V_r) of the reduced SVD a = U S V^T that _kept
    # keeps, s_r descending: the rank of the gauge's Y.  With _split's SVD of
    # A, the package's only svd
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = np.count_nonzero(_kept(s))
    return u[:, :r], s[:r], vt[:r].T


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


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal basis of a subspace of R^n, and of its complement.

    ``basis`` is n-by-k with orthonormal columns ``Q`` spanning the
    subspace; ``k = 0`` encodes the zero subspace.  It is checked once,
    when the basis is built, and stored as a read-only C-order float copy,
    so a later change to the caller's array cannot change the subspace; a
    non-finite or non-2-D ``basis`` raises ``ValueError``.  ``complement``
    is not an argument: it is ``None``, or n-by-r with orthonormal columns
    ``U`` spanning the orthogonal complement, ``r = n - k``, which only the
    split of ``ker A`` behind :func:`kernel_basis` and
    :class:`gmfrac.support.ConstraintPair` stores, exactly when it is the
    narrower basis, ``r < k``.  Every subspace test in this package reads
    ``Q`` through the k-by-k compression ``Q^T V Q`` of a matrix, and the
    part of a matrix outside the subspace through ``U`` where it is stored
    (``U^T C``, of norm ``||C - Q Q^T C||_F`` since ``Q Q^T + U U^T = I``)
    and through ``C - Q (Q^T C)`` otherwise; none forms the n-by-n projector
    ``Q Q^T``.
    """

    basis: np.ndarray
    complement: Optional[np.ndarray] = field(default=None, init=False)

    def __post_init__(self):
        # a NaN in Q would pass a Cholesky certificate; subok keeps a
        # caller's ndarray subclass, such as one that records products
        q = np.array(self.basis, dtype=float, order="C", subok=True)
        if q.ndim != 2 or not np.isfinite(q).all():
            raise ValueError(f"subspace basis must be a finite 2-D array, got shape {q.shape}")
        q.setflags(write=False)
        object.__setattr__(self, "basis", q)

    @property
    def dim_ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]


def kernel_basis(A):
    """Orthonormal basis of ``ker A = {u : A u = 0}``.

    ``A`` may have zero rows (no constraints), in which case the kernel is
    all of R^n and the basis is the identity.  The rank of ``A`` counts the
    singular values above ``1e-10`` times the largest.  This is the basis
    :class:`gmfrac.support.ConstraintPair` stores.  Raises ``ValueError`` on
    a non-finite ``A``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D constraint matrix, got shape {A.shape}")
    return _split(A, range_factor=False)[0]


def _full_row_rank(A):
    # whether one Cholesky certifies that _kept keeps every singular value of
    # a p-by-n A with 1 <= p <= n.  A is first scaled by an exact power of two
    # to max |a_ij| in [1/2, 1), so that h = A A^T neither over- nor
    # underflows.  The computed h is off the exact one by at most
    # gamma_n ||A||_F^2, about (n eps / 2) tr(h), in norm (Higham, Accuracy
    # and Stability, 3.5), half the absolute term t = n eps tr(h); so
    # _above's accept at t and rel = _RANK_TOL proves sigma_min^2 >
    # _RANK_TOL ||A A^T||_F >= _RANK_TOL sigma_max^2: every singular value
    # exceeds _RANK_TOL^(1/2) sigma_max, a factor _RANK_TOL^(-1/2) above _kept's
    # cutoff, far outside the rounding of any SVD, so no rank decision moves
    a = np.ldexp(A, -math.frexp(float(np.abs(A).max()))[1])
    h = a @ a.T
    return _above(h, A.shape[1] * _EPS * float(np.trace(h)), rel=_RANK_TOL) is True


def _split(A, range_factor=True):
    # ker A and the range factors of a p-by-n float A of rank r, as
    # (kernel, V_r, G, U_r): the kernel basis, built once after the three
    # branches, which carries a read-only copy of V_r, the basis of rge A^T,
    # as its complement when r < k = n - r, so that a residual outside ker A
    # costs n^2 r, not 2 n^2 k; V_r; the p-by-r range factor G
    # with A^+ = V_r G^T and (A^T)^+ = G G^T A; and U_r, the basis of rge A
    # that the feasibility of A Y = B is tested against, or None where every
    # B is feasible.  p = 0 takes no factorization and has r = 0.  Where
    # _full_row_rank certifies r = p, ker A is the trailing n - p columns of
    # one complete Householder QR A^T = Q R (Golub & Van Loan, Matrix
    # Computations, 5.2), V_r its leading p, and G = R_p^-1, with
    # G G^T = (A A^T)^-1; with range_factor off G is None and no inverse is
    # formed.  Everywhere else (a zero row, rank deficiency, p > n, a cutoff
    # in doubt) one full SVD A = U S V^T and _kept's cutoff decide r: the
    # kernel basis is the rows of V^T past r and G = U_r S_r^-1.  A non-finite
    # A raises ValueError
    if not np.isfinite(A).all():
        raise ValueError("A must have finite entries")
    p, n = A.shape
    if p == 0:
        q, vr, g, ur = np.eye(n), np.zeros((n, 0)), np.zeros((0, 0)), None
    elif p <= n and _full_row_rank(A):
        f, rf = np.linalg.qr(A.T, mode="complete")
        q, vr, ur = f[:, p:], f[:, :p], None
        g = np.linalg.inv(rf[:p]) if range_factor else None
    else:
        u, s, vh = np.linalg.svd(A)
        r = np.count_nonzero(_kept(s))
        q, vr, ur = vh[r:].T, vh[:r].T, u[:, :r]
        g = ur / s[:r]
    # the kernel basis copies what it keeps, so that the full factors are
    # freed once the caller has used V_r, and V_r is copied as its
    # complement where it is the narrower basis
    kernel = SubspaceBasis(q)
    if vr.shape[1] < kernel.dim:
        comp = vr.copy()
        comp.setflags(write=False)
        object.__setattr__(kernel, "complement", comp)
    return kernel, vr, g, ur


def _compress(V, subspace):
    # the k-by-k form sym(Q^T V Q) of a symmetric V on the subspace, whose
    # spectrum every cone and domain test reads.  V is not symmetrized again;
    # the k-by-k product is, because gemm rounding leaves it asymmetric
    q = subspace.basis
    return symmetrize(q.T @ V @ q)


def _outside(C, subspace):
    # the part of C's columns outside the subspace, whose norm every range
    # test against the subspace reads: U^T C in the coordinates of the
    # complement where it is stored, else C - Q (Q^T C); the two have one
    # norm, since Q Q^T + U U^T = I
    u = subspace.complement
    if u is not None:
        return u.T @ C
    q = subspace.basis
    return C - q @ (q.T @ C)


def _off_subspace(W, c, subspace):
    # the polar test's support residual of a symmetric W whose compression is
    # c = sym(Q^T W Q), the part of W not of the form Q C Q^T: where the
    # complement U is stored, hypot(||U^T W||_F, ||U^T W Q||_F), which forms
    # no n-by-n matrix, and the n-by-n W - Q c Q^T otherwise; the two have one
    # norm, since Q Q^T + U U^T = I, and _small reads either
    u = subspace.complement
    q = subspace.basis
    if u is not None:
        out = u.T @ W
        return math.hypot(_norm(out), _norm(out @ q))
    return W - q @ c @ q.T
