"""The cone of matrices with nonnegative quadratic form on a subspace.

For a subspace S of R^n with orthonormal basis Q, the cone is
``{V symmetric : u^T V u >= 0 for all u in S}``, equivalently
``{V : Q^T V Q >= 0}``.  This module provides membership tests for the cone,
its interior, its polar ``{W : W = Q (Q^T W Q) Q^T, Q^T W Q <= 0}``, the
affine hull of the polar ``{W : rge W subset S}``, the relative interior of
the polar, and a sampler of polar elements built from the generating set
``{-v v^T : v in S}``.  Every test reads the k-by-k compression
``Q^T W Q`` or the part of ``W`` outside S; none forms the n-by-n
projector onto S.  Each cone test is one sign test ``_psd`` of
:mod:`gmfrac.linalg` on a k-by-k compression: a Cholesky factorization
decides it outside a rounding band, and ``eigvalsh`` inside.

A polar test is the AND of a sign test and a support test, and
``_polar_form`` takes them in order of cost, for every caller: the polar
and relative-interior tests, the hull tests, the hull witness and the
gauge.  An exactly zero ``W`` has ``C = Q^T W Q = 0`` and takes no product:
it lies in the polar cone, and in its relative interior only on the zero
subspace.  Otherwise the k-by-k sign test of ``-C`` runs first, and the
n-by-n support residual ``W - Q C Q^T`` is formed only once it has passed.
Both tests are pure predicates, so the order changes no answer.  The hull
witness and the gauge read the kept eigenpairs of the ``-C`` that passed
from ``linalg._eig_kept``.  The thresholds are applied by the rules of
:mod:`gmfrac.linalg`.

The public tests take a raw matrix through one entry, ``_entry``, which
rejects a non-finite matrix with ``ValueError`` and symmetrizes it once.
The private predicates ``_in_cone``, ``_in_polar``, ``_in_aff_polar`` and
``_polar_form`` take a matrix that is symmetric by construction (a point's
``V`` or ``W``, or a gap matrix symmetrized once when it is formed); the
hull, normal-cone and gauge tests call them, and never the public tests,
so no matrix is symmetrized twice.
"""

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _compress,
    _outside,
    _psd,
    _small,
    symmetrize,
)

__all__ = [
    "in_cone",
    "in_int_cone",
    "in_polar_cone",
    "in_aff_polar",
    "in_rint_polar",
    "sample_polar",
]


def _entry(M):
    # the raw matrix of a public test, rejected unless finite (a NaN would
    # pass a Cholesky certificate) and symmetrized once
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix must have finite entries")
    return symmetrize(M)


def in_cone(V, subspace, tol=DEFAULT_TOL):
    """True iff ``u^T V u >= 0`` for all ``u`` in the subspace.

    Tested as ``lambda_min(Q^T V Q) >= -psd_tol``, as read from ``eigvalsh``
    and decided by a Cholesky factorization away from the threshold;
    vacuously true on the zero subspace.  Raises ``ValueError`` on a
    non-finite ``V``.
    """
    return _in_cone(_entry(V), subspace, tol)


def in_int_cone(V, subspace, tol=DEFAULT_TOL):
    """True iff ``u^T V u > 0`` for all nonzero ``u`` in the subspace.

    Tested as ``lambda_min(Q^T V Q) > psd_tol`` (stability under
    perturbation of that size); vacuously true on the zero subspace.
    Raises ``ValueError`` on a non-finite ``V``.
    """
    return _in_cone(_entry(V), subspace, tol, strict=True)


def _in_cone(V, subspace, tol, strict=False):
    # cone membership of a symmetric V, of its interior when strict
    return _psd(_compress(V, subspace), tol, strict)


def _polar_form(W, subspace, tol, strict=False):
    # -C for C = sym(Q^T W Q) if the symmetric W lies in the polar cone (in
    # its relative interior when strict), and None if it does not.  The
    # tests run in order of cost: an exactly zero W has C = 0 and needs no
    # product; otherwise the k-by-k sign test _psd(-C) runs first, and the
    # n-by-n support residual W - Q C Q^T, tested within eq_tol, is formed
    # only once the sign test has passed.  Only the k-by-k C is
    # symmetrized, by _compress.
    if not W.any():
        neg = np.zeros((subspace.dim, subspace.dim))
        return neg if _psd(neg, tol, strict) else None
    c = _compress(W, subspace)
    neg = -c
    if not _psd(neg, tol, strict):
        return None
    q = subspace.basis
    return neg if _small(W - q @ c @ q.T, W, tol.eq_tol) else None


def in_polar_cone(W, subspace, tol=DEFAULT_TOL):
    """Polar-cone membership: ``W = Q C Q^T`` and ``C <= 0`` for ``C = Q^T W Q``.

    The sign condition on the subspace must satisfy
    ``lambda_max(C) <= psd_tol``; the support condition is tested as a
    relative residual, ``||W - Q C Q^T||_F <= eq_tol * max(1, ||W||_F)``, and
    only once the sign condition holds.  The zero matrix is a member and
    takes no product.  For the zero subspace the polar is ``{0}``.  Raises
    ``ValueError`` on a non-finite ``W``.
    """
    return _in_polar(_entry(W), subspace, tol)


def _in_polar(W, subspace, tol, strict=False):
    # polar-cone membership of a symmetric W, of its relative interior when
    # strict
    return _polar_form(W, subspace, tol, strict) is not None


def in_aff_polar(W, subspace, tol=DEFAULT_TOL):
    """Affine hull of the polar cone: ``rge W subset S`` (sign-free).

    Tested as ``||W - Q Q^T W||_F <= range_tol * max(1, ||W||_F)``.  Raises
    ``ValueError`` on a non-finite ``W``.
    """
    return _in_aff_polar(_entry(W), subspace, tol)


def _in_aff_polar(W, subspace, tol):
    # the test of in_aff_polar on a symmetric W
    return _small(_outside(W, subspace), W, tol.range_tol)


def in_rint_polar(W, subspace, tol=DEFAULT_TOL):
    """Relative interior of the polar cone.

    For a nonzero subspace this means polar membership plus a strictly
    negative form on the subspace (``lambda_max(Q^T W Q) < -psd_tol``), the
    sign test taken first and the support test only once it has passed; the
    zero matrix is not a member.  For the zero subspace the polar is ``{0}``
    and its relative interior is ``{0}`` as well: ``Q^T W Q`` is empty, so
    its spectrum passes the sign test vacuously and only the support test on
    ``W`` remains, and the zero matrix is a member.  Raises ``ValueError`` on
    a non-finite ``W``.
    """
    return _in_polar(_entry(W), subspace, tol, strict=True)


def sample_polar(subspace, generators, rng, count=1):
    """Draw random elements of the polar cone.

    Each sample is ``W = -sum_{i<=r} lam_i v_i v_i^T`` with ``r =
    generators`` rank-one terms, weights ``lam_i = |N(0,1)|`` and directions
    ``v_i = Q g_i`` for ``g_i ~ N(0, I_k)``.  On the zero subspace every
    sample is the zero matrix.

    Parameters
    ----------
    subspace : SubspaceBasis
    generators : int
        Number of rank-one terms per sample, at least 1.
    rng : int or numpy.random.Generator
    count : int
        Number of samples to return.

    Returns
    -------
    list of ndarray
        ``count`` symmetric n-by-n matrices, each passing ``in_polar_cone``.
    """
    if generators < 1:
        raise ValueError("generators must be >= 1")
    rng = np.random.default_rng(rng)
    n, k = subspace.dim_ambient, subspace.dim
    out = []
    for _ in range(count):
        if k == 0:
            out.append(np.zeros((n, n)))
            continue
        lam = np.abs(rng.standard_normal(generators))
        g = rng.standard_normal((k, generators))
        v = subspace.basis @ g
        out.append(symmetrize(-(v * lam) @ v.T))
    return out
