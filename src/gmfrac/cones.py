"""The cone of matrices with nonnegative quadratic form on a subspace.

For a subspace S of R^n with orthonormal basis Q, the cone is
``{V symmetric : u^T V u >= 0 for all u in S}``, equivalently
``{V : Q^T V Q >= 0}``.  This module provides membership tests for the cone,
its interior, its polar ``{W : W = Q (Q^T W Q) Q^T, Q^T W Q <= 0}``, the
affine hull of the polar ``{W : rge W subset S}``, the relative interior of
the polar, and a sampler of polar elements built from the generating set
``{-v v^T : v in S}``.  Every test reads the k-by-k compression
``Q^T W Q`` or the part of ``W`` outside S; none forms the n-by-n
projector onto S.  The polar tests share one spectrum of ``-Q^T W Q``,
which the hull witness and the gauge reuse with its eigenvectors.  The
thresholds are applied by the rules of :mod:`gmfrac.linalg`.

The public tests take a raw matrix and symmetrize it once, at entry.  The
private predicates ``_in_polar`` and ``_in_aff_polar`` and the spectrum
``_polar_top`` take a matrix that is symmetric by construction (a point's
``V`` or ``W``, or a gap matrix symmetrized once when it is formed); the hull,
normal-cone and gauge tests call them, and never the public tests, so no
matrix is symmetrized twice.
"""

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _compress,
    _outside,
    _psd,
    _small,
    psd_on_subspace,
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


def in_cone(V, subspace, tol=DEFAULT_TOL):
    """True iff ``u^T V u >= 0`` for all ``u`` in the subspace."""
    return psd_on_subspace(V, subspace, strict=False, tol=tol)


def in_int_cone(V, subspace, tol=DEFAULT_TOL):
    """True iff ``u^T V u > 0`` for all nonzero ``u`` in the subspace."""
    return psd_on_subspace(V, subspace, strict=True, tol=tol)


def _polar_top(W, subspace, tol, vectors=False):
    # the ascending spectrum of -C for C = sym(Q^T W Q), as eigh's pair
    # (values, vectors) when vectors is set, if W is supported on the
    # subspace (W = Q C Q^T within eq_tol), and None if it is not.  W is in
    # the polar cone iff the spectrum passes the sign test _psd.  W must be
    # symmetric already; only the k-by-k C is symmetrized, by _compress.
    q = subspace.basis
    c = _compress(W, subspace)
    if not _small(W - q @ c @ q.T, W, tol.eq_tol):
        return None
    return np.linalg.eigh(-c) if vectors else np.linalg.eigvalsh(-c)


def in_polar_cone(W, subspace, tol=DEFAULT_TOL):
    """Polar-cone membership: ``W = Q C Q^T`` and ``C <= 0`` for ``C = Q^T W Q``.

    The support condition is tested as a relative residual,
    ``||W - Q C Q^T||_F <= eq_tol * max(1, ||W||_F)``; the sign condition on
    the subspace must satisfy ``lambda_max(C) <= psd_tol``.  For the zero
    subspace the polar is ``{0}``.
    """
    return _in_polar(symmetrize(W), subspace, tol)


def _in_polar(W, subspace, tol, strict=False):
    # polar-cone membership of a symmetric W, of its relative interior when
    # strict
    spec = _polar_top(W, subspace, tol)
    return spec is not None and _psd(spec, tol, strict)


def in_aff_polar(W, subspace, tol=DEFAULT_TOL):
    """Affine hull of the polar cone: ``rge W subset S`` (sign-free).

    Tested as ``||W - Q Q^T W||_F <= range_tol * max(1, ||W||_F)``.
    """
    return _in_aff_polar(symmetrize(W), subspace, tol)


def _in_aff_polar(W, subspace, tol):
    # the test of in_aff_polar on a symmetric W
    return _small(_outside(W, subspace), W, tol.range_tol)


def in_rint_polar(W, subspace, tol=DEFAULT_TOL):
    """Relative interior of the polar cone.

    For a nonzero subspace this means polar membership plus a strictly
    negative form on the subspace (``lambda_max(Q^T W Q) < -psd_tol``).  For
    the zero subspace the polar is ``{0}`` and its relative interior is
    ``{0}`` as well: ``Q^T W Q`` is empty, so its spectrum passes the sign
    test vacuously and only the support test on ``W`` remains.
    """
    return _in_polar(symmetrize(W), subspace, tol, strict=True)


def sample_polar(subspace, generators, rng, count=1, tol=DEFAULT_TOL):
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
