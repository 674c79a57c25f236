"""The cone of matrices with nonnegative quadratic form on a subspace.

For a subspace S of R^n with orthonormal basis Q, the cone is
``{V symmetric : u^T V u >= 0 for all u in S}``, equivalently
``{V : Q^T V Q >= 0}``.  This module provides membership tests for the cone,
its interior, its polar ``{W : W = Q (Q^T W Q) Q^T, Q^T W Q <= 0}``, the
affine hull of the polar ``{W : rge W subset S}``, the relative interior of
the polar, and a sampler of polar elements built from the generating set
``{-v v^T : v in S}``.  Every test reads the k-by-k compression
``Q^T W Q`` or the part of ``W`` outside S; none forms the n-by-n
projector onto S.
"""

import numpy as np

from .linalg import DEFAULT_TOL, _compress, _outside, psd_on_subspace, symmetrize

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


def _polar_top(W, subspace, tol):
    # lambda_max(C) for C = sym(Q^T W Q) when W is supported on the subspace,
    # ||W - Q C Q^T||_F <= eq_tol * max(1, ||W||_F), and None when it is not.
    # On the zero subspace C is empty and the value is -inf.
    W = symmetrize(W)
    q = subspace.basis
    c = _compress(W, subspace)
    resid = float(np.linalg.norm(W - q @ c @ q.T))
    if resid > tol.eq_tol * max(1.0, float(np.linalg.norm(W))):
        return None
    if subspace.dim == 0:
        return -np.inf
    return float(np.linalg.eigvalsh(c)[-1])


def in_polar_cone(W, subspace, tol=DEFAULT_TOL):
    """Polar-cone membership: ``W = Q C Q^T`` and ``C <= 0`` for ``C = Q^T W Q``.

    The support condition is tested as a relative residual,
    ``||W - Q C Q^T||_F <= eq_tol * max(1, ||W||_F)``; the sign condition on
    the subspace must satisfy ``lambda_max(C) <= psd_tol``.  For the zero
    subspace the polar is ``{0}``.
    """
    top = _polar_top(W, subspace, tol)
    return top is not None and top <= tol.psd_tol


def in_aff_polar(W, subspace, tol=DEFAULT_TOL):
    """Affine hull of the polar cone: ``rge W subset S`` (sign-free).

    Tested as ``||W - Q Q^T W||_F <= range_tol * max(1, ||W||_F)``.
    """
    W = symmetrize(W)
    return float(np.linalg.norm(_outside(W, subspace))) <= tol.range_tol * max(
        1.0, float(np.linalg.norm(W))
    )


def in_rint_polar(W, subspace, tol=DEFAULT_TOL):
    """Relative interior of the polar cone.

    For a nonzero subspace this means polar membership plus a strictly
    negative form on the subspace (``lambda_max(Q^T W Q) < -psd_tol``).  For
    the zero subspace the polar is ``{0}`` and its relative interior is
    ``{0}`` as well, so the test reduces to ``||W||_F <= eq_tol``; that
    branch dispatches on the exact dimension ``k = 0``, not on a tolerance
    test.
    """
    top = _polar_top(W, subspace, tol)
    return top is not None and top < -tol.psd_tol


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
