"""Shared random-instance generators and reference computations for the test suite."""

import math
from dataclasses import dataclass, fields

import numpy as np

from gmfrac import (
    ConstraintPair,
    DualPoint,
    PrimalPoint,
    SubspaceBasis,
    sample_polar,
    symmetrize,
)
from gmfrac.linalg import _compress, _kept, _norm, _psd, _psd_kept, _small


def projector(subspace):
    """The n-by-n orthogonal projector ``Q Q^T`` onto the subspace."""
    return symmetrize(subspace.basis @ subspace.basis.T)


def zero_subspace(n):
    """The zero subspace of R^n: an n-by-0 basis."""
    return SubspaceBasis(np.zeros((n, 0)))


def point_norm(point):
    """The norm ``sqrt(||first||_F^2 + ||second||_F^2)`` of a dual or primal point."""
    return math.hypot(*(_norm(getattr(point, f.name)) for f in fields(point)))


def scaled_point(point, t):
    """The point of the same class with both fields multiplied by ``t``."""
    return type(point)(*(t * getattr(point, f.name) for f in fields(point)))


def saddle_matrix(V, pair):
    """The KKT saddle matrix ``M(V) = [[V, A^T], [A, 0]]``.

    For ``p = 0`` this is just ``V``.  The support function's closed form is
    stated in terms of this matrix; :func:`gmfrac.eval_support` does not
    build it, so it serves to check results against that closed form.
    """
    V = symmetrize(V)
    if V.shape[0] != pair.n:
        raise ValueError(f"V must be {pair.n}x{pair.n}, got {V.shape}")
    p = pair.p
    if p == 0:
        return V
    return np.block([[V, pair.A.T], [pair.A, np.zeros((p, p))]])


def rand_sym(rng, n, scale=1.0):
    g = scale * rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def rand_pair(rng, n, m, p):
    """A feasible random pair: B is constructed inside rge A."""
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    b = a @ rng.standard_normal((n, m)) if p else np.zeros((0, m))
    return ConstraintPair(a, b)


def rand_zero_pair(rng, n, m, p):
    """A random pair with B = 0 (the gauge-calculus setting)."""
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    return ConstraintPair(a, np.zeros((p, m)))


def gauge_instance(rng, n, m, p):
    """A B = 0 pair and ``(Y, W)`` with ``Y = Q G``, inside the gauge's domain."""
    pair = rand_zero_pair(rng, n, m, p)
    q = pair.kernel.basis
    k = pair.kernel.dim
    y = q @ rng.standard_normal((k, m))
    r = rng.standard_normal((k, k))
    w = -q @ (r @ r.T + 0.1 * np.eye(k)) @ q.T - 0.2 * (y @ y.T)
    return pair, y, w


def cone_member(rng, subspace, margin=0.0):
    """Random matrix with nonnegative form on the subspace (shifted draw)."""
    n = subspace.dim_ambient
    v = rand_sym(rng, n)
    if subspace.dim == 0:
        return v
    q = subspace.basis
    lam_min = np.linalg.eigvalsh(q.T @ v @ q)[0]
    shift = max(0.0, -lam_min) + margin
    return v + shift * projector(subspace)


def interior_dual(rng, pair, margin=0.5):
    """A dual point strictly inside the support-function domain."""
    x = rng.standard_normal((pair.n, pair.m))
    v = cone_member(rng, pair.kernel, margin=margin)
    return DualPoint(x, v)


def feasible_matrix(rng, pair, scale=1.0):
    y = pair.min_norm_solution
    k = pair.kernel.dim
    if k:
        y = y + scale * (pair.kernel.basis @ rng.standard_normal((k, pair.m)))
    return y


def hull_member(rng, pair, generators=2):
    """A random hull point: feasible Y plus a polar-cone shift of the graph."""
    y = feasible_matrix(rng, pair)
    t = sample_polar(pair.kernel, generators, rng)[0]
    return PrimalPoint(y, -0.5 * (y @ y.T) + t)


def rint_member(rng, pair, margin=0.5):
    """A point of the hull's relative interior (needs a nonzero kernel)."""
    assert pair.kernel.dim > 0
    y = feasible_matrix(rng, pair)
    q = pair.kernel.basis
    k = pair.kernel.dim
    g = rng.standard_normal((k, k))
    neg = q @ (g @ g.T + margin * np.eye(k)) @ q.T
    return PrimalPoint(y, -0.5 * (y @ y.T) - 0.5 * (neg + neg.T))


def residual_first_polar_form(W, subspace, strict=False, rank=False, record=None):
    """``cones._polar_form`` with its two tests in the earlier order.

    The n-by-n support residual ``W - Q C Q^T`` is formed for every ``W``,
    the zero matrix included, and the sign test of ``-C`` runs only once the
    residual has passed.  Returns ``-C`` or ``None`` as ``_polar_form``
    does, and ``(-C, kept)`` with ``rank``, the sign test then read from
    ``linalg._psd_kept`` with the kept eigenpairs; the equivalence tests swap
    it in as the reference.  With a hull memo ``record``, ``W`` is the
    function that returns the matrix, as ``_polar_form`` takes it; the
    reference builds the matrix, takes every test afresh and neither reads
    nor writes the record.
    """
    if record is not None:
        W = W()
    q = subspace.basis
    c = _compress(W, subspace)
    if not _small(W - q @ c @ q.T, W):
        return None
    neg = -c
    if rank:
        psd, kept = _psd_kept(neg)
        return (neg, kept) if psd else None
    return neg if _psd(neg, strict) else None


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(S):
    """Eigendecomposition of ``(S + S^T)/2``, eigenvalues descending.

    The eigenvectors are orthonormal columns matching the eigenvalues.
    """
    w, q = np.linalg.eigh(symmetrize(S))
    return SpectralData(eigenvalues=w[::-1].copy(), eigenvectors=q[:, ::-1].copy())


def sym_pinv(M):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Eigenvalues with ``|lambda| <= 1e-10 * max|lambda|`` are treated as
    zero; the remaining spectrum is inverted.  The reference for the saddle
    matrix closed form ``M(V)^+``.
    """
    sd = sym_eig(M)
    w, q = sd.eigenvalues, sd.eigenvectors
    if w.size == 0:
        return np.zeros_like(np.asarray(M, float))
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=_kept(w))
    return symmetrize((q * inv) @ q.T)


def range_inclusion(C, M):
    """Test ``rge C  subset  rge M`` for symmetric ``M``.

    True iff ``||M M^+ C - C||_F <= 1e-9 * max(1, ||C||_F)``, where
    ``M M^+`` is realized as the orthogonal projector onto the nonzero
    eigenspace of ``M``.  The reference for the saddle matrix domain test.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim == 1:
        C = C.reshape(-1, 1)
    sd = sym_eig(M)
    w, q = sd.eigenvalues, sd.eigenvectors
    if C.shape[0] != q.shape[0]:
        raise ValueError(
            f"incompatible shapes: C has {C.shape[0]} rows, M is {q.shape[0]}x{q.shape[0]}"
        )
    qk = q[:, _kept(w)]
    return _small(qk @ (qk.T @ C) - C, C)


def taken(tally):
    """Nonzero counts of the ``counts`` fixture, then reset the tally."""
    out = {k: v for k, v in tally.items() if v}
    tally.update(dict.fromkeys(tally, 0))
    return out
