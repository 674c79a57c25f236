"""Tolerance-governed dense symmetric linear algebra kernel.

Every higher-level test in this package (cone membership, support-function
domains, hull geometry, gauges) reduces to a handful of rank-revealing
primitives collected here: symmetric eigendecomposition, symmetric
pseudoinverse, kernel bases, range-inclusion tests, and PSD tests restricted
to a subspace.  All rank and membership decisions are governed by a single
:class:`ToleranceConfig` so that "zero", "inside", and "equal" mean the same
thing in every module.
"""

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SubspaceBasis",
    "SpectralData",
    "symmetrize",
    "frobenius_inner",
    "sym_eig",
    "sym_pinv",
    "kernel_basis",
    "range_inclusion",
    "psd_on_subspace",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by all operations.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value (or eigenvalue-magnitude) cutoff below which
        a direction counts as rank-deficient.
    psd_tol : float
        Absolute eigenvalue slack, in matrix-norm units, for semidefinite
        and strict-definite decisions.
    range_tol : float
        Relative residual bound for range-inclusion tests.
    eq_tol : float
        Relative bound for scalar and matrix equality tests.
    feas_tol : float
        Relative bound for constraint residuals ``A Y - B``.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    range_tol: float = 1e-9
    eq_tol: float = 1e-8
    feas_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 < v < 1.0:
                raise ValueError(
                    f"tolerance {f.name} must lie strictly in (0, 1), got {v!r}"
                )


DEFAULT_TOL = ToleranceConfig()


def symmetrize(S):
    """Return ``(S + S^T) / 2`` as a float array."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    return 0.5 * (S + S.T)


def frobenius_inner(A, B):
    """Frobenius inner product ``tr(A^T B)``."""
    return float(np.tensordot(np.asarray(A, float), np.asarray(B, float), axes=2))


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal basis of a subspace of R^n plus its projector.

    ``basis`` is n-by-k with orthonormal columns spanning the subspace and
    ``projector`` is the n-by-n orthogonal projection onto it.  ``k = 0``
    encodes the zero subspace (projector identically zero).
    """

    dim_ambient: int
    basis: np.ndarray
    projector: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, M, tol=DEFAULT_TOL):
        """Orthonormal basis of the column span of ``M`` (via SVD)."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError("from_span expects a 2-D array of spanning columns")
        n = M.shape[0]
        if M.shape[1] == 0:
            return cls.zero_subspace(n)
        u, s, _ = np.linalg.svd(M)
        return cls.spanned_by(u[:, : _svd_rank(s, tol)].copy())

    @classmethod
    def spanned_by(cls, q):
        """The subspace spanned by the orthonormal columns of ``q``."""
        return cls(dim_ambient=q.shape[0], basis=q, projector=symmetrize(q @ q.T))

    @classmethod
    def full_space(cls, n):
        return cls(dim_ambient=n, basis=np.eye(n), projector=np.eye(n))

    @classmethod
    def zero_subspace(cls, n):
        return cls(
            dim_ambient=n, basis=np.zeros((n, 0)), projector=np.zeros((n, n))
        )


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    The input is symmetrized (``(S + S^T)/2``) before factorization, so
    asymmetric floating-point noise in file input is harmless.

    Parameters
    ----------
    S : array_like, shape (n, n)

    Returns
    -------
    SpectralData
        Eigenvalues in descending order with matching orthonormal
        eigenvector columns.
    """
    S = symmetrize(S)
    w, q = np.linalg.eigh(S)
    return SpectralData(eigenvalues=w[::-1].copy(), eigenvectors=q[:, ::-1].copy())


def sym_pinv(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Eigenvalues with ``|lambda| <= rank_tol * max|lambda|`` are treated as
    zero; the remaining spectrum is inverted.
    """
    sd = sym_eig(M)
    w, q = sd.eigenvalues, sd.eigenvectors
    if w.size == 0:
        return np.zeros_like(np.asarray(M, float))
    cutoff = tol.rank_tol * np.abs(w).max()
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cutoff)
    return symmetrize((q * inv) @ q.T)


def _svd_rank(s, tol):
    # numerical rank from descending singular values: the ``rank_tol`` cutoff
    # relative to the largest, and rank 0 for an all-zero spectrum
    return int(np.sum(s > tol.rank_tol * s[0])) if s.size and s[0] > 0 else 0


def kernel_basis(A, tol=DEFAULT_TOL):
    """Orthonormal basis of ``ker A = {u : A u = 0}``.

    ``A`` may have zero rows (no constraints), in which case the kernel is
    all of R^n and the basis is the identity.  The rank of ``A`` is decided
    by the relative singular-value cutoff ``rank_tol``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D constraint matrix, got shape {A.shape}")
    p, n = A.shape
    if p == 0:
        return SubspaceBasis.spanned_by(np.eye(n))
    _, s, vh = np.linalg.svd(A)
    return SubspaceBasis.spanned_by(vh[_svd_rank(s, tol) :].T.copy())


def range_inclusion(C, M, tol=DEFAULT_TOL):
    """Test ``rge C  subset  rge M`` for symmetric ``M``.

    True iff ``||M M^+ C - C||_F <= range_tol * max(1, ||C||_F)``, where
    ``M M^+`` is realized as the orthogonal projector onto the nonzero
    eigenspace of ``M`` (the same matrix, computed stably).
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
    cutoff = tol.rank_tol * np.abs(w).max() if w.size else 0.0
    keep = np.abs(w) > cutoff
    qk = q[:, keep]
    resid = qk @ (qk.T @ C) - C
    return float(np.linalg.norm(resid)) <= tol.range_tol * max(
        1.0, float(np.linalg.norm(C))
    )


def _compress(V, subspace):
    # the k-by-k form sym(Q^T V Q) of V on the subspace, whose spectrum every
    # cone and domain test reads
    q = subspace.basis
    return symmetrize(q.T @ symmetrize(V) @ q)


def psd_on_subspace(V, subspace, strict=False, tol=DEFAULT_TOL):
    """Test whether the quadratic form of ``V`` is nonnegative on a subspace.

    Non-strict mode requires ``lambda_min(Q^T V Q) >= -psd_tol``; strict mode
    requires ``lambda_min(Q^T V Q) > psd_tol`` (stability under eq_tol-sized
    perturbation).  Both are vacuously true on the zero subspace.
    """
    if subspace.dim == 0:
        return True
    lam_min = float(np.linalg.eigvalsh(_compress(V, subspace))[0])
    if strict:
        return lam_min > tol.psd_tol
    return lam_min >= -tol.psd_tol
