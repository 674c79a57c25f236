"""Tolerance-governed dense symmetric linear algebra kernel.

Every higher-level test in this package (cone membership, support-function
domains, hull geometry, gauges) reduces to a handful of rank-revealing
primitives collected here: symmetric eigendecomposition, symmetric
pseudoinverse, kernel bases, range-inclusion tests, and PSD tests restricted
to a subspace.  All rank and membership decisions are governed by a single
:class:`ToleranceConfig` and applied only here, by three private rules that
every other module calls: ``_kept`` (the rank cutoff), ``_small`` (the
relative residual test) and ``_psd`` (the eigenvalue sign test).  So "zero",
"inside", and "equal" mean the same thing in every module.
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
        Cutoff, relative to the largest magnitude, below which a singular
        value or eigenvalue counts as zero; applied by ``_kept``.
    psd_tol : float
        Absolute eigenvalue slack for semidefinite and strict-definite
        decisions; applied by ``_psd``.
    range_tol : float
        Relative residual bound for range-inclusion tests; applied by
        ``_small``.
    eq_tol : float
        Relative bound for matrix equality tests, applied by ``_small``, and
        for the few scalar tests on a norm or a value.
    feas_tol : float
        Relative bound for constraint residuals ``A Y - B``; applied by
        ``_small``.
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


def _kept(w, tol):
    # the rank cutoff: which of the values w count as nonzero, those above
    # rank_tol times the largest magnitude (none of an all-zero or empty w)
    a = np.abs(w)
    return a > tol.rank_tol * a.max(initial=0.0)


def _norm(x):
    # Frobenius norm without spurious overflow or underflow: the plain norm,
    # taken again on x / max|x| only when it came out 0 or inf
    with np.errstate(over="ignore", under="ignore"):
        r = float(np.linalg.norm(x))
        if r == 0.0 or r == np.inf:
            s = float(np.max(np.abs(x), initial=0.0))
            if 0.0 < s < np.inf:
                r = s * float(np.linalg.norm(x / s))
    return r


def _small(resid, ref, bound):
    # the relative residual test ||resid|| <= bound * max(1, ||ref||)
    return _norm(resid) <= bound * max(1.0, _norm(ref))


def _psd(w, tol, strict=False):
    # the sign test on an ascending spectrum: every value >= -psd_tol, or
    # > psd_tol when strict; vacuously true for an empty spectrum
    if w.size == 0:
        return True
    return bool(w[0] > tol.psd_tol if strict else w[0] >= -tol.psd_tol)


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
    """An orthonormal basis of a subspace of R^n.

    ``basis`` is n-by-k with orthonormal columns ``Q`` spanning the
    subspace; ``k = 0`` encodes the zero subspace.  It is the only stored
    representation: every subspace test in this package reads ``Q``, either
    through the k-by-k compression ``Q^T V Q`` of a matrix or through its
    part ``C - Q (Q^T C)`` outside the subspace.  ``projector`` forms the
    n-by-n orthogonal projection ``Q Q^T`` on demand.
    """

    basis: np.ndarray

    @property
    def dim_ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def projector(self):
        """The n-by-n orthogonal projector ``Q Q^T`` onto the subspace."""
        return symmetrize(self.basis @ self.basis.T)

    @classmethod
    def zero_subspace(cls, n):
        return cls(np.zeros((n, 0)))


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
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=_kept(w, tol))
    return symmetrize((q * inv) @ q.T)


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
        return SubspaceBasis(np.eye(n))
    _, s, vh = np.linalg.svd(A)
    return SubspaceBasis(vh[np.count_nonzero(_kept(s, tol)) :].T.copy())


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
    qk = q[:, _kept(w, tol)]
    return _small(qk @ (qk.T @ C) - C, C, tol.range_tol)


def _compress(V, subspace):
    # the k-by-k form sym(Q^T V Q) of V on the subspace, whose spectrum every
    # cone and domain test reads
    q = subspace.basis
    return symmetrize(q.T @ symmetrize(V) @ q)


def _outside(C, subspace):
    # the part C - Q (Q^T C) of C's columns outside the subspace, whose norm
    # every range test against the subspace reads
    q = subspace.basis
    return C - q @ (q.T @ C)


def psd_on_subspace(V, subspace, strict=False, tol=DEFAULT_TOL):
    """Test whether the quadratic form of ``V`` is nonnegative on a subspace.

    Non-strict mode requires ``lambda_min(Q^T V Q) >= -psd_tol``; strict mode
    requires ``lambda_min(Q^T V Q) > psd_tol`` (stability under eq_tol-sized
    perturbation).  Both are vacuously true on the zero subspace.
    """
    return _psd(np.linalg.eigvalsh(_compress(V, subspace)), tol, strict)
