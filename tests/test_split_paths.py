"""The two paths of ``ker A``: one QR where a Cholesky certifies full row rank.

``linalg._split`` takes one complete QR of ``A^T`` where one Cholesky
factorization of ``A A^T`` certifies that the rank cutoff keeps every
singular value of ``A``, and one full SVD of ``A`` everywhere else: zero
rows, a rank-deficient ``A``, ``p > n``, and a cutoff in doubt, as for the
row-scaled ``A = [[s, 0, 0], [0, 1, 0]]`` once ``s >= 1e5``.  Each case is
checked against a reference taken here from ``numpy.linalg.svd``: the path,
the rank, an orthonormal basis of ``ker A`` with its complement stored
exactly when it is the narrower basis, and the minimum-norm solutions of
``A Y = B`` and ``A^T Z = C``.  A declined pair keeps the SVD's kernel basis
bit for bit.
"""

import numpy as np
import pytest

from gmfrac import ConstraintPair, InfeasiblePairError
from gmfrac.linalg import _RANGE_TOL, _RANK_TOL
from helpers import taken

EPS = np.finfo(float).eps


def _general(p, n):
    return np.random.default_rng([40, p, n]).standard_normal((p, n))


def _zero_row():
    a = _general(4, 7)
    a[1] = 0.0
    return a


def _rank_two():
    rng = np.random.default_rng(41)
    return rng.standard_normal((4, 2)) @ rng.standard_normal((2, 7))


def _row_scaled(s):
    return np.array([[s, 0.0, 0.0], [0.0, 1.0, 0.0]])


# (id, A, path): "qr" when the certificate holds, "declined" when its one
# Cholesky fails and one SVD decides, "svd" when no certificate is tried
CASES = [
    ("p<n", _general(3, 7), "qr"),
    ("p=n", _general(5, 5), "qr"),
    ("p>n", _general(7, 4), "svd"),
    ("zero-row", _zero_row(), "declined"),
    ("rank-deficient", _rank_two(), "declined"),
    ("row-scaled-1", _row_scaled(1.0), "qr"),
    ("row-scaled-1e4", _row_scaled(1e4), "qr"),
    ("row-scaled-1e5", _row_scaled(1e5), "declined"),
    ("row-scaled-1e9", _row_scaled(1e9), "declined"),
    ("row-scaled-1e11", _row_scaled(1e11), "declined"),
]

PATHS = {
    "qr": {"cholesky": 1, "qr": 1, "inv": 1},
    "declined": {"cholesky": 1, "svd": 1},
    "svd": {"svd": 1},
}


def _rhs(A, homogeneous):
    # B = 0, or a B != 0 inside rge A: the row-scaled pairs take
    # B = (0, 1)^T, whose manifold is feasible at every s
    p, n = A.shape
    if homogeneous:
        return np.zeros((p, 2))
    if n == 3:
        return np.array([[0.0], [1.0]])
    return A @ np.random.default_rng(42).standard_normal((n, 2))


@pytest.mark.parametrize("homogeneous", [True, False], ids=["B=0", "B!=0"])
@pytest.mark.parametrize("A, path", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_split_path_rank_basis_and_solutions(counts, A, path, homogeneous):
    p, n = A.shape
    B = _rhs(A, homogeneous)
    u, s, vh = np.linalg.svd(A)
    r = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    k = n - r
    ur, sr, vr = u[:, :r], s[:r], vh[:r].T
    taken(counts)
    if np.linalg.norm(B - ur @ (ur.T @ B)) > _RANGE_TOL * max(1.0, np.linalg.norm(B)):
        # only the row-scaled pair at s = 1e11: the cutoff at _RANK_TOL * 1e11
        # drops the unit row, so the SVD's answer for this feasible manifold
        # is "infeasible", as the rank cutoff is not yet invariant under a
        # scaling of the rows of (A, B)
        assert A[0, 0] == 1e11 and r == 1
        with pytest.raises(InfeasiblePairError):
            ConstraintPair(A, B)
        assert taken(counts) == PATHS[path]
        return
    pair = ConstraintPair(A, B)
    assert taken(counts) == PATHS[path]
    if path == "qr":
        assert r == p
    q = pair.kernel.basis
    assert q.shape == (n, k)
    assert np.abs(q.T @ q - np.eye(k)).max(initial=0.0) <= 10 * n * EPS
    # A Q = 0 up to rounding and the singular values that the cutoff drops
    dropped = np.linalg.norm(s[r:])
    assert np.linalg.norm(A @ q) <= 10 * n * EPS * np.linalg.norm(A) + dropped
    complement = pair.kernel.complement
    assert (complement is not None) == (r < k)
    if complement is not None:
        full = np.hstack([q, complement])
        assert full.shape == (n, n)
        assert np.abs(full.T @ full - np.eye(n)).max(initial=0.0) <= 10 * n * EPS
    if path != "qr":
        assert q.tobytes() == vh[r:].T.copy().tobytes()
    cond = sr[0] / sr[-1]
    y0 = vr @ ((ur.T @ B) / sr[:, None])
    bound = 10 * n * EPS * cond
    assert np.linalg.norm(pair.min_norm_solution - y0) <= bound * max(np.linalg.norm(y0), 1e-300)
    C = np.random.default_rng(43).standard_normal((n, 3))
    z = ur @ ((vr.T @ C) / sr[:, None])
    assert np.linalg.norm(pair._transpose_solve(C) - z) <= bound * np.linalg.norm(z)
