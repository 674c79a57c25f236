"""Reference computations written apart from gmfrac.

Each oracle solves its problem by a different route than the library: the
support function through the null-space method (Nocedal & Wright,
*Numerical Optimization*, Sec. 16.2) instead of the pseudoinverse of the
saddle matrix, the kernel from our own SVD, the gauge from the inverse of
the compressed block built into the test point, and the witness error from
its exact expansion.  The numpy routines are bound here at import, before
any tracer replaces ``numpy.linalg``'s attributes, so oracle work is never
counted as library work.
"""

import math

import numpy as np
from numpy.linalg import eigvalsh, norm, solve, svd


class Manifold:
    """Our own description of ``{Y : A Y = B}``: rank, kernel basis, Y0."""

    def __init__(self, A, B):
        A = np.asarray(A, float)
        B = np.asarray(B, float)
        p, n = A.shape
        self.A, self.B = A, B
        if p == 0 or not A.any():
            self.rank = 0
            self.Q = np.eye(n)
            self.Y0 = np.zeros((n, B.shape[1]))
            return
        u, s, vt = svd(A)
        self.rank = int(np.sum(s > s[0] * max(A.shape) * np.finfo(float).eps))
        r = self.rank
        self.Q = vt[r:].T
        self.Y0 = vt[:r].T @ ((u[:, :r].T @ B) / s[:r, None])

    @property
    def P(self):
        return self.Q @ self.Q.T

    def residual(self, Y):
        """Relative residual ``||A Y - B|| / max(1, ||B||)``."""
        if self.A.shape[0] == 0:
            return 0.0
        return norm(self.A @ Y - self.B) / max(1.0, norm(self.B))


def support(man, X, V):
    """Value and maximizer of ``sup {<X,Y> - 1/2 <V,Y Y^T> : A Y = B}``.

    On ``Y = Y0 + Q G`` the problem is an unconstrained concave quadratic in
    ``G`` with Hessian ``H = Q^T V Q``; the caller guarantees ``H > 0``.
    Returns ``(value, Y*, lambda_max(H))``.
    """
    H = man.Q.T @ V @ man.Q
    H = 0.5 * (H + H.T)
    G = solve(H, man.Q.T @ (X - V @ man.Y0))
    Y = man.Y0 + man.Q @ G
    return fenchel(X, V, Y), Y, float(eigvalsh(H)[-1])


def fenchel(X, V, Y):
    """``<X, Y> - 1/2 <V, Y Y^T>``: the objective at ``Y``."""
    return float(np.sum(X * Y) - 0.5 * np.sum(V * (Y @ Y.T)))


def gauge(G, M):
    """``1/2 lambda_max(G^T M^{-1} G)`` for a positive definite ``M``.

    For ``Y = Q G`` and ``W = -Q M Q^T`` this is ``1/2 lambda_max(Y^T (-W)^+ Y)``.
    """
    C = G.T @ solve(M, G)
    return 0.5 * float(eigvalsh(0.5 * (C + C.T))[-1])


def witness_bound(man, Y, W, epsilon, count):
    """Bound on the distance of the witness's induced point from ``(Y, W)``.

    Expanding the witness of ``caratheodory_witness`` with components
    ``Z0 + (Y - Z0)/s`` (weight ``s^2 = 1 - eps``) and ``Z0 + a_i v_i e1^T``
    (weight ``lam = eps/N``, ``a_i^2 lam = 2 mu_i``) gives
    ``dY = (s - 1) D + sum sqrt(2 mu_i lam) v_i e1^T`` and
    ``dW = -(s - 1) sym(Z0 D^T) - sum sqrt(2 mu_i lam) sym(Z0 e1 v_i^T)`` with
    ``D = Y - Z0`` and ``sum mu_i = tr(-(1/2 Y Y^T + W))``, hence
    ``dist <= (1 + ||Z0||) (eps ||D|| + sqrt(2 eps t / N))``: order sqrt(eps).
    """
    t = max(0.0, -float(np.trace(0.5 * (Y @ Y.T) + W)))
    d = norm(Y - man.Y0)
    return (1.0 + norm(man.Y0)) * (epsilon * d + math.sqrt(2.0 * epsilon * t / count))


def induced_point(weights, components):
    """``(sum w_i Y_i, -1/2 sum w_i Y_i Y_i^T)`` for stacked ``Y_i``."""
    k, n, m = components.shape
    cols = components.transpose(1, 0, 2).reshape(n, k * m)
    w = np.repeat(weights, m)
    return np.tensordot(weights, components, axes=1), -0.5 * (cols * w) @ cols.T


def distance(Ya, Wa, Yb, Wb):
    return math.sqrt(norm(Ya - Yb) ** 2 + norm(Wa - Wb) ** 2)


def rel_err(a, b):
    """``||a - b|| / max(1, ||b||)`` for scalars and arrays."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(norm(a - b) / max(1.0, norm(b)))
