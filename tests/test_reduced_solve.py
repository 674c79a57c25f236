"""The two branches of the reduced support solve.

``eval_support`` and ``in_domain`` take the sign test and the rank cutoff
of the reduced Hessian ``H = Q^T V Q`` from the rule ``in_cone`` uses: a
Cholesky certificate away from the thresholds, and ``eigvalsh`` inside its
rounding band.  They solve ``H G = R`` by one LU factorization when the
rank cutoff keeps every eigenvalue.  Only a singular ``H`` takes ``eigh``.
These tests place ``H``'s smallest eigenvalue at the two thresholds that
choose the branch, ``-psd_tol`` and ``rank_tol * max|lambda|``, and check
the LU branch on ill-conditioned ``H`` against a 50-digit solve of the KKT
system.
"""

import mpmath
import numpy as np
import pytest

from gmfrac import DEFAULT_TOL, ConstraintPair, DualPoint, eval_support, in_cone, in_domain
from helpers import taken

EPS = np.finfo(float).eps


def pair_and_hessian(rng, n, m, p, lam):
    """A random full-row-rank pair and ``V = Q U diag(lam) U^T Q^T``."""
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    pair = ConstraintPair(a, a @ rng.standard_normal((n, m)))
    q = pair.kernel.basis
    u, _ = np.linalg.qr(rng.standard_normal((q.shape[1], q.shape[1])))
    return pair, u, q @ ((u * lam) @ u.T) @ q.T


def test_domain_sign_decision_is_in_cone():
    # lambda_min(H) within a few ulps of -psd_tol, and X in range: eigh and
    # eigvalsh round such a spectrum to either side of the threshold, so a
    # sign test read from eigh disagrees with in_cone on some draws
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(0, n - 1))
        k = n - p
        lam = rng.uniform(0.1, 1.0, k)
        lam[0] = -DEFAULT_TOL.psd_tol + int(rng.integers(-4, 5)) * EPS
        singular = k > 1 and rng.integers(0, 3) == 0
        if singular:
            lam[1] = 0.0
        pair, u, v = pair_and_hessian(rng, n, m, p, lam)
        q = pair.kernel.basis
        x = v @ pair.min_norm_solution + q @ (u * lam) @ u.T @ rng.standard_normal((k, m))
        if p:
            x = x + pair.A.T @ rng.standard_normal((p, m))
        point = DualPoint(x, v)
        cone = in_cone(point.V, pair.kernel, tol=pair.tol)
        domain = in_domain(point, pair)
        assert eval_support(point, pair).finite == domain
        assert cone or not domain
        if not singular:
            # every |lambda| is at least psd_tol > rank_tol * max|lambda|
            assert domain == cone
        seen.add(cone)
    assert seen == {True, False}


def kkt_reference(point, pair, dps=50):
    """Value and ``Y*`` from ``M(V) (Y; Z) = (X; B)`` solved in ``dps`` digits."""
    n, p, m = pair.n, pair.p, pair.m
    rhs = np.vstack([point.X, pair.B])
    with mpmath.workdps(dps):
        kkt = mpmath.matrix(n + p, n + p)
        for i in range(n):
            for j in range(n):
                kkt[i, j] = point.V[i, j]
        for i in range(p):
            for j in range(n):
                kkt[n + i, j] = kkt[j, n + i] = pair.A[i, j]
        value = mpmath.mpf(0)
        y = np.empty((n, m))
        for c in range(m):
            sol = mpmath.lu_solve(kkt, mpmath.matrix(rhs[:, c].tolist()))
            value += mpmath.fsum(mpmath.mpf(rhs[i, c]) * sol[i] for i in range(n + p))
            y[:, c] = [float(sol[i]) for i in range(n)]
        return float(value / 2), y


def test_ill_conditioned_hessian_matches_50_digits(counts):
    # H = Q^T V Q is formed from V, so its rounding is eps * ||V||_2 and the
    # first-order error bound on G is k * eps * ||V||_2 * ||H^-1||_2, which is
    # k * cond(H) * eps for V = Q H Q^T; here V also acts on rge A^T
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n - 1))
        k = n - p
        cond = 10 ** rng.uniform(5.0, 9.9)
        lam = np.geomspace(1.0, 1.0 / cond, k)
        pair, _, v = pair_and_hessian(rng, n, m, p, lam)
        if p:
            c = pair.A.T @ rng.standard_normal((p, n))
            v = v + 0.5 * (c + c.T)
        point = DualPoint(rng.standard_normal((n, m)), v)
        taken(counts)
        res = eval_support(point, pair)
        assert res.finite
        assert taken(counts) == {"cholesky": 1, "solve": 1}
        value, y = kkt_reference(point, pair)
        bound = k * EPS * np.linalg.norm(point.V, 2) / lam[-1]
        assert abs(res.value - value) <= bound * abs(value)
        assert np.linalg.norm(res.maximizer - y) <= bound * np.linalg.norm(y)


@pytest.mark.parametrize("n, m, p", [(4, 2, 0), (6, 2, 2), (9, 3, 4)])
def test_rank_cutoff_chooses_the_branch(counts, n, m, p):
    # R along the eigenvector of an eigenvalue just above and just below
    # rank_tol * max|lambda|: kept, H is nonsingular and G = H^-1 R is
    # finite; cut, R lies outside the kept eigenspace and the value is +inf
    rng = np.random.default_rng(43)
    k = n - p
    for factor, finite, branch in ((1.001, True, "solve"), (0.999, False, "eigh")):
        lam = rng.uniform(1.0, 2.0, k)
        lam[0] = 2.0
        lam[-1] = factor * DEFAULT_TOL.rank_tol * lam.max()
        pair, u, v = pair_and_hessian(rng, n, m, p, lam)
        q = pair.kernel.basis
        s = rng.standard_normal(m)
        x = v @ pair.min_norm_solution + q @ np.outer(u[:, -1], s)
        point = DualPoint(x, v)
        taken(counts)
        res = eval_support(point, pair)
        assert res.finite == finite
        assert taken(counts) == {"cholesky": 2, "eigvalsh": 1, branch: 1}
        assert in_domain(point, pair) == finite
        if finite:
            g = q.T @ (res.maximizer - pair.min_norm_solution)
            assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(s) / lam[-1], rel=1e-4)
