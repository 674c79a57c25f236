"""The two branches of the reduced support solve.

``eval_support`` and ``in_domain`` take the sign test and the rank cutoff
of the reduced Hessian ``H = Q^T V Q`` from the rule ``in_cone`` uses: a
Cholesky certificate away from the thresholds, and ``eigh`` inside its
rounding band.  They solve ``H G = R`` by one LU factorization where the
certificate proves that the rank cutoff keeps every eigenvalue; inside the
band the kept eigenpairs of that one ``eigh`` give ``H^+ R``, with a
negative eigenvalue that passed the sign test counted as zero.
These tests place ``H``'s smallest eigenvalue at the two thresholds that
choose the branch, ``-_PSD_TOL`` and ``_RANK_TOL * max|lambda|``, and check
the LU branch on ill-conditioned ``H`` against a 50-digit solve of the KKT
system.
"""

import mpmath
import numpy as np
import pytest

from gmfrac import ConstraintPair, DualPoint, eval_support, in_cone, in_domain
from gmfrac.linalg import _PSD_TOL, _RANK_TOL, _compress, _kept, _small
from helpers import taken

EPS = np.finfo(float).eps


def pair_and_hessian(rng, n, m, p, lam):
    """A random full-row-rank pair and ``V = Q U diag(lam) U^T Q^T``."""
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    pair = ConstraintPair(a, a @ rng.standard_normal((n, m)))
    q = pair.kernel.basis
    u, _ = np.linalg.qr(rng.standard_normal((q.shape[1], q.shape[1])))
    return pair, u, q @ ((u * lam) @ u.T) @ q.T


def predicted_domain(point, pair):
    """The documented domain rule, read from ``eigh(H)``: ``lambda_min(H) >=
    -_PSD_TOL``, and ``R`` inside the span of the eigenvectors whose
    eigenvalues, the negative ones counted as zero, pass the rank cutoff."""
    q = pair.kernel.basis
    w, u = np.linalg.eigh(_compress(point.V, pair.kernel))
    if w[0] < -_PSD_TOL:
        return False
    uk = u[:, _kept(np.maximum(w, 0.0))]
    r = q.T @ (point.X - point.V @ pair.min_norm_solution)
    return _small(r - uk @ (uk.T @ r), r)


def test_domain_sign_decision_is_in_cone():
    # lambda_min(H) within a few ulps of -_PSD_TOL, and X in range: eigh
    # rounds such a spectrum to either side of the threshold, and the sign
    # test of the domain must take each toss as in_cone does.  A negative
    # lambda_min that passes counts as zero, so R's part along its
    # eigenvector, about _PSD_TOL times the draw, decides the range test
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(0, n - 1))
        k = n - p
        lam = rng.uniform(0.1, 1.0, k)
        lam[0] = -_PSD_TOL + int(rng.integers(-4, 5)) * EPS
        singular = k > 1 and rng.integers(0, 3) == 0
        if singular:
            lam[1] = 0.0
        pair, u, v = pair_and_hessian(rng, n, m, p, lam)
        q = pair.kernel.basis
        x = v @ pair.min_norm_solution + q @ (u * lam) @ u.T @ rng.standard_normal((k, m))
        if p:
            x = x + pair.A.T @ rng.standard_normal((p, m))
        point = DualPoint(x, v)
        cone = in_cone(point.V, pair.kernel)
        domain = in_domain(point, pair)
        assert eval_support(point, pair).finite == domain
        assert cone or not domain
        assert domain == predicted_domain(point, pair)
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
    # _RANK_TOL * max|lambda|: kept, R lies in the kept eigenspace and
    # G = H^+ R is finite; cut, R lies outside it and the value is +inf.
    # Neither Cholesky certificate decides, and one eigh decides both
    rng = np.random.default_rng(43)
    k = n - p
    for factor, finite in ((1.001, True), (0.999, False)):
        lam = rng.uniform(1.0, 2.0, k)
        lam[0] = 2.0
        lam[-1] = factor * _RANK_TOL * lam.max()
        pair, u, v = pair_and_hessian(rng, n, m, p, lam)
        q = pair.kernel.basis
        s = rng.standard_normal(m)
        x = v @ pair.min_norm_solution + q @ np.outer(u[:, -1], s)
        point = DualPoint(x, v)
        taken(counts)
        res = eval_support(point, pair)
        assert res.finite == finite
        assert taken(counts) == {"cholesky": 2, "eigh": 1}
        assert in_domain(point, pair) == finite
        if finite:
            g = q.T @ (res.maximizer - pair.min_norm_solution)
            assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(s) / lam[-1], rel=1e-4)


@pytest.mark.parametrize(
    "diagonal, x",
    [
        pytest.param([1.0, 0.0, -5e-10], [0.0, 1.0, 0.0], id="1"),
        pytest.param([1.0, 0.0, -5e-10], [0.0, 0.0, 1.0], id="2"),
        pytest.param([1.0, -5e-10], [1.0, 1.0], id="nonsingular"),
    ],
)
def test_singular_branch_counts_a_passed_negative_eigenvalue_as_zero(diagonal, x):
    # p = 0 and V = diag(1, 0, -5e-10), X = e2 or e3, or V = diag(1, -5e-10)
    # and X = (1, 1): the sign test passes within _PSD_TOL and counts -5e-10
    # as zero, like the 0, so X lies outside the kept range and the value is
    # +inf.  A rank cutoff on |eigenvalue| kept -5e-10: at X = e3 it answered
    # -1e9, and on the 2-by-2 V, which it called nonsingular, -999999999.5,
    # both below the value 0 of the feasible Y = 0
    n = len(diagonal)
    pair = ConstraintPair(np.zeros((0, n)), np.zeros((0, 1)))
    point = DualPoint(np.array(x).reshape(n, 1), np.diag(diagonal))
    assert in_cone(point.V, pair.kernel)
    assert eval_support(point, pair).finite is False
    assert in_domain(point, pair) is False
