"""The null-space support solve checked against the paper's closed form.

``eval_support`` never builds the saddle matrix.  These tests build it with
``saddle_matrix`` and solve ``M(V) (Y; Z) = (X; B)`` by the reference
``helpers.sym_pinv``, the closed form ``1/2 tr((X; B)^T M(V)^+ (X; B))``,
and compare the value, the maximizer ``Y*`` and the multiplier ``Z*`` with
the null-space solve.
"""

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    DualPoint,
    eval_support,
    in_cone,
    in_domain,
)
from helpers import (
    interior_dual,
    projector,
    rand_pair,
    rand_sym,
    range_inclusion,
    saddle_matrix,
    sym_pinv,
)


def closed_form(point, pair):
    """Value, Y and Z from the pseudoinverse of the saddle matrix."""
    rhs = np.vstack([point.X, pair.B])
    sol = sym_pinv(saddle_matrix(point.V, pair), tol=pair.tol) @ rhs
    return 0.5 * float(np.tensordot(rhs, sol, 2)), sol[: pair.n], sol[pair.n :]


def closed_form_domain(point, pair):
    """The domain test stated on the saddle matrix."""
    rhs = np.vstack([point.X, pair.B])
    return in_cone(point.V, pair.kernel, tol=pair.tol) and range_inclusion(
        rhs, saddle_matrix(point.V, pair), tol=pair.tol
    )


def assert_matches_closed_form(point, pair):
    res = eval_support(point, pair)
    assert res.finite
    value, y, z = closed_form(point, pair)
    scale = max(1.0, np.linalg.norm(y), np.linalg.norm(z))
    assert res.value == pytest.approx(value, rel=1e-9, abs=1e-12 * scale**2)
    assert res.maximizer.shape == y.shape and res.multiplier.shape == z.shape
    assert np.linalg.norm(res.maximizer - y) <= 1e-8 * scale
    assert np.linalg.norm(res.multiplier - z) <= 1e-8 * scale


def test_random_pairs_match_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 2))  # p = n + 1 leaves ker A = {0}
        pair = rand_pair(rng, n, m, p)
        assert_matches_closed_form(interior_dual(rng, pair), pair)


def test_rank_deficient_pairs_match_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(2, n + 1))
        r = int(rng.integers(1, p))
        a = rng.standard_normal((p, r)) @ rng.standard_normal((r, n))
        pair = ConstraintPair(a, a @ rng.standard_normal((n, m)))
        assert pair.kernel.dim == n - r
        assert_matches_closed_form(interior_dual(rng, pair), pair)


def test_unconstrained_pairs_match_closed_form():
    rng = np.random.default_rng(33)
    for n in (1, 2, 5):
        pair = ConstraintPair(np.zeros((0, n)), np.zeros((0, 2)))
        point = interior_dual(rng, pair)
        assert_matches_closed_form(point, pair)
        assert eval_support(point, pair).multiplier.shape == (0, 2)


def test_zero_rows_and_zero_rhs_match_closed_form():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        a = rng.standard_normal((2, n))
        with_zero_rows = np.vstack([a[:1], np.zeros((1, n)), a[1:], np.zeros((1, n))])
        y = rng.standard_normal((n, m))
        for pair in (
            ConstraintPair(with_zero_rows, with_zero_rows @ y),
            ConstraintPair(np.zeros((2, n)), np.zeros((2, m))),
            ConstraintPair(a, np.zeros((2, m))),
        ):
            assert_matches_closed_form(interior_dual(rng, pair), pair)


def test_nonclosed_domain_matches_closed_form(pair_f2):
    for eta in (1.0, 1e-3, 1e-6):
        assert_matches_closed_form(DualPoint([[1.0]], [[eta]]), pair_f2)


def singular_hessian_point(rng, pair, coupled):
    """A domain point whose reduced Hessian ``H = Q^T V Q`` is singular.

    ``V`` is PSD of rank 1 on ``ker A``.  With ``coupled`` the null
    directions of ``H`` are mixed with ``rge A^T`` by ``V``, so that the
    saddle matrix has null vectors ``(Q g, z)`` with ``z != 0``.
    """
    q = pair.kernel.basis
    k = q.shape[1]
    d = np.zeros(k)
    d[0] = 2.0
    v = q @ np.diag(d) @ q.T
    if pair.p:
        comp = pair.A.T @ rng.standard_normal((pair.p, pair.p)) @ pair.A
        v = v + comp @ comp.T
        if coupled:
            c = pair.A.T @ rng.standard_normal((pair.p, k)) @ q.T
            v = v + c + c.T
    g = rng.standard_normal((k, pair.m))
    g[1:] = 0.0
    x = v @ pair.min_norm_solution + q @ (np.diag(d) @ g)
    if pair.p:
        x = x + pair.A.T @ rng.standard_normal((pair.p, pair.m))
    point = DualPoint(x, v)
    lam = np.abs(np.linalg.eigvalsh(q.T @ point.V @ q))
    assert np.sum(lam > pair.tol.rank_tol * lam.max()) == 1 < k
    return point


def test_singular_hessian_matches_closed_form():
    rng = np.random.default_rng(35)
    for n, p in ((4, 1), (6, 2), (3, 0)):
        a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
        pair = ConstraintPair(a, a @ rng.standard_normal((n, 2)))
        assert_matches_closed_form(singular_hessian_point(rng, pair, False), pair)


def test_singular_hessian_coupled_to_the_multiplier():
    # The maximizers form Y* + Q ker H.  The pseudoinverse picks the
    # minimum-norm (Y, Z) jointly, the null-space solve the minimum-norm Y;
    # both are KKT solutions with the closed-form value.
    rng = np.random.default_rng(36)
    for n, p in ((4, 1), (6, 2)):
        a = rng.standard_normal((p, n))
        pair = ConstraintPair(a, a @ rng.standard_normal((n, 2)))
        point = singular_hessian_point(rng, pair, True)
        res = eval_support(point, pair)
        value, y, z = closed_form(point, pair)
        assert res.finite
        assert res.value == pytest.approx(value, rel=1e-9)
        kkt = saddle_matrix(point.V, pair) @ np.vstack([res.maximizer, res.multiplier])
        rhs = np.vstack([point.X, pair.B])
        assert np.linalg.norm(kkt - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))
        q = pair.kernel.basis
        diff = q.T @ (res.maximizer - y)
        assert np.linalg.norm(q.T @ point.V @ q @ diff) <= 1e-9 * max(1.0, np.linalg.norm(y))
        assert np.linalg.norm(res.maximizer) <= np.linalg.norm(y) + 1e-12


def test_domain_decision_matches_closed_form():
    rng = np.random.default_rng(37)
    seen = set()
    for _ in range(120):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # indefinite on ker A for most draws
            point = DualPoint(rng.standard_normal((n, m)), rand_sym(rng, n))
        elif kind == 1:
            # V = 0: in the domain only when X is orthogonal to ker A
            x = rng.standard_normal((n, m))
            if rng.integers(0, 2):
                x = x - projector(pair.kernel) @ x
            point = DualPoint(x, np.zeros((n, n)))
        else:
            point = interior_dual(rng, pair)
        expected = closed_form_domain(point, pair)
        seen.add(expected)
        assert in_domain(point, pair) == expected
        assert eval_support(point, pair).finite == expected
    assert seen == {True, False}
