"""The nuclear-norm identity of the matrix-fractional function.

With ``A = B = 0`` (Burke & Hoheisel, SIAM J. Optim. 2015; Burke, Gao &
Hoheisel, SIAM J. Optim. 2019)

    min_V  sigma(X, V) + 1/2 tr V  =  ||X||_*,

attained at the singular ``V* = (X X^T)^(1/2) = U S U^T`` for ``X = U S W^T``.
There ``sigma(X, V*) = 1/2 ||X||_*`` and the maximizer is ``Y* = U W^T``, the
nuclear norm's subgradient.  ``V*`` has rank ``m < n``, so its sign test
falls back to ``eigh`` and the support solve takes the pseudo-inverse from
the kept eigenpairs: these checks reach that branch of
``linalg._pinv_solve`` with an exact answer.

The draws are at scale 1.  The sign test is absolute (``lambda_min >=
-1e-9``), so at a large scale the rounding of ``V*``'s zero eigenvalues can
fall below it: with both ``X`` and ``V*`` scaled by ``2^20``, 1 of these
135 draws reads ``+inf``, and at ``2^30`` 108 of them do.  A
scale-consistent sign test would mend that.
"""

import numpy as np
import pytest

from gmfrac import ConstraintPair, DualPoint, eval_support
from helpers import taken

SHAPES = [(n, m) for n in range(3, 9) for m in range(1, n)]
DRAWS = 5


def nuclear_instance(rng, n, m, scale=1.0):
    """``(X, V*, U W^T, ||X||_*)`` for ``X = U S W^T`` of rank m, scaled."""
    u = np.linalg.qr(rng.standard_normal((n, m)))[0]
    w = np.linalg.qr(rng.standard_normal((m, m)))[0]
    s = scale * rng.uniform(0.5, 2.0, m)
    x = (u * s) @ w.T
    v_star = (u * s) @ u.T
    return x, v_star, u @ w.T, float(s.sum())


@pytest.mark.parametrize("n,m", SHAPES)
def test_support_at_the_optimal_v_is_half_the_nuclear_norm(n, m, counts):
    rng = np.random.default_rng(1000 * n + m)
    pair = ConstraintPair(np.zeros((0, n)), np.zeros((0, m)))
    for _ in range(DRAWS):
        x, v_star, subgrad, nuclear = nuclear_instance(rng, n, m)
        taken(counts)
        res = eval_support(DualPoint(x, v_star), pair)
        # V* is singular: the pseudo-inverse came from the kept eigenpairs
        got = taken(counts)
        assert got["eigh"] == 1 and "solve" not in got
        assert res.finite
        assert res.value == pytest.approx(0.5 * nuclear, rel=1e-12)
        assert np.allclose(res.maximizer, subgrad, rtol=0.0, atol=1e-10)
        for delta in (1e-3, 0.1, 1.0, 10.0):
            v = v_star + delta * np.eye(n)
            res = eval_support(DualPoint(x, v), pair)
            assert res.finite
            assert res.value + 0.5 * np.trace(v) >= nuclear * (1.0 - 1e-12)
