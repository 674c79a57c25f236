"""Shared random-instance generators for the test suite."""

import numpy as np

from gmfrac import ConstraintPair, DualPoint, PrimalPoint, sample_polar


def rand_sym(rng, n, scale=1.0):
    g = scale * rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def rand_pair(rng, n, m, p, tol=None):
    """A feasible random pair: B is constructed inside rge A."""
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    b = a @ rng.standard_normal((n, m)) if p else np.zeros((0, m))
    if tol is None:
        return ConstraintPair(a, b)
    return ConstraintPair(a, b, tol=tol)


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
    return v + shift * subspace.projector


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
    t = sample_polar(pair.kernel, generators, rng, tol=pair.tol)[0]
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
