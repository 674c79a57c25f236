"""Residuals outside ``ker A`` read from the narrower basis.

``_split`` keeps the n-by-r basis ``U`` of ``rge A^T`` as the kernel
basis's complement exactly when ``r < k``.  Where it is stored, the aff
residual is ``||U^T W||_F`` and the polar support residual is
``hypot(||U^T W||_F, ||U^T W Q||_F)``; both equal the ``Q`` forms
``||W - Q Q^T W||_F`` and ``||W - Q C Q^T||_F`` because
``Q Q^T + U U^T = I``.  The tests here pin that identity to rounding, pin
every decision to the one the ``Q`` form gives on the same pair with the
complement dropped, and pin that the polar test forms no n-by-n matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

import gmfrac
from gmfrac import (
    ConstraintPair,
    PrimalPoint,
    SubspaceBasis,
    caratheodory_witness,
    eval_gauge,
    in_aff_polar,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_rint,
    in_polar_cone,
    in_rint_polar,
    kernel_basis,
    sample_polar,
)
from gmfrac.cones import _in_polar
from gmfrac.linalg import _norm, _outside
from helpers import feasible_matrix

EPS = np.finfo(float).eps
KINDS = ("p=0", "zero-rows", "rank-deficient", "narrow-range", "wide-range")


def make_pair(rng, kind, n, m, homogeneous):
    # narrow-range has r < k, wide-range r >= k; the others take either
    if kind == "p=0":
        a = np.zeros((0, n))
    else:
        r = {"narrow-range": (n - 1) // 2, "wide-range": n - n // 2}.get(kind)
        a = rng.standard_normal((r if r else int(rng.integers(1, n)), n))
        if kind == "zero-rows":
            a = np.vstack([a, np.zeros((2, n))])
        elif kind == "rank-deficient":
            a = np.vstack([a, a[:1] + a[-1:]])
    b = np.zeros((a.shape[0], m)) if homogeneous else a @ rng.standard_normal((n, m))
    return ConstraintPair(a, b)


def q_form(pair):
    """The same pair with the complement dropped, so every test reads ``Q``."""
    twin = ConstraintPair(pair.A, pair.B)
    twin.kernel = SubspaceBasis(pair.kernel.basis)
    return twin


def off_kernel(rng, W, kernel, delta):
    # W plus delta ||W||_F times a unit symmetric direction with no part on
    # ker A, as in test_nesting
    q = kernel.basis
    g = rng.standard_normal(W.shape)
    g = g + g.T
    e = g - q @ (q.T @ g @ q) @ q.T
    size = np.linalg.norm(e)
    if size == 0.0:
        # ker A is all of R^n: nothing lies off it
        return W
    return W + delta * max(np.linalg.norm(W), 1.0) / size * e


def decisions(pair, W, point, horizon):
    kernel = pair.kernel
    out = [
        in_polar_cone(W, kernel),
        in_rint_polar(W, kernel),
        in_aff_polar(W, kernel),
        in_hull(point, pair),
        in_hull_rint(point, pair),
        in_hull_aff(point, pair),
        in_hull_horizon(horizon, pair),
    ]
    try:
        caratheodory_witness(point, pair, 1e-3)
        out.append(True)
    except ValueError:
        out.append(False)
    if pair.homogeneous:
        out.append(eval_gauge(horizon, pair).finite)
        out.append(eval_gauge(point, pair).finite)
    return out


def draws(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        n, m = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        pair = make_pair(rng, kind, n, m, homogeneous=i % 2 == 0)
        k = pair.kernel.dim
        s = 2.0 ** int(rng.integers(-30, 31))
        # off-kernel noise log-uniform across _RANGE_TOL = 1e-9
        delta = 10.0 ** rng.uniform(-12.0, -7.0)
        W = off_kernel(rng, s * sample_polar(pair.kernel, int(rng.integers(1, k + 2)), rng)[0],
                       pair.kernel, delta)
        y = feasible_matrix(rng, pair)
        gap = s * sample_polar(pair.kernel, int(rng.integers(1, k + 2)), rng)[0]
        point = PrimalPoint(y, off_kernel(rng, -0.5 * (y @ y.T) + gap, pair.kernel, delta))
        horizon = PrimalPoint(np.zeros_like(y), W)
        yield kind, pair, W, point, horizon


def test_residual_forms_agree_to_rounding():
    seen = set()
    for kind, pair, W, _, _ in draws(400, 51):
        kernel = pair.kernel
        q, u = kernel.basis, kernel.complement
        if u is None:
            continue
        seen.add(kind)
        n = kernel.dim_ambient
        c = q.T @ W @ q
        c = 0.5 * (c + c.T)
        bound = 8 * n * EPS * _norm(W)
        support_q = _norm(W - q @ c @ q.T)
        support_u = math.hypot(_norm(u.T @ W), _norm(u.T @ W @ q))
        assert abs(support_u - support_q) <= bound, kind
        aff_q = _norm(W - q @ (q.T @ W))
        assert abs(_norm(_outside(W, kernel)) - aff_q) <= bound, kind
    assert seen == {"p=0", "zero-rows", "rank-deficient", "narrow-range"}


def test_decisions_equal_under_the_q_form():
    moved = []
    outcomes = set()
    for kind, pair, W, point, horizon in draws(600, 52):
        got = decisions(pair, W, point, horizon)
        want = decisions(q_form(pair), W, point, horizon)
        if got != want:
            moved.append((kind, got, want))
        outcomes.update(enumerate(got))
    assert moved == []
    # the noise puts every test on both sides of its threshold
    assert all((i, b) in outcomes for i in range(9) for b in (True, False))


@pytest.mark.parametrize("shape", [(5, 0), (5, 2), (5, 3), (6, 3), (6, 2), (7, 3), (4, 4), (3, 5)])
def test_complement_is_stored_exactly_when_narrower(shape):
    rng = np.random.default_rng(53)
    p, n = shape
    for a in (rng.standard_normal((p, n)), np.zeros((p, n))):
        for kernel in (kernel_basis(a), ConstraintPair(a, np.zeros((p, 1))).kernel):
            k = kernel.dim
            r = n - k
            u = kernel.complement
            assert (u is None) == (r >= k)
            if u is None:
                continue
            assert u.shape == (n, r)
            assert np.allclose(u.T @ u, np.eye(r), atol=1e-12)
            assert np.allclose(kernel.basis.T @ u, 0.0, atol=1e-12)
    assert SubspaceBasis(np.eye(3)).complement is None


def test_polar_support_residual_forms_no_n_by_n_matrix(monkeypatch):
    # r = 39 < k = 41: once the sign test has passed, the support residual
    # allocates the r-by-n U^T W and the r-by-k U^T W Q, less than one
    # n-by-n buffer together; the Q form allocates two
    rng = np.random.default_rng(54)
    n, p = 80, 39
    a = rng.standard_normal((p, n))
    pair = ConstraintPair(a, np.zeros((p, 1)))
    q = pair.kernel.basis
    assert pair.kernel.complement.shape == (n, p)
    g = rng.standard_normal((n - p, n - p))
    gap = -q @ (g @ g.T + np.eye(n - p)) @ q.T
    gap = 0.5 * (gap + gap.T)
    signed = []
    sign_test = gmfrac.cones._psd

    def then_measure(h, strict=False):
        ok = sign_test(h, strict)
        signed.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return ok

    monkeypatch.setattr(gmfrac.cones, "_psd", then_measure)
    tracemalloc.start()
    try:
        assert _in_polar(gap, pair.kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(signed) == 1
    assert peak - signed[0] < n * n * 8
