import math

import mpmath
import numpy as np
import pytest

import gmfrac
from gmfrac import (
    ConstraintPair,
    DualPoint,
    PreconditionError,
    PrimalPoint,
    eval_gauge,
    eval_polar_gauge,
    eval_support,
    gauge_bisection,
    graph_point,
    in_hull,
    in_polar_cone,
    in_scaled_hull,
    pairing,
    sample_polar,
    symmetrize,
)
from gmfrac.linalg import _eig_kept, _psd_kept
from helpers import gauge_instance, rand_zero_pair, scaled_point, taken

EPS = np.finfo(float).eps


def primal(y, w):
    return PrimalPoint(np.asarray(y, float).reshape(-1, 1), w)


def finite_gauge_point(rng, pair, y_scale=1.0):
    """Random (Y, W) with rge Y inside ker A = rge W and W in the polar cone."""
    k = pair.kernel.dim
    q = pair.kernel.basis
    y = y_scale * (q @ rng.standard_normal((k, pair.m)))
    r = rng.standard_normal((k, k))
    w = -q @ (r @ r.T + 0.1 * np.eye(k)) @ q.T - 0.2 * (y @ y.T)
    return PrimalPoint(y, 0.5 * (w + w.T))


def test_scaled_membership_examples(pair_f0, pair_f1):
    w = np.diag([0.0, -2.0])
    for t in (0.5, 1.0, 7.0):
        assert in_scaled_hull(primal([0.0, 0.0], w), t, pair_f1)
    pt = primal([1.0], [[-1.0]])
    assert in_scaled_hull(pt, 0.5, pair_f0)
    assert not in_scaled_hull(pt, 0.25, pair_f0)


def test_scaled_membership_argument_errors(pair_fb, pair_f0):
    pt = primal([1.0], [[-1.0]])
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            in_scaled_hull(pt, t, pair_f0)
    with pytest.raises(PreconditionError):
        in_scaled_hull(primal([0.0, 0.0], np.zeros((2, 2))), 1.0, pair_fb)


def test_scaled_membership_monotone_in_t():
    rng = np.random.default_rng(0)
    pair = rand_zero_pair(rng, 3, 2, 1)
    for _ in range(100):
        pt = finite_gauge_point(rng, pair)
        t0 = rng.uniform(0.1, 5.0)
        if in_scaled_hull(pt, t0, pair):
            assert in_scaled_hull(pt, 2 * t0, pair)


def test_unit_scaled_hull_is_the_hull():
    # in_scaled_hull tests A Y = B by the hull's own feasibility test, so at
    # t = 1 it answers as in_hull: on B = 0 pairs, with points off ker A, off
    # the polar cone and on both, and on a pair with 0 < ||B||_F <= _RANGE_TOL,
    # where A Y = B and A Y = 0 part at Y = (c, 1) for c between 1e-9 and
    # 1.5e-9 or between -1e-9 and -5e-10
    rng = np.random.default_rng(31)
    cases = list(_gauge_cases(rng))
    tiny = ConstraintPair([[1.0, 0.0]], [[5e-10]])
    assert tiny.homogeneous
    for c in (1.2e-9, -8e-10, 5e-10, 0.0, 3e-9):
        y = np.array([[c], [1.0]])
        # the gap 1/2 Y Y^T + W = -e2 e2^T lies in the polar cone of ker A
        cases.append((tiny, PrimalPoint(y, -0.5 * (y @ y.T) - np.diag([0.0, 1.0]))))
    seen = set()
    for pair, pt in cases:
        member = in_hull(pt, pair)
        assert in_scaled_hull(pt, 1.0, pair) == member
        seen.add(member)
    assert seen == {True, False}


def test_gauge_zero_point(pair_f1):
    inside = primal([0.0, 0.0], np.diag([0.0, -3.0]))
    res = eval_gauge(inside, pair_f1)
    assert res.finite and res.value == 0.0
    assert res.sigma_min is None
    outside = primal([0.0, 0.0], np.diag([0.0, 3.0]))
    assert not eval_gauge(outside, pair_f1).finite


def test_gauge_scalar_case(pair_f0):
    res = eval_gauge(primal([1.0], [[-1.0]]), pair_f0)
    assert res.finite
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(res.critical_matrix, [[1.0]])
    assert res.sigma_min == pytest.approx(1.0)


def test_gauge_f1_example(pair_f1):
    pt = primal([0.0, 2.0], np.diag([0.0, -2.0]))
    res = eval_gauge(pt, pair_f1)
    assert res.finite and res.value == pytest.approx(1.0, abs=1e-12)
    assert res.sigma_min == pytest.approx(0.5)
    # bisection oracle brackets the same threshold
    ref = gauge_bisection(pt, pair_f1, in_scaled_hull)
    assert abs(res.value - ref) <= 1e-6


def test_gauge_domain_rejections(pair_f1):
    # rge Y not inside ker A
    assert not eval_gauge(primal([1.0, 0.0], np.diag([0.0, -1.0])), pair_f1).finite
    # rge Y not inside rge W
    assert not eval_gauge(primal([0.0, 1.0], np.zeros((2, 2))), pair_f1).finite
    # W outside the polar cone
    assert not eval_gauge(primal([0.0, 1.0], np.diag([0.0, 1.0])), pair_f1).finite


def test_polar_gauge_examples(pair_f0, pair_f1):
    assert eval_polar_gauge(DualPoint(np.zeros((2, 1)), np.eye(2)), pair_f1) == pytest.approx(0.0, abs=1e-12)
    x, v = 1.0, 0.5
    assert eval_polar_gauge(DualPoint([[x]], [[v]]), pair_f0) == pytest.approx(x * x / (2 * v))
    assert math.isinf(eval_polar_gauge(DualPoint([[1.0]], [[0.0]]), pair_f0))


def test_polar_gauge_requires_homogeneous(pair_fb):
    with pytest.raises(PreconditionError):
        eval_polar_gauge(DualPoint(np.zeros((2, 1)), np.eye(2)), pair_fb)


def test_gauge_matches_bisection():
    rng = np.random.default_rng(1)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n - 1))
        pair = rand_zero_pair(rng, n, m, p)
        pt = finite_gauge_point(rng, pair)
        res = eval_gauge(pt, pair)
        assert res.finite
        ref = gauge_bisection(pt, pair, in_scaled_hull)
        assert abs(res.value - ref) <= 1e-6 * max(1.0, res.value)


def test_gauge_positive_homogeneity():
    rng = np.random.default_rng(2)
    pair = rand_zero_pair(rng, 4, 2, 1)
    for _ in range(50):
        pt = finite_gauge_point(rng, pair)
        base = eval_gauge(pt, pair)
        for t in (0.5, 2.0):
            scaled = eval_gauge(scaled_point(pt, t), pair)
            assert scaled.finite
            assert scaled.value == pytest.approx(t * base.value, rel=1e-8)


def test_gauge_support_pairing_inequality():
    rng = np.random.default_rng(3)
    pair = rand_zero_pair(rng, 3, 2, 1)
    for _ in range(100):
        pt = finite_gauge_point(rng, pair)
        gamma = eval_gauge(pt, pair).value
        x = rng.standard_normal((pair.n, pair.m))
        g = rng.standard_normal((pair.n, pair.n))
        d = DualPoint(x, g @ g.T + 0.5 * np.eye(pair.n))
        sigma = eval_support(d, pair).value
        scale = max(1.0, gamma * sigma)
        assert pairing(d, pt) <= gamma * sigma + 1e-8 * scale


def test_gauge_definition_consistency():
    rng = np.random.default_rng(4)
    pair = rand_zero_pair(rng, 3, 2, 1)
    for _ in range(50):
        pt = finite_gauge_point(rng, pair)
        value = eval_gauge(pt, pair).value
        for factor in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            t = factor * value
            assert (value <= t) == in_scaled_hull(pt, t + 1e-9, pair)


def test_gauge_zero_iff_polar_membership():
    rng = np.random.default_rng(5)
    pair = rand_zero_pair(rng, 3, 2, 1)
    zero_y = np.zeros((pair.n, pair.m))
    for _ in range(100):
        w = sample_polar(pair.kernel, 2, rng)[0]
        res = eval_gauge(PrimalPoint(zero_y, w), pair)
        assert res.finite and res.value == 0.0
        bad = w + 0.5 * np.eye(pair.n)
        assert not in_polar_cone(bad, pair.kernel)
        assert not eval_gauge(PrimalPoint(zero_y, bad), pair).finite


# With p = 0 and Y = e2, -W has the eigenvalue -w22 along e2.  At
# w22 = 5e-10 it passes the sign test within _PSD_TOL and counts as zero, as
# at w22 = 0: rge Y is outside rge W, and the gauge is +inf at both.  A rank
# cutoff on |eigenvalue| kept it and answered a finite 0.0.
@pytest.mark.parametrize("w22", [0.0, 5e-10])
def test_gauge_counts_a_passed_negative_eigenvalue_as_zero(w22):
    pair = ConstraintPair(np.zeros((0, 2)), np.zeros((0, 1)))
    point = primal([0.0, 1.0], np.diag([-1.0, w22]))
    assert not eval_gauge(point, pair).finite
    assert not in_hull(point, pair)
    assert not any(in_scaled_hull(point, t, pair) for t in (1.0, 1e3, 1e9))


# Noise of 1e-9 outside ker A tilts the eigenvectors of the n-by-n -W off
# ker A; a gauge read from that eigh answered +inf on each of these instances.
@pytest.mark.parametrize(
    "n, m, p, seed",
    [(4, 3, 2, 13), (12, 2, 4, 6), (12, 2, 4, 8), (30, 2, 10, 0), (30, 2, 10, 5)],
)
def test_gauge_ignores_noise_outside_the_kernel(n, m, p, seed):
    rng = np.random.default_rng(seed)
    pair, y, w0 = gauge_instance(rng, n, m, p)
    w = w0 + 1e-9 * rng.standard_normal((n, n))
    assert in_polar_cone(symmetrize(w), pair.kernel)
    exact = eval_gauge(PrimalPoint(y, w0), pair)
    noisy = eval_gauge(PrimalPoint(y, w), pair)
    assert noisy.finite
    assert abs(noisy.value - exact.value) <= 1e-6 * exact.value


def _gauge_cases(rng):
    """Random B = 0 pairs with points in and out of the gauge's domain.

    The pairs include p = 0, zero rows of ``A`` and a full-rank square ``A``
    (k = 0).  The points are a generic ``(Y, W)`` of the domain, the same
    with rank-one ``Y`` and with ``Y = 0``, then ``Y`` off ``ker A`` and
    ``W`` off the polar cone.
    """
    for trial in range(240):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        kind = trial % 4
        if kind == 1:
            p = int(rng.integers(1, 3))
            pair = ConstraintPair(np.zeros((p, n)), np.zeros((p, m)))
        else:
            p = {0: 0, 2: n}.get(kind, int(rng.integers(0, n)))
            pair = rand_zero_pair(rng, n, m, p)
        pt = finite_gauge_point(rng, pair)
        yield pair, pt
        yield pair, PrimalPoint(pt.Y[:, :1].repeat(m, axis=1), pt.W)
        yield pair, PrimalPoint(np.zeros_like(pt.Y), pt.W)
        yield pair, PrimalPoint(pt.Y + rng.standard_normal(pt.Y.shape), pt.W)
        yield pair, PrimalPoint(pt.Y, pt.W + np.eye(n))


def test_gauge_solve_and_eigen_paths_agree(monkeypatch):
    # the same gauge through Q (-C)^-1 Q^T and, with the certificate
    # switched off, through the kept eigenpairs of -C
    rng = np.random.default_rng(17)
    cases = list(_gauge_cases(rng))
    certified = []
    original = gmfrac.cones._psd_kept

    def recorded(h):
        certified.append(original(h))
        return certified[-1]

    monkeypatch.setattr(gmfrac.cones, "_psd_kept", recorded)
    by_solve = [eval_gauge(pt, pair) for pair, pt in cases]
    monkeypatch.setattr(
        gmfrac.cones, "_psd_kept", lambda h: (original(h)[0], _eig_kept(h))
    )
    by_eigen = [eval_gauge(pt, pair) for pair, pt in cases]
    # every W here that passes the sign test has a -C certified nonsingular
    passed = [kept is None for psd, kept in certified if psd]
    assert passed and all(passed)
    assert sum(res.finite for res in by_solve) >= len(cases) // 3
    for fast, ref in zip(by_solve, by_eigen):
        assert fast.finite == ref.finite
        if not fast.finite:
            continue
        assert fast.value == pytest.approx(ref.value, rel=1e-10, abs=1e-300)
        if ref.sigma_min is None:
            assert fast.sigma_min is None and fast.value == 0.0
            continue
        assert fast.sigma_min == pytest.approx(ref.sigma_min, rel=1e-10)
        scale = np.abs(ref.critical_matrix).max()
        assert np.allclose(fast.critical_matrix, ref.critical_matrix, rtol=0.0, atol=1e-10 * scale)


def test_gauge_on_ill_conditioned_w_matches_mpmath():
    # p = 0, so Q = I and -C = -W exactly: the gauge of the float input is
    # 1/2 lambda_max(Y^T (-W)^-1 Y), here in 60 digits.  -W has condition
    # number about 1e8 and Y leans on its smallest eigenvalues; the solve's
    # error is within a small multiple of cond * eps (about 0.1 here)
    rng = np.random.default_rng(29)
    n, m = 6, 2
    pair = ConstraintPair(np.zeros((0, n)), np.zeros((0, m)))
    for _ in range(10):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.logspace(-8, 0, n)
        y = u[:, :3] @ rng.standard_normal((3, m)) + 1e-3 * rng.standard_normal((n, m))
        point = PrimalPoint(y, -(u * lam) @ u.T)
        assert _psd_kept(-point.W) == (True, None)
        res = eval_gauge(point, pair)
        assert res.finite
        with mpmath.workdps(60):
            ym = mpmath.matrix(point.Y.tolist())
            reduced = ym.T * mpmath.inverse(mpmath.matrix((-point.W).tolist())) * ym
            exact = float(max(mpmath.eigsy((reduced + reduced.T) / 2, eigvals_only=True)) / 2)
        cond = lam[-1] / lam[0]
        assert abs(res.value - exact) <= 10 * cond * EPS * exact


GRAPH_SHAPES = [
    (n, m, p) for n in range(3, 9) for p in range(0, n - 1) for m in range(1, n - p)
]


@pytest.mark.parametrize("n,m,p", GRAPH_SHAPES)
def test_gauge_of_a_graph_point_is_one(n, m, p, counts):
    # (Y, -1/2 Y Y^T) with Y in ker A lies on the graph set, so its gauge is
    # 1.  With m < k, -C = 1/2 Q^T Y Y^T Q is singular: the sign test falls
    # back to eigh and (-C)^+ comes from the kept eigenpairs.  Y moved by
    # 1e-6 ||Y|| along a direction in ker A orthogonal to rge Y stays in
    # ker A but leaves rge W, and the range test on those eigenpairs must
    # read +inf
    rng = np.random.default_rng(100 * n + 10 * m + p)
    pair = rand_zero_pair(rng, n, m, p)
    q = pair.kernel.basis
    for _ in range(3):
        y = q @ rng.standard_normal((q.shape[1], m))
        point = graph_point(y)
        taken(counts)
        res = eval_gauge(point, pair)
        got = taken(counts)
        assert got["eigh"] == 2 and "solve" not in got
        assert res.finite and res.value == pytest.approx(1.0, abs=1e-10)
        d = q @ rng.standard_normal(q.shape[1])
        d -= y @ np.linalg.lstsq(y, d, rcond=None)[0]
        d /= np.linalg.norm(d)
        c = rng.standard_normal(m)
        off = y + 1e-6 * np.linalg.norm(y) * np.outer(d, c / np.linalg.norm(c))
        assert not eval_gauge(PrimalPoint(off, point.W), pair).finite
