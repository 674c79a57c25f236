import math

import numpy as np
import pytest

from gmfrac import (
    DualPoint,
    PrimalPoint,
    SampleConfig,
    convexity_fuzz,
    eval_support,
    gauge_bisection,
    in_cone,
    in_hull,
    in_scaled_hull,
    sample_feasible,
    sample_polar,
    support_lower_bound,
)
from helpers import cone_member, interior_dual, rand_pair, rand_zero_pair


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(count=0)


def test_sample_feasible_unconstrained(pair_f0):
    ys = sample_feasible(pair_f0, SampleConfig(count=100, rng_seed=0))
    assert ys.shape == (100, 1, 1)
    assert np.std(ys) > 0.5  # genuinely random, not clamped


def test_sample_feasible_kernel_structure(pair_f1):
    ys = sample_feasible(pair_f1, SampleConfig(count=200, rng_seed=1))
    assert np.allclose(ys[:, 0, :], 0.0, atol=1e-12)


def test_sample_feasible_residuals():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, n + 1))
        pair = rand_pair(rng, n, m, p)
        ys = sample_feasible(pair, SampleConfig(count=100, rng_seed=3))
        bound = pair.tol.feas_tol * max(1.0, np.linalg.norm(pair.B))
        for y in ys:
            assert np.linalg.norm(pair.A @ y - pair.B) <= bound


def test_sample_feasible_deterministic(pair_fb):
    sc = SampleConfig(count=50, rng_seed=9, scale=2.0)
    assert np.array_equal(sample_feasible(pair_fb, sc), sample_feasible(pair_fb, sc))


def test_support_lower_bound_zero_dual(pair_f1):
    d = DualPoint(np.zeros((2, 1)), np.eye(2))
    bound = support_lower_bound(
        d, pair_f1, SampleConfig(count=2000, rng_seed=0), center=np.zeros((2, 1))
    )
    assert -1e-3 <= bound <= 1e-12


def test_support_lower_bound_approaches_value(pair_f1):
    d = DualPoint(np.array([[0.0], [1.0]]), np.eye(2))
    res = eval_support(d, pair_f1)
    bound = support_lower_bound(
        d, pair_f1, SampleConfig(count=2000, rng_seed=1), center=res.maximizer
    )
    assert bound <= 0.5 + 1e-9
    assert abs(bound - 0.5) <= 1e-3


def test_support_lower_bound_dominated():
    rng = np.random.default_rng(4)
    for trial in range(20):
        pair = rand_pair(rng, 4, 2, 2)
        d = interior_dual(rng, pair)
        res = eval_support(d, pair)
        bound = support_lower_bound(d, pair, SampleConfig(count=500, rng_seed=trial))
        assert bound <= res.value + 1e-9


def test_gauge_bisection_zero(pair_f1):
    pt = PrimalPoint(np.zeros((2, 1)), np.diag([0.0, -1.0]))
    assert gauge_bisection(pt, pair_f1, in_scaled_hull) == pytest.approx(0.0, abs=1e-12)


def test_gauge_bisection_scalar(pair_f0):
    pt = PrimalPoint(np.array([[1.0]]), np.array([[-1.0]]))
    assert abs(gauge_bisection(pt, pair_f0, in_scaled_hull) - 0.5) <= 1e-9


def test_gauge_bisection_infinite(pair_f0):
    pt = PrimalPoint(np.array([[1.0]]), np.array([[1.0]]))  # W outside the polar
    assert math.isinf(gauge_bisection(pt, pair_f0, in_scaled_hull))


def test_convexity_fuzz_hull_passes():
    rng = np.random.default_rng(5)
    pair = rand_zero_pair(rng, 3, 2, 1)

    def sampler(gen):
        k = pair.kernel.dim
        y = pair.kernel.basis @ gen.standard_normal((k, pair.m))
        t = sample_polar(pair.kernel, 2, gen)[0]
        return (y, -0.5 * (y @ y.T) + t)

    report = convexity_fuzz(
        lambda pt: in_hull(PrimalPoint(pt[0], pt[1]), pair),
        sampler,
        SampleConfig(count=1000, rng_seed=6),
    )
    assert report.passed
    assert report.trials == 1000


def test_convexity_fuzz_cone_passes():
    rng = np.random.default_rng(7)
    pair = rand_pair(rng, 4, 2, 2)

    report = convexity_fuzz(
        lambda pt: in_cone(pt[0], pair.kernel),
        lambda gen: (cone_member(gen, pair.kernel),),
        SampleConfig(count=1000, rng_seed=8),
    )
    assert report.passed


def test_convexity_fuzz_detects_nonconvexity(pair_f0):
    # the graph set itself is nonconvex; combinations leave it
    def sampler(gen):
        y = gen.standard_normal((1, 1))
        return (y, -0.5 * (y @ y.T))

    def graph_membership(pt):
        y, w = pt
        return abs(w[0, 0] + 0.5 * y[0, 0] ** 2) <= 1e-9

    report = convexity_fuzz(sampler=sampler, membership=graph_membership,
                            sc=SampleConfig(count=200, rng_seed=9))
    assert not report.passed
    assert report.failures > 100


def test_convexity_fuzz_deterministic(pair_f0):
    def sampler(gen):
        y = gen.standard_normal((1, 1))
        return (y, -0.5 * (y @ y.T) - abs(gen.standard_normal()) * np.eye(1))

    sc = SampleConfig(count=100, rng_seed=10)
    member = lambda pt: in_hull(PrimalPoint(pt[0], pt[1]), pair_f0)
    r1 = convexity_fuzz(member, sampler, sc)
    r2 = convexity_fuzz(member, sampler, sc)
    assert r1.failures == r2.failures == 0
    assert r1.failed_trials == r2.failed_trials


def _per_sample_draws(base, q, g):
    return [base + q @ gc for gc in g]


# (n, m, p): a kernel with m > 1, no constraints, and a full-rank square A (k = 0)
ORACLE_SHAPES = [(6, 3, 2), (4, 2, 0), (3, 2, 3)]


@pytest.mark.parametrize("n,m,p", ORACLE_SHAPES)
def test_sample_feasible_matches_per_sample_draws(n, m, p):
    rng = np.random.default_rng(14)
    pair = rand_pair(rng, n, m, p)
    sc = SampleConfig(count=40, rng_seed=15, scale=1.5)
    g = sc.scale * np.random.default_rng(sc.rng_seed).standard_normal((sc.count, pair.kernel.dim, m))
    ref = _per_sample_draws(pair.min_norm_solution, pair.kernel.basis, g)
    np.testing.assert_allclose(sample_feasible(pair, sc), np.stack(ref), rtol=0, atol=1e-14)


@pytest.mark.parametrize("with_center", [False, True])
@pytest.mark.parametrize("n,m,p", ORACLE_SHAPES)
def test_support_lower_bound_matches_per_sample_loop(n, m, p, with_center):
    rng = np.random.default_rng(16)
    pair = rand_pair(rng, n, m, p)
    dual = interior_dual(rng, pair)
    center = eval_support(dual, pair).maximizer if with_center else None
    sc = SampleConfig(count=301, rng_seed=17, scale=0.7)
    spread = 1e-2
    k, q = pair.kernel.dim, pair.kernel.basis
    draw = np.random.default_rng(sc.rng_seed)
    n_global = sc.count if center is None else sc.count - sc.count // 2
    ys = _per_sample_draws(pair.min_norm_solution, q, sc.scale * draw.standard_normal((n_global, k, m)))
    if center is not None:
        g2 = spread * sc.scale * draw.standard_normal((sc.count // 2, k, m))
        ys += _per_sample_draws(center, q, g2)
    assert len(ys) == sc.count
    ref = max(
        float(np.sum(dual.X * y)) - 0.5 * float(np.sum(dual.V * (y @ y.T))) for y in ys
    )
    bound = support_lower_bound(dual, pair, sc, center=center, center_spread=spread)
    assert bound == pytest.approx(ref, rel=1e-12, abs=0)
