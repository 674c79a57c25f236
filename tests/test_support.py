import dataclasses

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    DualPoint,
    InfeasiblePairError,
    PrimalPoint,
    SampleConfig,
    eval_support,
    in_domain,
    in_hull,
    sample_feasible,
    support_lower_bound,
)
from gmfrac.linalg import _RANGE_TOL
from helpers import (
    hull_member,
    interior_dual,
    projector,
    rand_pair,
    saddle_matrix,
    scaled_point,
)


def dual(x, v):
    return DualPoint(np.atleast_2d(np.asarray(x, float)).reshape(-1, 1) if np.ndim(x) <= 1 else x, v)


def test_pair_rejects_infeasible_rhs():
    with pytest.raises(InfeasiblePairError):
        ConstraintPair([[0.0]], [[1.0]])


def test_pair_accepts_unconstrained():
    pair = ConstraintPair(np.zeros((0, 3)), np.zeros((0, 2)))
    assert pair.p == 0 and pair.n == 3 and pair.m == 2
    assert pair.kernel.dim == 3
    assert np.array_equal(pair.min_norm_solution, np.zeros((3, 2)))


def test_pair_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        ConstraintPair(np.zeros((1, 2)), np.zeros((2, 1)))


def test_min_norm_solution_is_feasible_and_minimal(pair_fb):
    y0 = pair_fb.min_norm_solution
    assert np.allclose(pair_fb.A @ y0, pair_fb.B)
    # minimum-norm solution has no kernel component
    assert np.allclose(projector(pair_fb.kernel) @ y0, 0.0, atol=1e-12)


def test_saddle_matrix_zero_row(pair_f2):
    m = saddle_matrix(np.array([[3.0]]), pair_f2)
    assert np.allclose(m, [[3.0, 0.0], [0.0, 0.0]])


def test_saddle_matrix_f1(pair_f1):
    m = saddle_matrix(np.eye(2), pair_f1)
    assert np.allclose(m, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_saddle_matrix_unconstrained(pair_f0):
    v = np.array([[2.0]])
    assert np.allclose(saddle_matrix(v, pair_f0), v)


def test_in_domain_zero_dual(pair_f1):
    assert in_domain(dual(np.zeros(2), np.eye(2)), pair_f1)
    assert in_domain(dual(np.zeros(2), np.diag([-1.0, 1.0])), pair_f1)


def test_in_domain_nonclosed(pair_f2):
    assert in_domain(dual([1.0], [[1e-6]]), pair_f2)
    assert not in_domain(dual([1.0], [[0.0]]), pair_f2)


def test_in_domain_invertible_saddle(pair_f1):
    v = np.eye(2)
    assert np.linalg.matrix_rank(saddle_matrix(v, pair_f1)) == 3
    assert in_domain(dual([3.0, 5.0], v), pair_f1)


def test_eval_support_zero_dual(pair_f1):
    res = eval_support(dual(np.zeros(2), np.eye(2)), pair_f1)
    assert res.finite and res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(pair_f1.A @ res.maximizer, 0.0)


def test_eval_support_f1_closed_form(pair_f1):
    for x1, x2 in [(0.0, 1.0), (3.0, -2.0), (1.5, 0.25)]:
        res = eval_support(dual([x1, x2], np.eye(2)), pair_f1)
        # KKT oracle: solve the 3x3 saddle system directly
        m = saddle_matrix(np.eye(2), pair_f1)
        sol = np.linalg.solve(m, np.array([x1, x2, 0.0]))
        assert res.finite
        assert res.value == pytest.approx(0.5 * x2 * x2, rel=1e-12, abs=1e-12)
        assert np.allclose(res.maximizer.ravel(), sol[:2])
        assert np.allclose(res.maximizer.ravel(), [0.0, x2])
        assert np.allclose(res.multiplier.ravel(), [x1])


def test_eval_support_scalar_fraction(pair_f2):
    # 1-D calculus oracle: max of x y - v y^2 / 2 is x^2 / (2 v)
    for x, v in [(1.0, 2.0), (-3.0, 0.5), (2.0, 1e-3)]:
        res = eval_support(dual([x], [[v]]), pair_f2)
        assert res.finite
        assert res.value == pytest.approx(x * x / (2.0 * v), rel=1e-9)


def test_eval_support_out_of_domain_flag(pair_f2):
    res = eval_support(dual([1.0], [[0.0]]), pair_f2)
    assert not res.finite
    assert res.value is None and res.maximizer is None


def test_support_result_certificates():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        pt = interior_dual(rng, pair)
        res = eval_support(pt, pair)
        assert res.finite
        sm = saddle_matrix(pt.V, pair)
        sol = np.vstack([res.maximizer, res.multiplier])
        rhs = np.vstack([pt.X, pair.B])
        assert np.linalg.norm(sm @ sol - rhs) <= _RANGE_TOL * max(
            1.0, np.linalg.norm(rhs)
        )
        assert np.linalg.norm(pair.A @ res.maximizer - pair.B) <= 1e-9 * max(
            1.0, np.linalg.norm(pair.B)
        )
        # value = (<X, Y*> + <B, Z*>) / 2
        half_pairing = 0.5 * (
            np.tensordot(pt.X, res.maximizer, 2) + np.tensordot(pair.B, res.multiplier, 2)
        )
        assert res.value == pytest.approx(half_pairing, rel=1e-9, abs=1e-12)


def test_oracle_dominance_and_attainment():
    rng = np.random.default_rng(13)
    for trial in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        pt = interior_dual(rng, pair)
        res = eval_support(pt, pair)
        assert res.finite
        scale = max(1.0, abs(res.value))
        bound = support_lower_bound(
            pt, pair, SampleConfig(count=2000, rng_seed=trial), center=res.maximizer
        )
        assert res.value >= bound - 1e-9 * scale
        # equality attained at Y* within 1e-8 * scale
        y = res.maximizer
        attained = np.tensordot(pt.X, y, 2) - 0.5 * np.tensordot(pt.V, y @ y.T, 2)
        assert abs(res.value - attained) <= 1e-8 * scale


def test_positive_homogeneity_homogeneous_case():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 1))
        a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
        pair = ConstraintPair(a, np.zeros((p, m)))
        pt = interior_dual(rng, pair)
        base = eval_support(pt, pair)
        for t in (0.5, 3.0):
            scaled = eval_support(scaled_point(pt, t), pair)
            assert scaled.finite
            assert scaled.value == pytest.approx(t * base.value, rel=1e-9, abs=1e-12)


def test_recomputation_stability(pair_f1):
    pt = dual([0.3, -1.2], np.array([[2.0, 0.3], [0.3, 1.0]]))
    r1 = eval_support(pt, pair_f1)
    r2 = eval_support(pt, pair_f1)
    assert r1.value == r2.value
    assert np.array_equal(r1.maximizer, r2.maximizer)
    assert np.array_equal(r1.multiplier, r2.multiplier)


def test_domain_monotonicity_regression(pair_f2):
    # the domain is not closed: (X, eta I) enters for every eta > 0 but not at 0
    x = [1.0]
    for eta in (1.0, 1e-3, 1e-6):
        assert in_domain(dual(x, [[eta]]), pair_f2)
    assert not in_domain(dual(x, [[0.0]]), pair_f2)


def test_sampled_feasible_points_bound_the_support(pair_f1):
    pt = dual([0.0, 1.0], np.eye(2))
    res = eval_support(pt, pair_f1)
    ys = sample_feasible(pair_f1, SampleConfig(count=2000, rng_seed=0))
    vals = [
        np.tensordot(pt.X, y, 2) - 0.5 * np.tensordot(pt.V, y @ y.T, 2) for y in ys
    ]
    assert max(vals) <= res.value + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dual_point_rejects_non_finite(bad):
    x = np.ones((2, 1))
    x[1, 0] = bad
    with pytest.raises(ValueError):
        DualPoint(x, np.eye(2))
    v = np.eye(2)
    v[0, 1] = bad
    with pytest.raises(ValueError):
        DualPoint(np.ones((2, 1)), v)


def test_pair_keeps_read_only_copies_of_a_and_b():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 5))
    b = a @ rng.standard_normal((5, 2))
    pair = ConstraintPair(a, b)
    a0, b0 = a.copy(), b.copy()
    dual = interior_dual(rng, pair)
    primal = hull_member(rng, pair)
    before = eval_support(dual, pair)
    assert in_hull(primal, pair)
    a[:] = rng.standard_normal(a.shape)
    b[:] = 0.0
    np.testing.assert_array_equal(pair.A, a0)
    np.testing.assert_array_equal(pair.B, b0)
    after = eval_support(dual, pair)
    assert after.value == before.value
    np.testing.assert_array_equal(after.multiplier, before.multiplier)
    assert in_hull(primal, pair)
    with pytest.raises(ValueError):
        pair.A[0, 0] = 1.0
    with pytest.raises(ValueError):
        pair.B[0, 0] = 1.0


@pytest.mark.parametrize("n, m, p", [(2, 4, 1), (5, 2, 0), (6, 2, 4)])
def test_pair_cached_arrays_are_read_only(n, m, p):
    # an in-place write to a cached array would rewrite the pair: a later
    # support value would move and Y0 would leave {A Y = B}
    rng = np.random.default_rng(10)
    pair = rand_pair(rng, n, m, p)
    y0 = pair.min_norm_solution.copy()
    for cached in (pair.min_norm_solution, pair._range_factor):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached += 1.0
    np.testing.assert_array_equal(pair.min_norm_solution, y0)


def test_points_keep_read_only_copies():
    rng = np.random.default_rng(9)
    pair = rand_pair(rng, 5, 2, 2)
    d0 = interior_dual(rng, pair)
    h0 = hull_member(rng, pair)
    x, v, y, w = (np.array(a) for a in (d0.X, d0.V, h0.Y, h0.W))
    dual, primal = DualPoint(x, v), PrimalPoint(y, w)
    before = eval_support(dual, pair)
    assert in_hull(primal, pair)
    for a in (x, v, y, w):
        a[:] = rng.standard_normal(a.shape)
    for kept, orig in ((dual.X, d0.X), (dual.V, d0.V), (primal.Y, h0.Y), (primal.W, h0.W)):
        np.testing.assert_array_equal(kept, orig)
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0
    after = eval_support(dual, pair)
    assert after.value == before.value
    np.testing.assert_array_equal(after.maximizer, before.maximizer)
    assert in_hull(primal, pair)
    column = np.ones(3)
    point = DualPoint(column, np.eye(3))
    column[0] = 2.0
    np.testing.assert_array_equal(point.X, np.ones((3, 1)))
    with pytest.raises(ValueError):
        point.X[0, 0] = 1.0


def test_points_cannot_be_rebound():
    dual = DualPoint(np.ones((3, 2)), np.eye(3))
    primal = PrimalPoint(np.ones((3, 2)), -np.eye(3))
    for point, name in ((dual, "X"), (dual, "V"), (primal, "Y"), (primal, "W")):
        kept = getattr(point, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(point, name, np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert getattr(point, name) is kept
