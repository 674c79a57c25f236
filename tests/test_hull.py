import tracemalloc

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    ConvexWitness,
    DualPoint,
    PreconditionError,
    PrimalPoint,
    SampleConfig,
    caratheodory_witness,
    distance,
    eval_support,
    graph_point,
    in_free_hull,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
    pairing,
    sample_feasible,
    sample_polar,
)
from gmfrac.hull import _runs
from helpers import (
    feasible_matrix,
    hull_member,
    interior_dual,
    point_norm,
    rand_pair,
    rint_member,
    scaled_point,
)


def primal(y, w):
    return PrimalPoint(np.asarray(y, float).reshape(-1, 1), w)


def test_graph_points_are_members():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        assert in_hull(graph_point(feasible_matrix(rng, pair)), pair)


def test_in_hull_examples(pair_f1):
    y = [0.0, 1.0]
    assert in_hull(primal(y, np.diag([0.0, -1.0])), pair_f1)
    assert not in_hull(primal(y, np.zeros((2, 2))), pair_f1)


def test_in_hull_scalar_free_case():
    pair = ConstraintPair(np.zeros((1, 1)), np.zeros((1, 1)))
    # membership iff w <= -y^2/2
    assert in_hull(primal([1.0], [[-0.5]]), pair)
    assert in_hull(primal([1.0], [[-0.7]]), pair)
    assert not in_hull(primal([1.0], [[-0.4]]), pair)


def test_rint_and_aff_examples(pair_f1):
    y = [0.0, 1.0]
    assert in_hull_rint(primal(y, np.diag([0.0, -1.0])), pair_f1)
    boundary = primal(y, np.diag([0.0, -0.5]))
    assert in_hull(boundary, pair_f1)
    assert not in_hull_rint(boundary, pair_f1)
    signfree = primal(y, np.diag([0.0, 7.0]))
    assert in_hull_aff(signfree, pair_f1)
    assert not in_hull(signfree, pair_f1)


def test_free_hull_examples():
    assert in_free_hull(PrimalPoint(np.zeros((2, 1)), np.zeros((2, 2))))
    assert not in_free_hull(PrimalPoint(np.zeros((2, 1)), np.zeros((2, 2))), strict=True)
    assert in_free_hull(PrimalPoint(np.zeros((2, 1)), -np.eye(2)), strict=True)
    assert in_free_hull(primal([1.0], [[-1.0]]))
    assert not in_free_hull(primal([1.0], [[-0.4]]))


def test_free_hull_agrees_with_explicit_zero_pair():
    rng = np.random.default_rng(1)
    n, m = 3, 2
    pair = ConstraintPair(np.zeros((1, n)), np.zeros((1, m)))
    for _ in range(300):
        y = rng.standard_normal((n, m))
        w = -0.5 * (y @ y.T) + 0.3 * np.linalg.norm(y) * rng.standard_normal((n, n))
        w = 0.5 * (w + w.T)
        pt = PrimalPoint(y, w)
        assert in_free_hull(pt) == in_hull(pt, pair)


def test_polar_examples(pair_f2):
    assert in_hull_polar(DualPoint(np.zeros((1, 1)), np.zeros((1, 1))), pair_f2)
    # scalar oracle: support value is x^2 / (2 v)
    assert in_hull_polar(DualPoint([[1.0]], [[0.5]]), pair_f2)
    assert not in_hull_polar(DualPoint([[1.0]], [[0.25]]), pair_f2)
    assert not in_hull_polar(DualPoint([[1.0]], [[0.0]]), pair_f2)  # out of domain


def test_horizon_examples(pair_f1):
    assert in_hull_horizon(primal([0.0, 0.0], np.zeros((2, 2))), pair_f1)
    assert in_hull_horizon(primal([0.0, 0.0], np.diag([0.0, -4.0])), pair_f1)
    assert not in_hull_horizon(primal([0.0, 1.0], -np.eye(2)), pair_f1)


def test_polar_horizon_examples(pair_f0, pair_f1, pair_fb):
    assert in_hull_polar_horizon(DualPoint(np.zeros((2, 1)), np.eye(2)), pair_f1)
    for v in (0.3, 1.0, 40.0):
        assert not in_hull_polar_horizon(DualPoint([[1.0]], [[v]]), pair_f0)
    assert not in_hull_polar_horizon(DualPoint([[1.0]], [[0.0]]), pair_f0)
    # inhomogeneous fixture at (0, I): the KKT oracle gives value -1/2 <= 0
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    sol = np.linalg.solve(m, np.array([0.0, 0.0, 1.0]))
    oracle_value = 0.5 * float(np.array([0.0, 0.0, 1.0]) @ sol)
    assert oracle_value == pytest.approx(-0.5)
    assert in_hull_polar_horizon(DualPoint(np.zeros((2, 1)), np.eye(2)), pair_fb)


def test_polar_horizon_positive_value_rejected(pair_fb):
    # X = (0, 1): value = 1/2 x2^2 - 1/2 = 0 at x2 = 1? use x2 = 2 -> 3/2 > 0
    res = eval_support(DualPoint(np.array([[0.0], [2.0]]), np.eye(2)), pair_fb)
    assert res.finite and res.value > 0
    assert not in_hull_polar_horizon(DualPoint(np.array([[0.0], [2.0]]), np.eye(2)), pair_fb)


def test_witness_on_graph_points():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        pt = graph_point(feasible_matrix(rng, pair))
        # with no rank-one terms the construction is exact to O(eps)
        scale = max(1.0, point_norm(pt) + np.linalg.norm(pair.min_norm_solution) ** 2)
        for eps in (1e-2, 1e-4, 1e-6):
            wit = caratheodory_witness(pt, pair, eps)
            assert wit.distance_to(pt) <= 4.0 * eps * scale


def test_witness_f1_example(pair_f1):
    pt = primal([0.0, 1.0], np.diag([0.0, -1.0]))
    wit = caratheodory_witness(pt, pair_f1, 1e-4)
    assert wit.distance_to(pt) <= 1e-1


def test_witness_distance_scales_like_sqrt_eps(pair_f1):
    pt = primal([0.0, 1.0], np.diag([0.0, -1.0]))
    epsilons = [1e-1, 1e-2, 1e-3, 1e-4]
    dists = [caratheodory_witness(pt, pair_f1, e).distance_to(pt) for e in epsilons]
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    slope = np.polyfit(np.log(epsilons), np.log(dists), 1)[0]
    assert 0.4 <= slope <= 0.6


def test_witness_invariants(pair_fb):
    rng = np.random.default_rng(3)
    pt = hull_member(rng, pair_fb)
    wit = caratheodory_witness(pt, pair_fb, 1e-3)
    assert wit.weights.sum() == pytest.approx(1.0)
    assert np.all(wit.weights >= 0)
    n = pair_fb.n
    assert wit.components.shape[0] == n * (n + 1) // 2 + 2
    for comp in wit.components:
        resid = np.linalg.norm(pair_fb.A @ comp - pair_fb.B)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(pair_fb.B))
    assert in_hull(wit.induced_point(), pair_fb)


def test_witness_preconditions(pair_f1):
    outside = primal([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        caratheodory_witness(outside, pair_f1, 1e-2)
    member = primal([0.0, 1.0], np.diag([0.0, -1.0]))
    for bad_eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            caratheodory_witness(member, pair_f1, bad_eps)
    empty_cols = ConstraintPair(np.array([[1.0, 0.0]]), np.zeros((1, 0)))
    with pytest.raises(ValueError):
        caratheodory_witness(PrimalPoint(np.zeros((2, 0)), np.zeros((2, 2))), empty_cols, 0.1)


def test_hull_convexity():
    rng = np.random.default_rng(4)
    pair = rand_pair(rng, 4, 2, 2)
    for _ in range(300):
        a = hull_member(rng, pair)
        b = hull_member(rng, pair)
        lam = rng.uniform()
        combo = PrimalPoint(lam * a.Y + (1 - lam) * b.Y, lam * a.W + (1 - lam) * b.W)
        assert in_hull(combo, pair)


def test_hull_recession():
    rng = np.random.default_rng(5)
    pair = rand_pair(rng, 4, 2, 2)
    for _ in range(50):
        pt = hull_member(rng, pair)
        t_dir = sample_polar(pair.kernel, 2, rng)[0]
        for t in (1.0, 1e3, 1e6):
            assert in_hull(PrimalPoint(pt.Y, pt.W + t * t_dir), pair)


def test_rint_members_survive_affine_perturbations():
    rng = np.random.default_rng(6)
    pair = rand_pair(rng, 3, 2, 1)
    pt = rint_member(rng, pair)
    assert in_hull_rint(pt, pair)
    k = pair.kernel.dim
    q = pair.kernel.basis
    directions = []
    for _ in range(20):
        dy = q @ rng.standard_normal((k, pair.m))
        h = q @ rng.standard_normal((k, k)) @ q.T
        dw = -0.5 * (pt.Y @ dy.T + dy @ pt.Y.T) + 0.5 * (h + h.T)
        norm = np.sqrt(np.linalg.norm(dy) ** 2 + np.linalg.norm(dw) ** 2)
        directions.append((dy / norm, dw / norm))
    delta = 1.0
    for _ in range(60):
        ok = all(
            in_hull(PrimalPoint(pt.Y + delta * dy, pt.W + delta * dw), pair)
            for dy, dw in directions
        )
        if ok:
            break
        delta *= 0.5
    else:
        pytest.fail("no positive perturbation radius found")
    assert delta > 0.0


def test_boundary_points_fail_rint():
    rng = np.random.default_rng(7)
    pair = rand_pair(rng, 3, 2, 1)
    # gap matrix identically zero vanishes on every kernel direction
    pt = graph_point(feasible_matrix(rng, pair))
    assert in_hull(pt, pair)
    assert not in_hull_rint(pt, pair)


def test_polar_bipolarity_pairing():
    rng = np.random.default_rng(8)
    pair = rand_pair(rng, 3, 2, 1)
    members = [hull_member(rng, pair) for _ in range(40)]
    polar_members = []
    while len(polar_members) < 25:
        d = interior_dual(rng, pair)
        res = eval_support(d, pair)
        if not res.finite or res.value <= 0:
            continue
        # rescale X toward the origin until the support value drops below 1
        shrink = min(1.0, 0.9 / max(res.value, 1e-9))
        cand = DualPoint(shrink * d.X, d.V)
        if in_hull_polar(cand, pair):
            polar_members.append(cand)
    for omega in members:
        for pi in polar_members:
            assert pairing(pi, omega) <= 1.0 + 1e-8


def test_polar_horizon_is_a_cone():
    rng = np.random.default_rng(9)
    pair = rand_pair(rng, 3, 2, 1)
    found = 0
    while found < 20:
        d = DualPoint(np.zeros((pair.n, pair.m)), interior_dual(rng, pair).V)
        if not in_hull_polar_horizon(d, pair):
            continue
        found += 1
        for t in (2.0, 10.0):
            assert in_hull_polar_horizon(scaled_point(d, t), pair)


def test_hull_sandwich_on_samples():
    rng = np.random.default_rng(10)
    pair = rand_pair(rng, 3, 2, 1)
    for y in sample_feasible(pair, SampleConfig(count=200, rng_seed=1)):
        assert in_hull(graph_point(y), pair)
    for _ in range(20):
        pt = hull_member(rng, pair)
        wit = caratheodory_witness(pt, pair, 1e-3)
        assert in_hull(wit.induced_point(), pair)


def test_distance_metric():
    a = PrimalPoint(np.zeros((2, 1)), np.zeros((2, 2)))
    b = PrimalPoint(np.ones((2, 1)), np.zeros((2, 2)))
    assert distance(a, b) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_primal_point_rejects_non_finite(bad):
    y = np.ones((2, 1))
    y[0, 0] = bad
    with pytest.raises(ValueError):
        PrimalPoint(y, -np.eye(2))
    w = -np.eye(2)
    w[1, 1] = bad
    with pytest.raises(ValueError):
        PrimalPoint(np.ones((2, 1)), w)


def test_witness_components_are_each_feasible():
    # eigenvalues of P(-gap)P at rounding level must not be scaled into
    # components: each of them would leave {A Y = B}
    rng = np.random.default_rng(0)
    pair = rand_pair(rng, 50, 5, 20)
    pt = hull_member(rng, pair)
    wit = caratheodory_witness(pt, pair, 1e-4)
    resid = np.einsum("pn,knm->kpm", pair.A, wit.components) - pair.B
    bound = 1e-9 * max(1.0, np.linalg.norm(pair.B))
    assert np.linalg.norm(resid, axis=(1, 2)).max() <= bound
    assert wit.distance_to(pt) <= 0.05


@pytest.mark.parametrize("n, m, p", [(6, 1, 2), (6, 3, 2), (5, 2, 0)])
def test_induced_point_is_the_weighted_sum(n, m, p):
    rng = np.random.default_rng(9)
    pair = rand_pair(rng, n, m, p)
    wit = caratheodory_witness(hull_member(rng, pair), pair, 1e-3)
    before = wit.components.copy()
    got = wit.induced_point()
    np.testing.assert_array_equal(wit.components, before)
    y = sum(w * c for w, c in zip(wit.weights, wit.components))
    w = -0.5 * sum(w * (c @ c.T) for w, c in zip(wit.weights, wit.components))
    np.testing.assert_allclose(got.Y, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
    np.testing.assert_allclose(got.W, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def assert_weighted_sum(wit):
    # the induced point against the sum taken one component at a time
    before = wit.components.copy()
    got = wit.induced_point()
    np.testing.assert_array_equal(wit.components, before)
    y = sum(w * c for w, c in zip(wit.weights, wit.components))
    w = -0.5 * sum(w * (c @ c.T) for w, c in zip(wit.weights, wit.components))
    np.testing.assert_allclose(got.Y, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
    np.testing.assert_allclose(got.W, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def hand_witness(components, weights=None):
    components = np.asarray(components, dtype=float)
    if weights is None:
        weights = np.full(len(components), 1.0 / len(components))
    return ConvexWitness(weights=np.asarray(weights, float), components=components, epsilon=1e-3)


def test_equal_components_group_only_when_adjacent():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([[0.0, 4.0], [-1.0, 2.5]])
    wit = hand_witness([a, b, a], [0.2, 0.5, 0.3])
    assert _runs(wit.components).tolist() == [0, 1, 2]
    assert_weighted_sum(wit)
    wit = hand_witness([a, a, b, b, b, a], [0.1, 0.2, 0.05, 0.15, 0.3, 0.2])
    assert _runs(wit.components).tolist() == [0, 2, 5]
    assert_weighted_sum(wit)


def test_negative_zero_starts_a_run():
    zero = np.array([[0.0], [1.5]])
    negative = np.array([[-0.0], [1.5]])
    other = np.array([[2.0], [1e-300]])
    wit = hand_witness([zero, zero, negative, negative, zero, other, other])
    assert _runs(wit.components).tolist() == [0, 2, 4, 5]
    assert_weighted_sum(wit)


def test_single_and_all_distinct_components():
    rng = np.random.default_rng(4)
    wit = hand_witness(rng.standard_normal((1, 3, 2)), [1.0])
    assert _runs(wit.components).tolist() == [0]
    assert_weighted_sum(wit)
    weights = rng.random(6)
    wit = hand_witness(rng.standard_normal((6, 3, 2)), weights / weights.sum())
    assert _runs(wit.components).tolist() == list(range(6))
    assert_weighted_sum(wit)


def test_witness_at_zero_and_full_kernel_rank():
    rng = np.random.default_rng(6)
    # k = 0: A is square and invertible, so every term is zero padding
    pair = rand_pair(rng, 4, 2, 4)
    assert pair.kernel.dim == 0
    wit = caratheodory_witness(graph_point(pair.min_norm_solution), pair, 1e-3)
    assert len(_runs(wit.components)) <= 2
    assert_weighted_sum(wit)
    # full rank: the first component, k distinct terms, then the Z0 padding
    pair = rand_pair(rng, 7, 3, 2)
    k = pair.kernel.dim
    wit = caratheodory_witness(rint_member(rng, pair), pair, 1e-3)
    assert len(_runs(wit.components)) == k + 2 < len(wit.components)
    assert_weighted_sum(wit)


def test_witness_distance_allocates_no_component_sized_buffer():
    # at (50, 5, 20): 1,277 components (2.55 MB) in at most rank + 2 runs
    rng = np.random.default_rng(0)
    pair = rand_pair(rng, 50, 5, 20)
    pt = hull_member(rng, pair)
    wit = caratheodory_witness(pt, pair, 1e-4)
    assert wit.components.shape[0] == 50 * 51 // 2 + 2
    tracemalloc.start()
    try:
        wit.distance_to(pt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < wit.components.nbytes / 4
