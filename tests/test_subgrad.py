import sys

import numpy as np
import pytest

import gmfrac.hull
from gmfrac import (
    DualPoint,
    PreconditionError,
    PrimalPoint,
    canonical_subgradient,
    eval_support,
    graph_point,
    in_hull,
    in_normal_cone,
    in_subdifferential,
    pairing,
    sample_polar,
)
from helpers import (
    feasible_matrix,
    hull_member,
    interior_dual,
    point_norm,
    rand_pair,
    rand_zero_pair,
    saddle_matrix,
    scaled_point,
)


def primal(y, w):
    return PrimalPoint(np.asarray(y, float).reshape(-1, 1), w)


def dual(x, v):
    return DualPoint(np.asarray(x, float).reshape(-1, 1), v)


F1_BASE = ([0.0, 1.0], np.diag([0.0, -0.5]))  # gap matrix is exactly zero


def test_zero_dual_in_every_normal_cone(pair_f1):
    rng = np.random.default_rng(0)
    zero = dual([0.0, 0.0], np.zeros((2, 2)))
    assert in_normal_cone(zero, primal(*F1_BASE), pair_f1)
    for _ in range(20):
        base = hull_member(rng, pair_f1)
        assert in_normal_cone(zero, base, pair_f1)


def test_normal_cone_f1_positive_case(pair_f1):
    base = primal(*F1_BASE)
    cand = dual([3.0, 0.0], np.diag([1.0, 0.0]))
    assert in_normal_cone(cand, base, pair_f1)
    # polarity oracle: <dual, omega - base> <= 0 over sampled hull points
    rng = np.random.default_rng(1)
    for _ in range(1000):
        omega = hull_member(rng, pair_f1)
        diff = PrimalPoint(omega.Y - base.Y, omega.W - base.W)
        scale = max(1.0, point_norm(cand) * point_norm(diff))
        assert pairing(cand, diff) <= 1e-8 * scale


def test_normal_cone_f1_negative_case(pair_f1):
    base = primal(*F1_BASE)
    cand = dual([0.0, 1.0], np.zeros((2, 2)))
    assert not in_normal_cone(cand, base, pair_f1)


def test_normal_cone_precondition(pair_f1):
    outside = primal([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        in_normal_cone(dual([0.0, 0.0], np.zeros((2, 2))), outside, pair_f1)


def test_canonical_subgradient_zero_dual():
    rng = np.random.default_rng(2)
    pair = rand_pair(rng, 3, 2, 0)
    d = DualPoint(np.zeros((3, 2)), np.eye(3))
    res = canonical_subgradient(d, pair)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.point.Y, 0.0)
    assert np.allclose(res.point.W, 0.0)


def test_canonical_subgradient_f1(pair_f1):
    for x1, x2 in [(1.0, 2.0), (-0.5, 3.0)]:
        d = dual([x1, x2], np.eye(2))
        res = canonical_subgradient(d, pair_f1)
        # KKT oracle: direct solve of the saddle system
        sol = np.linalg.solve(saddle_matrix(np.eye(2), pair_f1), np.array([x1, x2, 0.0]))
        assert np.allclose(res.point.Y.ravel(), sol[:2])
        assert np.allclose(res.point.W, np.diag([0.0, -0.5 * x2 * x2]))
        fenchel = pairing(d, res.point)
        assert fenchel == pytest.approx(0.5 * x2 * x2, rel=1e-12)
        assert fenchel == pytest.approx(res.value, rel=1e-12)


def test_canonical_subgradient_scalar(pair_f0):
    x, v = 1.5, 0.5
    res = canonical_subgradient(dual([x], [[v]]), pair_f0)
    assert res.point.Y.item() == pytest.approx(x / v)
    assert res.point.W.item() == pytest.approx(-x * x / (2 * v * v))
    assert res.value == pytest.approx(x * x / (2 * v))


def test_canonical_subgradient_precondition(pair_f0):
    with pytest.raises(PreconditionError):
        canonical_subgradient(dual([1.0], [[0.0]]), pair_f0)


def test_subdifferential_self_consistency():
    rng = np.random.default_rng(3)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        d = interior_dual(rng, pair)
        res = canonical_subgradient(d, pair)
        assert in_subdifferential(res.point, d, pair)
        done += 1


def test_subdifferential_complementarity_violation(pair_f1):
    d = dual([0.0, 1.0], np.eye(2))
    cand = primal([0.0, 1.0], np.diag([0.0, -0.5]) + np.diag([0.0, -1.0]))
    assert in_hull(cand, pair_f1)
    assert not in_subdifferential(cand, d, pair_f1)


def test_subdifferential_rejects_non_members(pair_f1):
    d = dual([0.0, 1.0], np.eye(2))
    assert not in_subdifferential(primal([0.0, 1.0], np.zeros((2, 2))), d, pair_f1)
    # X = (0, 1) is not reachable through the zero saddle matrix
    with pytest.raises(PreconditionError):
        in_subdifferential(primal(*F1_BASE), dual([0.0, 1.0], np.zeros((2, 2))), pair_f1)


def test_subgradient_inequality():
    rng = np.random.default_rng(4)
    pair = rand_pair(rng, 3, 2, 1)
    probes = [interior_dual(rng, pair) for _ in range(100)]
    probe_values = [eval_support(q, pair).value for q in probes]
    for _ in range(20):
        d = interior_dual(rng, pair)
        res = canonical_subgradient(d, pair)
        for q, qval in zip(probes, probe_values):
            gain = pairing(DualPoint(q.X - d.X, q.V - d.V), res.point)
            scale = max(1.0, abs(qval), abs(res.value))
            assert qval >= res.value + gain - 1e-8 * scale


def test_fenchel_equality_characterization():
    rng = np.random.default_rng(5)
    pair = rand_pair(rng, 3, 2, 1)
    checked = 0
    while checked < 500:
        d = interior_dual(rng, pair)
        sigma = eval_support(d, pair).value
        if rng.uniform() < 0.5:
            cand = hull_member(rng, pair)
        else:
            cand = canonical_subgradient(d, pair).point
        member = in_subdifferential(cand, d, pair)
        scale = max(1.0, point_norm(d) * point_norm(cand))
        fenchel = abs(pairing(d, cand) - sigma) <= 1e-8 * scale
        # the subdifferential of a support function is exactly the set of
        # hull points attaining the supremum
        assert member == (in_hull(cand, pair) and fenchel)
        checked += 1


def test_normal_cone_is_a_cone(pair_f1):
    base = primal(*F1_BASE)
    cand = dual([3.0, 0.0], np.diag([1.0, 0.0]))
    assert in_normal_cone(cand, base, pair_f1)
    for t in (2.0, 10.0):
        assert in_normal_cone(scaled_point(cand, t), base, pair_f1)


def test_normal_cone_members_against_recession_shifts(pair_f1):
    # shifted hull samples include polar-cone rays; the pairing stays <= 0
    rng = np.random.default_rng(6)
    base = primal(*F1_BASE)
    cand = dual([3.0, 0.0], np.diag([1.0, 0.0]))
    for _ in range(200):
        omega = hull_member(rng, pair_f1)
        shift = sample_polar(pair_f1.kernel, 2, rng)[0]
        shifted = PrimalPoint(omega.Y, omega.W + 100.0 * shift)
        diff = PrimalPoint(shifted.Y - base.Y, shifted.W - base.W)
        scale = max(1.0, point_norm(cand) * point_norm(diff))
        assert pairing(cand, diff) <= 1e-8 * scale


@pytest.fixture
def gaps(monkeypatch):
    """The points whose gap matrix is formed, through every gmfrac binding of ``_gap``."""
    formed = []
    original = gmfrac.hull._gap

    def recorded(point, t=1.0):
        formed.append(point)
        return original(point, t)

    for name, module in list(sys.modules.items()):
        if name == "gmfrac" or name.startswith("gmfrac."):
            if getattr(module, "_gap", None) is original:
                monkeypatch.setattr(module, "_gap", recorded)
    return formed


def _planted(rng, pair):
    """``(Y, dual, in_subdifferential, in_normal_cone)``: each answer known by construction."""
    q = pair.kernel.basis
    d = interior_dual(rng, pair)
    V = d.V
    y_star = eval_support(d, pair).maximizer
    y = feasible_matrix(rng, pair)
    z = rng.standard_normal((pair.p, pair.m))
    c = rng.standard_normal((pair.kernel.dim, pair.m))
    # V minus a multiple of q_1 q_1^T larger than ||V||: indefinite on ker A
    indefinite = V - (2.0 * np.linalg.norm(V) + 1.0) * np.outer(q[:, 0], q[:, 0])
    cases = [
        # the subgradient of d, and y with the dual that X = V y + A^T z plants at it
        (y_star, d, True, True),
        (y, DualPoint(V @ y + pair.A.T @ z, V), True, True),
        # y is not d's maximizer, which is unique as V is definite on ker A
        (y, d, False, False),
        # X - V y with a part Q c in ker A
        (y, DualPoint(V @ y + pair.A.T @ z + q @ c, V), False, False),
        # duals outside the domain: V indefinite on ker A, and V = 0 with X in ker A
        (y, DualPoint(d.X, indefinite), PreconditionError, False),
        (y, DualPoint(q @ c, np.zeros_like(V)), PreconditionError, False),
    ]
    if pair.p:
        # y off the manifold: outside the hull
        off = y + pair.A.T @ rng.standard_normal((pair.p, pair.m))
        cases.append((off, d, False, PreconditionError))
    return cases


def _answer(test, *args):
    try:
        return test(*args)
    except PreconditionError:
        return PreconditionError


@pytest.mark.parametrize("n, m, p", [(1, 1, 0), (4, 2, 0), (5, 3, 2), (6, 1, 3), (30, 4, 10)])
@pytest.mark.parametrize("make_pair", [rand_pair, rand_zero_pair], ids=["B", "B=0"])
def test_graph_point_answers_as_its_public_twin(gaps, make_pair, n, m, p):
    # a graph point's gap is exactly zero, so it forms none; its twin, the
    # same fields through the public constructor, forms its gap and tests it
    rng = np.random.default_rng([33, n, m, p])
    pair = make_pair(rng, n, m, p)
    for y, dual, want_sub, want_normal in _planted(rng, pair):
        graph = graph_point(y)
        twin = PrimalPoint(graph.Y, graph.W)
        assert twin.W.tobytes() == graph.W.tobytes()
        for point in (graph, twin):
            del gaps[:]
            assert _answer(in_subdifferential, point, dual, pair) == want_sub
            # the domain test raises before the hull test
            formed = want_sub is not PreconditionError and point is twin
            assert gaps == [twin] * formed
            del gaps[:]
            assert _answer(in_normal_cone, dual, point, pair) == want_normal
            assert gaps == [twin] * (point is twin)
