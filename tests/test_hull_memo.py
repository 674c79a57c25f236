"""The memo of the hull tests on primal points.

``in_hull``, ``in_hull_rint``, ``in_hull_aff``, ``caratheodory_witness``
and the hull test of ``in_normal_cone`` and ``in_subdifferential`` keep a
record of the tests taken on the gap matrix of the two most recent points,
keyed by weak references to the point and the pair.  These tests check that
every order of the readers answers bit for bit as with the memo cleared
before each call, over planted points on both sides of each test, that a
hit forms no compression, that a point of ``graph_point`` never enters the
memo and an equal but distinct point misses, that the memo holds two
entries and no references, and that threads sharing it get the serial
answers.
"""

import gc
import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

import gmfrac
from gmfrac import (
    ConstraintPair,
    ConvexWitness,
    DualPoint,
    PreconditionError,
    PrimalPoint,
    caratheodory_witness,
    graph_point,
    in_hull,
    in_hull_aff,
    in_hull_rint,
    in_normal_cone,
    in_subdifferential,
)
from helpers import cone_member, feasible_matrix, rand_pair, rand_zero_pair, rint_member


def clear():
    """Empty the hull memo."""
    gmfrac.hull._tested.entries = ()


def held():
    """The (point, pair) of each live entry of the hull memo, newest first."""
    return [(point_ref(), pair_ref()) for point_ref, pair_ref, _ in gmfrac.hull._tested.entries]


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def outcome(test, *args):
    """One call's answer, reduced to bits, or the error it raised."""
    try:
        res = test(*args)
    except PreconditionError:
        return "PreconditionError"
    if isinstance(res, ConvexWitness):
        induced = res.induced_point()
        return (
            bits(res.weights),
            bits(res.components),
            bits(res.epsilon),
            bits(induced.Y),
            bits(induced.W),
        )
    return res


def zero_row_pair(rng, n, m, p):
    a = rng.standard_normal((p, n))
    a[-2:] = 0.0
    return ConstraintPair(a, a @ rng.standard_normal((n, m)))


PAIRS = {
    "general": lambda rng: rand_pair(rng, 6, 2, 2),
    "p = 0": lambda rng: rand_pair(rng, 5, 2, 0),
    "zero rows": lambda rng: zero_row_pair(rng, 7, 2, 4),
    "B = 0": lambda rng: rand_zero_pair(rng, 6, 3, 3),
    # rank above n/2: no complement is stored, and the support residual is
    # the n-by-n W - Q C Q^T
    "no complement": lambda rng: rand_pair(rng, 6, 2, 4),
    "(50,5,20)": lambda rng: rand_pair(rng, 50, 5, 20),
}
CLASSES = (
    "interior",
    "sign-rejected",
    "support-rejected",
    "aff-only",
    "off-manifold",
    "zero-gap twin",
)


def planted(rng, pair, cls):
    """A point of the planted class on the pair."""
    q = pair.kernel.basis
    n, k = pair.n, pair.kernel.dim
    point = rint_member(rng, pair)
    if cls == "interior":
        return point
    if cls == "sign-rejected":
        # positive on ker A: the sign test rejects, the support test would pass
        return PrimalPoint(point.Y, point.W + 10.0 * (q @ q.T))
    if cls == "support-rejected":
        # a symmetric part with zero compression: the sign test passes
        r = rng.standard_normal((n, n))
        off = r + r.T
        off -= q @ (q.T @ off @ q) @ q.T
        return PrimalPoint(point.Y, point.W + 1e-3 * off)
    if cls == "aff-only":
        # a cross term U S Q^T + Q S^T U^T of norm e on each side: the aff
        # residual ||U^T gap|| reads e, the support residual sqrt(2) e, and e
        # is 0.8 times the residual bound, so only the aff test passes
        _, s, vt = np.linalg.svd(pair.A) if pair.p else (None, np.zeros(0), None)
        u = vt[: np.count_nonzero(s > 1e-10 * s.max(initial=0.0))].T if pair.p else np.zeros((n, 0))
        cross = u @ rng.standard_normal((u.shape[1], k)) @ q.T
        cross /= max(np.linalg.norm(cross), 1e-300)
        gap = point.W + 0.5 * (point.Y @ point.Y.T)
        e = 0.8e-9 * max(1.0, np.linalg.norm(gap))
        return PrimalPoint(point.Y, point.W + e * (cross + cross.T))
    if cls == "off-manifold":
        y = point.Y + (pair.A.T @ rng.standard_normal((pair.p, pair.m)) if pair.p else 1.0)
        return PrimalPoint(y, point.W)
    twin = graph_point(feasible_matrix(rng, pair))
    assert k > 0
    return PrimalPoint(twin.Y, twin.W)


def readers(point, pair, dual):
    return {
        "in_hull": (in_hull, point, pair),
        "in_hull_rint": (in_hull_rint, point, pair),
        "in_hull_aff": (in_hull_aff, point, pair),
        "caratheodory_witness": (caratheodory_witness, point, pair, 1e-3),
        "in_normal_cone": (in_normal_cone, dual, point, pair),
    }


def normal_dual(rng, point, pair):
    """A dual with V on the cone and X - V Y in rge A^T."""
    V = cone_member(rng, pair.kernel, margin=0.5)
    X = V @ point.Y + (pair.A.T @ rng.standard_normal((pair.p, pair.m)) if pair.p else 0.0)
    return DualPoint(X, V)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("kind", list(PAIRS))
def test_every_order_answers_as_a_cleared_memo(kind, cls):
    rng = np.random.default_rng([41, list(PAIRS).index(kind), CLASSES.index(cls)])
    pair = PAIRS[kind](rng)
    point = planted(rng, pair, cls)
    calls = readers(point, pair, normal_dual(rng, point, pair))
    want = {}
    for name, call in calls.items():
        clear()
        want[name] = outcome(*call)
    for order in itertools.permutations(calls):
        clear()
        for name in order:
            assert outcome(*calls[name]) == want[name], (order, name)
    # the planted class decides the hull test as built; with p = 0 nothing
    # lies off ker A or off the manifold
    if pair.p or cls not in ("support-rejected", "aff-only", "off-manifold"):
        assert want["in_hull"] == (cls in ("interior", "zero-gap twin"))
        assert want["in_hull_aff"] == (cls not in ("support-rejected", "off-manifold"))


def test_planted_classes_reach_both_answers():
    rng = np.random.default_rng(42)
    pair = rand_pair(rng, 6, 2, 2)
    seen = {}
    for cls in CLASSES:
        point = planted(rng, pair, cls)
        seen[cls] = (in_hull(point, pair), in_hull_rint(point, pair), in_hull_aff(point, pair))
    assert seen == {
        "interior": (True, True, True),
        "sign-rejected": (False, False, True),
        "support-rejected": (False, False, False),
        "aff-only": (False, False, True),
        "off-manifold": (False, False, False),
        "zero-gap twin": (True, False, True),
    }


@pytest.fixture
def formed(monkeypatch):
    """``(compressed, gaps)``: the operands of ``_compress`` and the points
    whose gap is built, through every gmfrac binding of either."""
    compressed, gaps = [], []
    compress = gmfrac.linalg._compress
    gap = gmfrac.hull._gap

    def recorded_compress(V, subspace):
        compressed.append(V)
        return compress(V, subspace)

    def recorded_gap(point, t=1.0):
        gaps.append(point)
        return gap(point, t)

    for name, module in list(sys.modules.items()):
        if name == "gmfrac" or name.startswith("gmfrac."):
            if getattr(module, "_compress", None) is compress:
                monkeypatch.setattr(module, "_compress", recorded_compress)
            if getattr(module, "_gap", None) is gap:
                monkeypatch.setattr(module, "_gap", recorded_gap)
    return compressed, gaps


@pytest.mark.parametrize("kind", ["general", "p = 0", "zero rows", "no complement", "(50,5,20)"])
def test_a_hit_forms_no_compression(formed, kind):
    compressed, gaps = formed
    rng = np.random.default_rng(43)
    pair = PAIRS[kind](rng)
    point = rint_member(rng, pair)
    dual = normal_dual(rng, point, pair)
    clear()
    assert in_hull(point, pair)
    assert len(compressed) == 1 and gaps == [point]
    del compressed[:], gaps[:]
    assert in_hull(point, pair)
    assert in_hull_rint(point, pair)
    caratheodory_witness(point, pair, 1e-3)
    assert compressed == [] and gaps == []
    # the aff test is read from the support test's product where U is stored
    assert in_hull_aff(point, pair)
    assert compressed == [] and gaps == ([] if pair.kernel.complement is not None else [point])
    # the normal-cone test compresses only V, and builds the gap that
    # complementarity reads
    del gaps[:]
    assert not in_normal_cone(dual, point, pair)
    assert len(compressed) == 1 and compressed[0] is dual.V and gaps == [point]


def test_graph_points_never_enter_and_equal_points_miss(formed):
    compressed, _ = formed
    rng = np.random.default_rng(44)
    pair = rand_pair(rng, 8, 2, 3)
    graph = graph_point(feasible_matrix(rng, pair))
    dual = normal_dual(rng, graph, pair)
    clear()
    assert in_hull(graph, pair)
    assert not in_hull_rint(graph, pair)
    assert in_hull_aff(graph, pair)
    caratheodory_witness(graph, pair, 1e-2)
    assert in_normal_cone(dual, graph, pair)
    assert in_subdifferential(graph, dual, pair) in (True, False)
    assert held() == []
    point = rint_member(rng, pair)
    assert in_hull(point, pair)
    assert held() == [(point, pair)]
    del compressed[:]
    twin = PrimalPoint(point.Y, point.W)
    assert in_hull(twin, pair)
    assert len(compressed) == 1
    assert held() == [(twin, pair), (point, pair)]
    # the same point on another pair object misses too
    other = ConstraintPair(pair.A, pair.B)
    del compressed[:]
    assert in_hull(point, other)
    assert len(compressed) == 1


def test_memo_holds_two_entries(formed):
    compressed, _ = formed
    rng = np.random.default_rng(45)
    pair = rand_pair(rng, 8, 2, 3)
    a, b, c = (rint_member(rng, pair) for _ in range(3))
    clear()
    for point in (a, b, c):
        assert in_hull(point, pair)
    assert held() == [(c, pair), (b, pair)]
    del compressed[:]
    assert in_hull_rint(c, pair) and in_hull_rint(b, pair)
    assert compressed == []
    # a hit does not refresh its entry, as in the support solve's memo: the
    # oldest entry, b's, is evicted first
    assert in_hull(a, pair)
    assert len(compressed) == 1
    assert held() == [(a, pair), (c, pair)]


def test_memo_keeps_no_point_or_pair_alive():
    rng = np.random.default_rng(46)
    pair = rand_pair(rng, 8, 2, 3)
    point = rint_member(rng, pair)
    clear()
    assert in_hull(point, pair) and in_hull_rint(point, pair)
    point_ref = weakref.ref(point)
    pair_ref = weakref.ref(pair)
    del point
    gc.collect()
    assert point_ref() is None
    del pair
    gc.collect()
    assert pair_ref() is None
    assert held() == [(None, None)]


def test_threads_sharing_the_memo_get_the_serial_answers():
    rng = np.random.default_rng(47)
    pair = rand_pair(rng, 10, 2, 3)
    zero = rand_zero_pair(rng, 9, 2, 0)
    points = [(planted(rng, pair, cls), pair) for cls in CLASSES]
    points.append((planted(rng, zero, "interior"), zero))
    duals = [normal_dual(rng, point, on) for point, on in points]

    def answer(op, which, fresh=False):
        point, on = points[which]
        if fresh:
            point = PrimalPoint(point.Y, point.W)
        call = list(readers(point, on, duals[which]).values())[op]
        return outcome(*call)

    calls = [(op, which) for op in range(5) for which in range(len(points))]
    # each serial answer from a fresh equal point, so from a full test
    serial = {call: answer(*call, fresh=True) for call in calls}
    errors = []
    mismatches = []

    def run(seed):
        draws = np.random.default_rng(seed).integers(0, len(calls), 150)
        try:
            for j in draws:
                if answer(*calls[j]) != serial[calls[j]]:
                    mismatches.append(calls[j])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    # switch threads often, so that lookups, writes and record updates
    # interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and mismatches == []
