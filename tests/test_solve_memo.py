"""The memo of the reduced support solve.

``eval_support`` and ``in_domain`` keep the outcome ``(Y*, Z*, value)``
(or "outside the domain") of the two most recent solves, whichever of them
took it, keyed by weak references to the point and the pair.  A repeated
call on one of them reads the entry and takes no factorization; these
tests check that a hit answers bit for bit as a fresh solve of an equal
point does, that the memo holds two entries and no references, and that
threads sharing it get the serial answers.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    DualPoint,
    canonical_subgradient,
    eval_support,
    in_domain,
    in_hull_polar,
    in_subdifferential,
)
from gmfrac.support import _reduced_solve
from helpers import interior_dual, rand_pair, taken
from test_null_space import singular_hessian_point


def bits(x):
    """The float64 words of a value or array, or None."""
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def outcome(res):
    return (res.finite, bits(res.value), bits(res.maximizer), bits(res.multiplier))


def zero_row_pair(rng, n, m, p):
    a = rng.standard_normal((p, n))
    a[-1] = 0.0
    return ConstraintPair(a, a @ rng.standard_normal((n, m)))


def case(kind):
    rng = np.random.default_rng(11)
    if kind == "p = 0":
        pair = rand_pair(rng, 6, 2, 0)
        return interior_dual(rng, pair), pair
    if kind == "zero row":
        pair = zero_row_pair(rng, 7, 2, 3)
        return interior_dual(rng, pair), pair
    if kind == "singular H":
        pair = rand_pair(rng, 6, 2, 2)
        return singular_hessian_point(rng, pair, True), pair
    pair = rand_pair(rng, 6, 2, 2)
    return DualPoint(rng.standard_normal((6, 2)), -np.eye(6)), pair


@pytest.mark.parametrize("kind", ["p = 0", "zero row", "singular H", "outside"])
def test_hit_equals_a_fresh_solve_bitwise(counts, kind):
    point, pair = case(kind)
    first = eval_support(point, pair)
    taken(counts)
    hit = eval_support(point, pair)
    inside = in_domain(point, pair)
    assert taken(counts) == {}
    fresh = DualPoint(point.X, point.V)
    solved = eval_support(fresh, pair)
    assert taken(counts)
    assert outcome(hit) == outcome(solved) == outcome(first)
    assert inside == hit.finite == (kind != "outside")
    # the domain test's solve serves a later support call just as well
    other = DualPoint(point.X, point.V)
    assert in_domain(other, pair) == inside
    assert taken(counts)
    assert outcome(eval_support(other, pair)) == outcome(solved)
    assert taken(counts) == {}


def test_hit_returns_fresh_arrays():
    point, pair = case("p = 0")
    first = eval_support(point, pair)
    first.maximizer[...] = 0.0
    first.multiplier[...] = 0.0
    fresh = DualPoint(point.X, point.V)
    assert outcome(eval_support(point, pair)) == outcome(eval_support(fresh, pair))


def test_cached_solution_is_read_only():
    point, pair = case("zero row")
    sol = _reduced_solve(point, pair)
    y_star, z_star, _ = sol
    assert not y_star.flags.writeable and not z_star.flags.writeable
    assert _reduced_solve(point, pair) is sol
    for cached in (y_star, z_star):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["p = 0", "zero row", "singular H"])
def test_a_hit_assembles_nothing(monkeypatch, counts, kind):
    # the entry is the finished solution: a later subgradient or polar test
    # at the point forms no multiplier, as it takes no factorization
    point, pair = case(kind)
    calls = []
    original = ConstraintPair._transpose_solve

    def counted(self, C):
        calls.append(C.shape)
        return original(self, C)

    monkeypatch.setattr(ConstraintPair, "_transpose_solve", counted)
    res = eval_support(point, pair)
    assert len(calls) == 1
    taken(counts)
    sub = canonical_subgradient(point, pair)
    polar = in_hull_polar(point, pair)
    assert calls == [point.X.shape] and taken(counts) == {}
    assert bits(sub.point.Y) == bits(res.maximizer)
    assert bits(sub.multiplier) == bits(res.multiplier)
    assert bits(sub.value) == bits(res.value)
    assert polar == (res.value <= 1.0 + 1e-9)


def test_third_point_evicts_the_oldest(counts):
    rng = np.random.default_rng(12)
    pair = rand_pair(rng, 8, 2, 3)
    a, b, c = (interior_dual(rng, pair) for _ in range(3))
    eval_support(a, pair)
    eval_support(b, pair)
    taken(counts)
    assert in_domain(a, pair) and in_domain(b, pair)
    assert taken(counts) == {}
    eval_support(c, pair)
    assert taken(counts) == {"cholesky": 1, "solve": 1}
    assert in_domain(b, pair) and in_domain(c, pair)
    assert taken(counts) == {}
    # the domain test writes the memo as the solve does, on either side of
    # the Cholesky certificate's rounding band, and evicts the oldest entry
    assert in_domain(a, pair)
    assert in_domain(a, pair)
    assert eval_support(a, pair).finite
    assert taken(counts) == {"cholesky": 1, "solve": 1}
    singular = singular_hessian_point(rng, pair, False)
    taken(counts)
    assert in_domain(singular, pair)
    assert in_domain(singular, pair)
    assert eval_support(singular, pair).finite
    assert taken(counts) == {"cholesky": 2, "eigh": 1}
    assert in_domain(c, pair)
    assert taken(counts) == {"cholesky": 1, "solve": 1}


def test_same_point_on_another_pair_misses(counts):
    rng = np.random.default_rng(13)
    pair = rand_pair(rng, 8, 2, 3)
    point = interior_dual(rng, pair)
    eval_support(point, pair)
    twin = ConstraintPair(pair.A, pair.B)
    taken(counts)
    assert outcome(eval_support(point, twin)) == outcome(eval_support(point, pair))
    assert taken(counts) == {"cholesky": 1, "solve": 1}


def test_memo_keeps_no_point_or_pair_alive():
    rng = np.random.default_rng(14)
    pair = rand_pair(rng, 8, 2, 3)
    point = interior_dual(rng, pair)
    assert eval_support(point, pair).finite
    point_ref = weakref.ref(point)
    pair_ref = weakref.ref(pair)
    del point
    gc.collect()
    assert point_ref() is None
    del pair
    gc.collect()
    assert pair_ref() is None


def test_threads_sharing_the_memo_get_the_serial_answers():
    rng = np.random.default_rng(15)
    pair = rand_pair(rng, 10, 2, 3)
    inside = interior_dual(rng, pair)
    singular_pair = rand_pair(rng, 10, 2, 3)
    points = [
        (inside, pair),
        (singular_hessian_point(rng, singular_pair, False), singular_pair),
        (DualPoint(inside.X, -np.eye(10)), pair),
    ]
    candidate = canonical_subgradient(inside, pair).point

    def answer(op, point, on):
        if op == 0:
            return outcome(eval_support(point, on))
        if op == 1:
            return in_domain(point, on)
        if op == 2:
            return in_hull_polar(point, on)
        return in_subdifferential(candidate, point, on)

    calls = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    # each serial answer from a fresh equal point, so from a full solve
    serial = {
        (op, which): answer(op, DualPoint(points[which][0].X, points[which][0].V), points[which][1])
        for op, which in calls
    }
    errors = []
    mismatches = []

    def run(seed):
        draws = np.random.default_rng(seed).integers(0, len(calls), 200)
        try:
            for j in draws:
                op, which = calls[j]
                if answer(op, *points[which]) != serial[calls[j]]:
                    mismatches.append(calls[j])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    # switch threads often, so that lookups and writes of the memo interleave
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
