"""The polar test in order of cost decides as the residual-first order did.

``cones._polar_form`` skips every product for an exactly zero ``W`` and
takes the k-by-k sign test before the n-by-n support residual.  A polar
test is the AND of those two pure predicates, so no answer may move: every
public test that reads it is compared here with the same test run on
``helpers.residual_first_polar_form``, over planted draws on both sides of
each predicate, at scales ``2^j``.  Witness components, gauge values and
support values must agree bit for bit.  The zero matrix is pinned on its
own.
"""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmfrac
from gmfrac import (
    ConstraintPair,
    ConvexWitness,
    DualPoint,
    GaugeResult,
    PreconditionError,
    PrimalPoint,
    SupportResult,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_support,
    graph_point,
    in_hull,
    in_hull_horizon,
    in_hull_rint,
    in_normal_cone,
    in_polar_cone,
    in_rint_polar,
    in_scaled_hull,
    in_subdifferential,
)
from helpers import feasible_matrix, interior_dual, residual_first_polar_form

PAIRS = ("p=0", "zero-rows", "k=0", "general")
CLASSES = ("zero", "graph", "off-support", "sign-fails", "both-fail", "member", "interior")


@contextlib.contextmanager
def residual_first():
    """Swap the residual-first reference into every gmfrac binding."""
    original = gmfrac.cones._polar_form
    bound = [
        module
        for name, module in list(sys.modules.items())
        if (name == "gmfrac" or name.startswith("gmfrac."))
        and getattr(module, "_polar_form", None) is original
    ]
    for module in bound:
        module._polar_form = residual_first_polar_form
    try:
        yield
    finally:
        for module in bound:
            module._polar_form = original


def make_pair(rng, kind, n, m, homogeneous):
    if kind == "p=0":
        a = np.zeros((0, n))
    elif kind == "k=0":
        a = rng.standard_normal((n + 1, n))
    else:
        a = rng.standard_normal((int(rng.integers(1, n)), n))
        if kind == "zero-rows":
            a = np.vstack([a, np.zeros((2, n))])
    b = np.zeros((a.shape[0], m)) if homogeneous else a @ rng.standard_normal((n, m))
    return ConstraintPair(a, b)


def planted_gap(rng, cls, subspace):
    """A symmetric n-by-n matrix of the planted class, before scaling."""
    n, k = subspace.dim_ambient, subspace.dim
    q = subspace.basis
    g = rng.standard_normal((k, k))
    r = rng.standard_normal((n, n))
    off = r + r.T
    off -= q @ (q.T @ off @ q) @ q.T
    flip = np.ones(k)
    flip[:1] = -1.0
    indefinite = q @ np.diag(flip) @ q.T if k else np.zeros((n, n))
    gap = {
        "zero": np.zeros((n, n)),
        "graph": np.zeros((n, n)),
        "off-support": -q @ (g @ g.T) @ q.T + 1e-3 * off,
        "sign-fails": indefinite,
        "both-fail": indefinite + off,
        "member": -q @ (g[:, :1] @ g[:, :1].T) @ q.T,
        "interior": -q @ (g @ g.T + 0.5 * np.eye(k)) @ q.T,
    }[cls]
    return 0.5 * (gap + gap.T)


def outcome(test, *args):
    """The result of one call, reduced to bits, or the error it raised."""
    try:
        res = test(*args)
    except PreconditionError:
        return "PreconditionError"
    if isinstance(res, ConvexWitness):
        return res.weights.tobytes(), res.components.tobytes()
    if isinstance(res, GaugeResult):
        crit = None if res.critical_matrix is None else res.critical_matrix.tobytes()
        return res.finite, repr(res.value), crit, repr(res.sigma_min)
    if isinstance(res, SupportResult):
        y = None if res.maximizer is None else res.maximizer.tobytes()
        return res.finite, repr(res.value), y
    return res


def decisions(pair, gap, point, dual, homogeneous):
    n, m = pair.n, pair.m
    horizon = PrimalPoint(np.zeros((n, m)), gap)
    calls = [
        (in_polar_cone, gap, pair.kernel),
        (in_rint_polar, gap, pair.kernel),
        (in_hull, point, pair),
        (in_hull_rint, point, pair),
        (in_hull_horizon, horizon, pair),
        (in_normal_cone, dual, point, pair),
        (in_subdifferential, point, dual, pair),
        (caratheodory_witness, point, pair, 1e-3),
        (eval_support, dual, pair),
    ]
    if homogeneous:
        calls += [
            (eval_gauge, point, pair),
            (eval_gauge, horizon, pair),
            (in_scaled_hull, point, 0.5, pair),
        ]
    out = [outcome(*call) for call in calls]
    try:
        sub = canonical_subgradient(dual, pair).point
    except PreconditionError:
        return out
    return out + [
        outcome(in_subdifferential, sub, dual, pair),
        outcome(in_hull_rint, sub, pair),
        outcome(caratheodory_witness, sub, pair, 0.25),
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(PAIRS),
    cls=st.sampled_from(CLASSES),
    j=st.integers(-60, 60),
    homogeneous=st.booleans(),
)
def check_cost_order(seed, kind, cls, j, homogeneous):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    pair = make_pair(rng, kind, n, m, homogeneous)
    s = 2.0**j
    gap = s * planted_gap(rng, cls, pair.kernel)
    if cls == "zero":
        # the origin, whose gap matrix is zero, infeasible unless B = 0
        point = PrimalPoint(np.zeros((n, m)), np.zeros((n, n)))
    else:
        y = feasible_matrix(rng, pair)
        point = PrimalPoint(y, -0.5 * (y @ y.T) + (0.0 if cls == "graph" else gap))
    dual = interior_dual(rng, pair)
    dual = DualPoint(dual.X, s * dual.V)
    got = decisions(pair, gap, point, dual, homogeneous)
    with residual_first():
        want = decisions(pair, gap, point, dual, homogeneous)
    assert got == want


def test_cost_order_decides_as_the_residual_first_order():
    # a plain test around the property, so that a failure is reported as an
    # ordinary assertion: on a falsifying example the hypothesis plugin
    # writes a patch with libcst, whose import warns, and the suite turns
    # warnings into errors
    check_cost_order()


def test_equivalence_draws_reach_both_answers():
    # the planted classes put the polar test on both sides of each predicate
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 6))
    pair = ConstraintPair(a, a @ rng.standard_normal((6, 2)))
    seen = {}
    for cls in CLASSES:
        gap = planted_gap(rng, cls, pair.kernel)
        seen[cls] = (in_polar_cone(gap, pair.kernel), in_rint_polar(gap, pair.kernel))
    assert seen == {
        "zero": (True, False),
        "graph": (True, False),
        "off-support": (False, False),
        "sign-fails": (False, False),
        "both-fail": (False, False),
        "member": (True, False),
        "interior": (True, True),
    }


def edge_pairs():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 5))
    return {
        "p=0": ConstraintPair(np.zeros((0, 5)), np.zeros((0, 2))),
        "zero-rows": ConstraintPair(np.vstack([a, np.zeros((2, 5))]), np.zeros((4, 2))),
        "general": ConstraintPair(a, a @ rng.standard_normal((5, 2))),
        "k=0": ConstraintPair(rng.standard_normal((6, 5)), np.zeros((6, 2))),
    }


@pytest.mark.parametrize("name", ["p=0", "zero-rows", "general", "k=0"])
def test_zero_matrix_edges(name):
    pair = edge_pairs()[name]
    k = pair.kernel.dim
    assert (k == 0) == (name == "k=0")
    zero = np.zeros((pair.n, pair.n))
    assert in_polar_cone(zero, pair.kernel)
    # rint of the polar is {0} on the zero subspace, and excludes 0 otherwise
    assert in_rint_polar(zero, pair.kernel) == (k == 0)
    rng = np.random.default_rng(13)
    point = graph_point(feasible_matrix(rng, pair))
    assert in_hull(point, pair)
    assert in_hull_rint(point, pair) == (k == 0)
    witness = caratheodory_witness(point, pair, 1e-2)
    # rank 0: every component after the first is the minimum-norm solution
    assert np.array_equal(
        witness.components[1:], np.broadcast_to(pair.min_norm_solution, witness.components[1:].shape)
    )

