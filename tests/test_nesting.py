"""The sets nest: rint polar ⊂ polar ⊂ aff polar, and rint ⊂ hull ⊂ aff.

For a symmetric ``W`` the polar cone's support condition ``W = Q C Q^T``
and the affine hull's ``rge W subset ker A`` are one condition, and the
support residual ``||W - Q C Q^T||_F`` is at least the range residual
``||W - Q Q^T W||_F``.  Both are tested by ``_small`` at ``_RANGE_TOL``, so a
member of a set passes the test of every set that contains it.  The draws
here are members moved off ``ker A`` by ``delta ||W||_F``, with ``delta``
log-uniform across the residual threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfrac import (
    ConstraintPair,
    PrimalPoint,
    in_aff_polar,
    in_hull,
    in_hull_aff,
    in_hull_rint,
    in_polar_cone,
    in_rint_polar,
    sample_polar,
)
from helpers import feasible_matrix

KINDS = ("general", "zero-rows", "rank-deficient")


def test_pinned_off_kernel_example():
    # A = [0 0 1], ker A = span(e1, e2); W = -diag(1, 1, 0) moved off ker A by
    # w13 = w31 = 3e-9: range residual 3e-9 and support residual 4.2e-9, both
    # above _RANGE_TOL * ||W||_F = 1.4e-9, so W is in no set of the chain;
    # with a single threshold no smaller set can accept it
    pair = ConstraintPair([[0.0, 0.0, 1.0]], [[0.0]])
    w = -np.diag([1.0, 1.0, 0.0])
    w[0, 2] = w[2, 0] = 3e-9
    point = PrimalPoint(np.zeros((3, 1)), w)
    kernel = pair.kernel
    assert (in_rint_polar(w, kernel), in_polar_cone(w, kernel), in_aff_polar(w, kernel)) == (
        False, False, False
    )
    assert (in_hull_rint(point, pair), in_hull(point, pair), in_hull_aff(point, pair)) == (
        False, False, False
    )
    # a tenth of that offset is inside every set of the chain
    w[0, 2] = w[2, 0] = 3e-10
    point = PrimalPoint(np.zeros((3, 1)), w)
    assert (in_rint_polar(w, kernel), in_polar_cone(w, kernel), in_aff_polar(w, kernel)) == (
        True, True, True
    )
    assert (in_hull_rint(point, pair), in_hull(point, pair), in_hull_aff(point, pair)) == (
        True, True, True
    )


def make_pair(rng, kind, n, m):
    a = rng.standard_normal((int(rng.integers(1, n)), n))
    if kind == "zero-rows":
        a = np.vstack([a, np.zeros((2, n))])
    elif kind == "rank-deficient":
        a = np.vstack([a, a[:1] + a[-1:]])
    return ConstraintPair(a, a @ rng.standard_normal((n, m)))


def off_kernel(rng, W, kernel, delta):
    # W plus delta ||W||_F times a unit symmetric direction G - Q (Q^T G Q) Q^T
    # with no part on ker A
    q = kernel.basis
    g = rng.standard_normal(W.shape)
    g = g + g.T
    e = g - q @ (q.T @ g @ q) @ q.T
    return W + delta * np.linalg.norm(W) / np.linalg.norm(e) * e


def chain(pair, W, point):
    kernel = pair.kernel
    polar = (in_rint_polar(W, kernel), in_polar_cone(W, kernel), in_aff_polar(W, kernel))
    hull = (in_hull_rint(point, pair), in_hull(point, pair), in_hull_aff(point, pair))
    return polar, hull


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    log_delta=st.floats(-11.0, -7.0),
    j=st.integers(-20, 20),
)
def check_nesting(seed, kind, log_delta, j):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    pair = make_pair(rng, kind, n, m)
    delta = 10.0**log_delta
    k = pair.kernel.dim
    # boundary members (fewer generators than k) and interior ones
    polar = 2.0**j * sample_polar(pair.kernel, int(rng.integers(1, k + 2)), rng)[0]
    W = off_kernel(rng, polar, pair.kernel, delta)
    y = feasible_matrix(rng, pair)
    gap = sample_polar(pair.kernel, int(rng.integers(1, k + 2)), rng)[0]
    point = PrimalPoint(y, off_kernel(rng, -0.5 * (y @ y.T) + gap, pair.kernel, delta))
    (rint_p, polar_p, aff_p), (rint_h, hull_h, aff_h) = chain(pair, W, point)
    assert polar_p <= aff_p
    assert rint_p <= polar_p
    assert rint_h <= hull_h <= aff_h


def test_nesting_under_off_kernel_perturbation():
    # a plain test around the property, as in test_polar_order
    check_nesting()


def test_off_kernel_draws_cross_the_threshold():
    # the delta range puts each set test on both sides of _RANGE_TOL
    rng = np.random.default_rng(5)
    pair = make_pair(rng, "general", 5, 2)
    k = pair.kernel.dim
    W = sample_polar(pair.kernel, k + 1, rng)[0]
    y = feasible_matrix(rng, pair)
    gap = sample_polar(pair.kernel, k + 1, rng)[0]
    base = -0.5 * (y @ y.T) + gap
    seen = {}
    for delta in (1e-11, 1e-7):
        point = PrimalPoint(y, off_kernel(rng, base, pair.kernel, delta))
        seen[delta] = chain(pair, off_kernel(rng, W, pair.kernel, delta), point)
    assert seen == {
        1e-11: ((True, True, True), (True, True, True)),
        1e-7: ((False, False, False), (False, False, False)),
    }
