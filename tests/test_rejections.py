"""Two rejections of the public tests: a dual outside the cone, an infeasible scaled point."""

import numpy as np

from gmfrac import DualPoint, PrimalPoint, graph_point, in_normal_cone, in_scaled_hull
from helpers import gauge_instance, rand_pair


def test_normal_cone_rejects_a_dual_whose_v_is_outside_the_cone():
    # V = -I is negative on ker A, so (X, V) is in no normal cone, at any
    # hull point and for any X
    rng = np.random.default_rng(23)
    pair = rand_pair(rng, 4, 2, 1)
    base = graph_point(pair.min_norm_solution)
    x = pair.A.T @ rng.standard_normal((1, 2))
    assert in_normal_cone(DualPoint(x, np.eye(4)), base, pair)
    assert not in_normal_cone(DualPoint(x, -np.eye(4)), base, pair)


def test_scaled_hull_rejects_an_infeasible_y():
    # A Y != 0 leaves every scaled hull, however large t is
    rng = np.random.default_rng(24)
    pair, y, w = gauge_instance(rng, 5, 2, 2)
    assert in_scaled_hull(PrimalPoint(y, w), 1.0, pair)
    off = y + pair.A.T @ rng.standard_normal((2, 2))
    point = PrimalPoint(off, w)
    for t in (1.0, 1e6):
        assert not in_scaled_hull(point, t, pair)
