"""Every public operation that takes a point and a pair checks the point first.

A point's first field, ``X`` or ``Y``, must be n-by-m for the pair.  Without
the check, one of another width broadcasts against ``B`` or the kernel basis
and is answered: on a ``B = 0`` pair with m = 3, a 5-by-1 ``Y`` in ``ker A``
lies in the hull and in every scaled hull, has a finite gauge and a witness
of 5-by-3 components, and a 5-by-1 ``X`` lies outside every normal cone.
"""

import numpy as np
import pytest

from gmfrac import (
    DualPoint,
    PrimalPoint,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_polar_gauge,
    eval_support,
    in_domain,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
    in_normal_cone,
    in_scaled_hull,
    in_subdifferential,
)
from helpers import rand_zero_pair


@pytest.fixture
def setting():
    # a B = 0 pair with (n, m, p) = (5, 3, 2), a hull point and a domain point
    # of the right shapes, and a hull point and a dual point whose first
    # field is 5-by-1
    rng = np.random.default_rng(20)
    pair = rand_zero_pair(rng, 5, 3, 2)
    q = pair.kernel.basis
    y = q @ rng.standard_normal((3, 3))
    narrow_y = q @ rng.standard_normal((3, 1))
    polar = -(q @ q.T)
    good = PrimalPoint(y, -0.5 * (y @ y.T) + polar)
    narrow = PrimalPoint(narrow_y, -0.5 * (narrow_y @ narrow_y.T) + polar)
    dual = DualPoint(rng.standard_normal((5, 3)), np.eye(5))
    narrow_dual = DualPoint(rng.standard_normal((5, 1)), np.eye(5))
    return pair, good, narrow, dual, narrow_dual


PRIMAL_CALLS = {
    "in_hull": lambda y, d, pair: in_hull(y, pair),
    "in_hull_rint": lambda y, d, pair: in_hull_rint(y, pair),
    "in_hull_aff": lambda y, d, pair: in_hull_aff(y, pair),
    "in_hull_horizon": lambda y, d, pair: in_hull_horizon(y, pair),
    "caratheodory_witness": lambda y, d, pair: caratheodory_witness(y, pair, 0.1),
    "in_scaled_hull": lambda y, d, pair: in_scaled_hull(y, 1.0, pair),
    "eval_gauge": lambda y, d, pair: eval_gauge(y, pair),
    "in_normal_cone": lambda y, d, pair: in_normal_cone(d, y, pair),
    "in_subdifferential": lambda y, d, pair: in_subdifferential(y, d, pair),
}

DUAL_CALLS = {
    "in_domain": lambda y, d, pair: in_domain(d, pair),
    "eval_support": lambda y, d, pair: eval_support(d, pair),
    "in_hull_polar": lambda y, d, pair: in_hull_polar(d, pair),
    "in_hull_polar_horizon": lambda y, d, pair: in_hull_polar_horizon(d, pair),
    "canonical_subgradient": lambda y, d, pair: canonical_subgradient(d, pair),
    "eval_polar_gauge": lambda y, d, pair: eval_polar_gauge(d, pair),
    "in_normal_cone": lambda y, d, pair: in_normal_cone(d, y, pair),
    "in_subdifferential": lambda y, d, pair: in_subdifferential(y, d, pair),
}


@pytest.mark.parametrize("name", sorted(PRIMAL_CALLS))
def test_a_primal_point_of_another_width_is_rejected(setting, name):
    pair, good, narrow, dual, _ = setting
    call = PRIMAL_CALLS[name]
    call(good, dual, pair)
    with pytest.raises(ValueError, match=r"Y must be 5x3 for this pair, got \(5, 1\)"):
        call(narrow, dual, pair)


@pytest.mark.parametrize("name", sorted(DUAL_CALLS))
def test_a_dual_point_of_another_width_is_rejected(setting, name):
    pair, good, _, dual, narrow_dual = setting
    call = DUAL_CALLS[name]
    call(good, dual, pair)
    with pytest.raises(ValueError, match=r"X must be 5x3 for this pair, got \(5, 1\)"):
        call(good, narrow_dual, pair)


def test_the_narrow_point_lies_in_its_own_pairs_hull(setting):
    # the rejection is of the shape alone: on the pair with m = 1 the same
    # point is a hull point with a finite gauge
    pair, _, narrow, _, _ = setting
    own = type(pair)(pair.A, np.zeros((pair.p, 1)))
    assert in_hull(narrow, own)
    assert eval_gauge(narrow, own).finite
