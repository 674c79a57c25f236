"""Dense factorizations per call, counted by wrapping ``numpy.linalg``.

Each matrix object is factorized once: a ``ConstraintPair`` by one SVD of
``A``, a support solve or domain test by one ``eigh`` of the reduced
Hessian ``Q^T V Q``.  Subspace tests read the kernel basis ``Q`` and never
factorize the n-by-n projector onto ``ker A``.
"""

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    DualPoint,
    InfeasiblePairError,
    PrimalPoint,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_support,
    in_domain,
    in_hull_aff,
    in_hull_rint,
    in_subdifferential,
)
from helpers import gauge_instance, hull_member, interior_dual, rand_pair, rint_member

FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "lstsq")


@pytest.fixture
def counts(monkeypatch):
    tally = dict.fromkeys(FACTORIZATIONS, 0)
    for name in FACTORIZATIONS:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return tally


def taken(tally):
    """Nonzero counts, then reset the tally."""
    out = {k: v for k, v in tally.items() if v}
    tally.update(dict.fromkeys(tally, 0))
    return out


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20)])
def test_pair_is_one_svd(counts, n, m, p):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((p, n))
    ConstraintPair(a, a @ rng.standard_normal((n, m)))
    assert taken(counts) == {"svd": 1}
    ConstraintPair(a, np.zeros((p, m)))
    assert taken(counts) == {"svd": 1}
    low_rank = a[:1].repeat(p, axis=0)
    ConstraintPair(low_rank, low_rank @ rng.standard_normal((n, m)))
    assert taken(counts) == {"svd": 1}
    with pytest.raises(InfeasiblePairError):
        ConstraintPair(low_rank, rng.standard_normal((p, m)))
    assert taken(counts) == {"svd": 1}


def test_unconstrained_pair_needs_no_factorization(counts):
    ConstraintPair(np.zeros((0, 5)), np.zeros((0, 2)))
    assert taken(counts) == {}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_support_and_domain_are_one_eigh(counts, n, m, p):
    rng = np.random.default_rng(1)
    pair = rand_pair(rng, n, m, p)
    point = interior_dual(rng, pair)
    taken(counts)
    assert eval_support(point, pair).finite
    assert taken(counts) == {"eigh": 1}
    assert in_domain(point, pair)
    assert taken(counts) == {"eigh": 1}
    outside = DualPoint(point.X, -np.eye(n))
    assert not eval_support(outside, pair).finite
    assert taken(counts) == {"eigh": 1}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20)])
def test_subdifferential_is_one_eigh_and_one_eigvalsh(counts, n, m, p):
    rng = np.random.default_rng(2)
    pair = rand_pair(rng, n, m, p)
    point = interior_dual(rng, pair)
    sub = canonical_subgradient(point, pair)
    taken(counts)
    assert in_subdifferential(sub.point, point, pair)
    assert taken(counts) == {"eigh": 1, "eigvalsh": 1}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_hull_rint_is_one_eigvalsh_and_aff_is_none(counts, n, m, p):
    rng = np.random.default_rng(3)
    pair = rand_pair(rng, n, m, p)
    point = rint_member(rng, pair)
    taken(counts)
    assert in_hull_rint(point, pair)
    assert taken(counts) == {"eigvalsh": 1}
    assert in_hull_aff(point, pair)
    assert taken(counts) == {}


@pytest.fixture
def eigh_shapes(counts, monkeypatch):
    shapes = []
    counted = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return counted(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_gauge_factorizes_w_once(counts, eigh_shapes, n, m, p):
    rng = np.random.default_rng(4)
    pair, y, w = gauge_instance(rng, n, m, p)
    point = PrimalPoint(y, w)
    taken(counts)
    assert eval_gauge(point, pair).finite
    assert taken(counts) == {"svd": 1, "eigh": 2}
    k = pair.kernel.dim
    assert all(shape[0] <= k for shape in eigh_shapes)


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (30, 2, 10), (5, 1, 0)])
def test_witness_eigh_is_k_by_k(counts, eigh_shapes, n, m, p):
    rng = np.random.default_rng(5)
    pair = rand_pair(rng, n, m, p)
    point = hull_member(rng, pair)
    taken(counts)
    caratheodory_witness(point, pair, 1e-3)
    assert taken(counts) == {"eigh": 1}
    k = pair.kernel.dim
    assert eigh_shapes == [(k, k)]
