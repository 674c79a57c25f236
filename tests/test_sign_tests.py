"""Cholesky-first sign tests decide exactly as the ``eigh`` rules they replace.

Every sign test of :mod:`gmfrac.linalg` (``_psd``, strict and not, and the
sign and rank of ``_psd_kept``, which the reduced solve and the gauge read)
is decided by a Cholesky certificate outside a rounding band around its
threshold and by ``eigh`` inside it.  These tests plant the smallest
eigenvalue at each threshold, a few ulps to either side, at scales from
2^-60 to 2^60 and near the ends of the floating-point range, and compare
every answer with the rule read from ``eigh`` of the same matrix: the sign
from its smallest eigenvalue, and the rank from the rank cutoff on its
eigenvalues with the negative ones counted as zero.  They also pin the
witness and the gauge to the hull's own polar test on exactly singular
boundary points, where a zero eigenvalue rounds to either side of
``_PSD_TOL``.  The names that say ``eigvalsh`` predate the move of every
in-band decision to ``eigh``; the rule each test compares with is the
``eigh`` rule.
"""

import math

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    PreconditionError,
    PrimalPoint,
    caratheodory_witness,
    eval_gauge,
    in_cone,
    in_hull,
    in_int_cone,
    in_polar_cone,
    in_rint_polar,
)
from gmfrac.linalg import _PSD_TOL, _RANK_TOL, _compress, _kept, _psd, _psd_kept
from helpers import taken

EPS = np.finfo(float).eps


def eigh_rules(h):
    """The sign tests as read from ``eigh(h)``: non-strict, strict, and
    (psd, psd and nonsingular) of ``_psd_kept``, where the rank cutoff
    counts a negative eigenvalue as zero."""
    w = np.linalg.eigh(h)[0]
    psd = bool(w[0] >= -_PSD_TOL)
    nonsingular = bool(_kept(np.maximum(w, 0.0)).all())
    return psd, bool(w[0] > _PSD_TOL), (psd, psd and nonsingular)


def cholesky_rules(h):
    psd, kept = _psd_kept(h)
    nonsingular = kept is None or kept[0].size == h.shape[0]
    return _psd(h), _psd(h, strict=True), (psd, psd and nonsingular)


def planted(rng, k, scale, low=0.0, rank=None):
    """``U diag(lam) U^T`` with ``lam`` in ``scale * [0.1, 1]`` except
    ``lam[0]``: ``low``, or ``rank * _RANK_TOL * max(lam)`` when ``rank`` is set."""
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = scale * rng.uniform(0.1, 1.0, k)
    lam[0] = low if rank is None else rank * _RANK_TOL * lam.max()
    h = (u * lam) @ u.T
    return 0.5 * (h + h.T)


def plantings(rng):
    """``(low, rank)`` at every threshold the sign tests compare with: a few
    ulps to either side of -_PSD_TOL and +_PSD_TOL, at 0, and just above and
    below the rank cutoff."""
    j = int(rng.integers(-4, 5)) * EPS
    lows = (-_PSD_TOL + j, _PSD_TOL + j, -_PSD_TOL, _PSD_TOL, 0.0)
    return [(low, None) for low in lows] + [(0.0, 1.0 - 1e-3), (0.0, 1.0 + 1e-3)]


@pytest.mark.parametrize("exponent", [-60, -30, 0, 30, 60])
def test_cholesky_rules_decide_as_eigvalsh(exponent):
    rng = np.random.default_rng(61 + exponent)
    scale = 2.0 ** exponent
    for _ in range(25):
        k = int(rng.integers(1, 41))
        for low, rank in plantings(rng):
            h = planted(rng, k, scale, low, rank)
            assert cholesky_rules(h) == eigh_rules(h)


def test_public_predicates_decide_as_eigvalsh():
    # in_cone, in_int_cone and the polar tests, on compressions to a kernel
    # of a random A, against the eigh rule on the same compression
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(120):
        n = int(rng.integers(2, 30))
        p = int(rng.integers(0, n))
        a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
        kernel = ConstraintPair(a, np.zeros((p, 1))).kernel
        k = kernel.dim
        scale = 2.0 ** int(rng.choice([-60, -20, 0, 20, 60]))
        low, rank = plantings(rng)[int(rng.integers(0, 7))]
        h = planted(rng, k, scale, low, rank)
        v = kernel.basis @ h @ kernel.basis.T
        v = 0.5 * (v + v.T)
        psd, strict, _ = eigh_rules(_compress(v, kernel))
        assert in_cone(v, kernel) == psd
        assert in_int_cone(v, kernel) == strict
        neg, neg_strict, _ = eigh_rules(-_compress(-v, kernel))
        assert in_polar_cone(-v, kernel) == neg
        assert in_rint_polar(-v, kernel) == neg_strict
        seen.add((psd, strict))
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("exponent", [-60, 0, 60])
def test_clear_cases_take_no_eigvalsh(counts, exponent):
    # one Cholesky accepts; a reject takes two, or one where a diagonal entry
    # already lies below the reject threshold: at k = 1, where the diagonal
    # is the spectrum, and at 2^-60 against +_PSD_TOL.  There the whole
    # spectrum lies far inside (-_PSD_TOL, _PSD_TOL), so nothing is outside
    # the non-strict tests and nothing inside the strict one
    rng = np.random.default_rng(71)
    scale = 2.0 ** exponent
    for k in (1, 2, 7, 40):
        inside = planted(rng, k, scale, 0.05 * scale)
        outside = planted(rng, k, scale, -0.05 * scale)
        taken(counts)
        assert _psd(inside)
        assert _psd_kept(inside) == (True, None)
        assert taken(counts) == {"cholesky": 2}
        assert _psd(inside, strict=True) == (exponent >= 0)
        assert not _psd(outside, strict=True)
        assert taken(counts) == {"cholesky": 2 if k == 1 or exponent < 0 else 3}
        if exponent >= 0:
            assert not _psd(outside)
            assert _psd_kept(outside) == (False, None)
            assert taken(counts) == {"cholesky": 2 if k == 1 else 4}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-1060, -1000, 1000])
def test_extreme_scales_decide_as_eigvalsh(counts, exponent):
    # ||h||_F^2 underflows or overflows here, so the certificate rescales h
    # by a power of two; a spectrum far from every threshold still takes no
    # eigh (at 2^-1000 and below every eigenvalue is inside +-_PSD_TOL)
    rng = np.random.default_rng(73)
    scale = 2.0 ** exponent
    for _ in range(20):
        k = int(rng.integers(1, 9))
        for low, rank in [(-scale, None), (-0.01 * scale, None), (0.0, None),
                          (0.01 * scale, None), (scale, None), (0.0, 1.0 - 1e-3),
                          (0.0, 1.0 + 1e-3)]:
            h = planted(rng, k, scale, low, rank)
            taken(counts)
            got = cholesky_rules(h)
            if low == scale or low == -scale and exponent > 0:
                assert "eigh" not in taken(counts)
            assert got == eigh_rules(h)


@pytest.mark.filterwarnings("error")
def test_zero_matrix_decides_as_eigvalsh(counts):
    for k in (1, 3, 12):
        zero = np.zeros((k, k))
        assert cholesky_rules(zero) == eigh_rules(zero) == (True, False, (True, False))
        taken(counts)
        # the zero spectrum is exact: only the rank cutoff needs eigh
        assert _psd(zero) and not _psd(zero, strict=True)
        assert taken(counts) == {}


# the range of ||h||_F^2 in which linalg._above does not rescale h, written
# out here so that the planted scales do not move with it
SAFE = (2.0 ** -800, 2.0 ** 800)


def safe_edges(h):
    """``{j: inside}`` for the exponents that put ``||2^j h||_F^2`` just
    inside and just outside ``SAFE`` at either end, and for ``j = +-410``
    and ``+-500``, all outside."""
    sq = float(np.vdot(h, h))
    top = max(j for j in range(500) if math.ldexp(sq, 2 * j) < SAFE[1])
    bottom = min(j for j in range(-500, 0) if math.ldexp(sq, 2 * j) > SAFE[0])
    edges = {top: True, top + 1: False, bottom: True, bottom - 1: False}
    edges.update(dict.fromkeys((-500, -410, 410, 500), False))
    return edges


@pytest.mark.parametrize("kind", ["definite", "singular", "indefinite"])
@pytest.mark.parametrize("k", [2, 5, 12])
def test_safe_band_edges_decide_as_eigh(counts, k, kind):
    # 2^j times a planted spectrum, with ||h||_F^2 on either side of each end
    # of SAFE, inside which _above does not rescale h.  Every sign and the
    # kept count are the eigh rule's.  Outside SAFE the rescaled
    # certificate decides a positive definite h with no eigh; just inside the
    # lower end it cannot, as the band's half-width carries the absolute
    # _PSD_TOL, so no count is pinned inside
    rng = np.random.default_rng(89 + k)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = rng.uniform(0.5, 1.0, k)
    lam[0] = {"definite": lam[0], "singular": 0.0, "indefinite": -0.5}[kind]
    base = (u * lam) @ u.T
    base = 0.5 * (base + base.T)
    for j, inside in safe_edges(base).items():
        h = np.ldexp(base, j)
        assert (SAFE[0] < float(np.vdot(h, h)) < SAFE[1]) == inside, j
        w = np.linalg.eigh(h)[0]
        taken(counts)
        assert _psd(h) == bool(w[0] >= -_PSD_TOL), j
        assert _psd(h, strict=True) == bool(w[0] > _PSD_TOL), j
        psd, kept = _psd_kept(h)
        assert psd == bool(w[0] >= -_PSD_TOL), j
        if psd:
            count = k if kept is None else kept[0].size
            assert count == np.count_nonzero(_kept(np.maximum(w, 0.0))), j
        if kind == "definite" and not inside:
            assert "eigh" not in taken(counts), j


def integer_kernel_pair(rng, k, p, m):
    """A ``B = 0`` pair with ``A = [M, -I]``, whose kernel is spanned by the
    integer columns of ``Z = [I; M]``, and that ``Z``."""
    mm = rng.integers(-2, 3, (p, k)).astype(float)
    a = np.hstack([mm, -np.eye(p)])
    z = np.vstack([np.eye(k), mm])
    return ConstraintPair(a, np.zeros((p, m))), z


def singular_boundary(rng, k=4, p=3, m=2):
    """A pair, an integer ``Y = Z L g`` in ``ker A``, and ``-Z L L^T Z^T``,
    exactly negative semidefinite and singular on ``ker A``."""
    pair, z = integer_kernel_pair(rng, k, p, m)
    ell = rng.integers(-2, 3, (k, k - 1)).astype(float)
    y = z @ ell @ rng.integers(-2, 3, (k - 1, m)).astype(float)
    return pair, y, -(z @ ell) @ (z @ ell).T


@pytest.mark.parametrize("exponent", [0, 20, 30, 60])
def test_witness_exists_iff_in_hull(exponent):
    # W = -1/2 Y Y^T - 2^j Z L L^T Z^T puts the gap matrix on the polar
    # cone's boundary, so its zero eigenvalue is a coin toss once 2^j eps
    # passes _PSD_TOL; the witness must take the toss the way in_hull does
    rng = np.random.default_rng(79)
    seen = set()
    for _ in range(150):
        pair, y, neg = singular_boundary(rng)
        point = PrimalPoint(y, -0.5 * (y @ y.T) + 2.0 ** exponent * neg)
        member = in_hull(point, pair)
        try:
            caratheodory_witness(point, pair, 1e-3)
            built = True
        except PreconditionError:
            built = False
        assert built == member
        seen.add(member)
    if exponent == 0:
        assert seen == {True}


@pytest.mark.parametrize("exponent", [0, 20, 30, 60])
def test_gauge_is_finite_only_on_the_polar_cone(exponent):
    rng = np.random.default_rng(83)
    for _ in range(150):
        pair, y, neg = singular_boundary(rng)
        w = 2.0 ** exponent * neg
        polar = in_polar_cone(w, pair.kernel)
        finite = eval_gauge(PrimalPoint(y, w), pair).finite
        assert polar or not finite
        if exponent == 0:
            assert finite
