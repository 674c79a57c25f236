"""Cholesky-first sign tests decide exactly as the ``eigvalsh`` rules they replace.

Every sign test of :mod:`gmfrac.linalg` (``_psd``, strict and not, and the
reduced solve's ``_psd_nonsingular``) is decided by a Cholesky
certificate outside a rounding band around its threshold and by
``eigvalsh`` inside it.  These tests plant the smallest eigenvalue at each
threshold, a few ulps to either side, at scales from 2^-60 to 2^60 and near
the ends of the floating-point range, and compare every answer with the
rule read from ``eigvalsh`` of the same matrix.  They also pin the
witness and the gauge to the hull's own polar test on exactly singular
boundary points, where ``eigh`` and ``eigvalsh`` round a zero eigenvalue
to opposite sides of ``psd_tol``.
"""

import numpy as np
import pytest

from gmfrac import (
    DEFAULT_TOL,
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
from gmfrac.linalg import _compress, _kept, _psd, _psd_nonsingular
from helpers import taken

EPS = np.finfo(float).eps
TOL = DEFAULT_TOL


def eigvalsh_rules(h):
    """The sign tests as read from ``eigvalsh(h)``: non-strict, strict, and
    (psd, psd and nonsingular) of the reduced solve."""
    w = np.linalg.eigvalsh(h)
    psd = bool(w[0] >= -TOL.psd_tol)
    return psd, bool(w[0] > TOL.psd_tol), (psd, psd and bool(_kept(w, TOL).all()))


def cholesky_rules(h):
    psd, nonsingular = _psd_nonsingular(h, TOL)
    return _psd(h, TOL), _psd(h, TOL, strict=True), (psd, psd and nonsingular)


def planted(rng, k, scale, low=0.0, rank=None):
    """``U diag(lam) U^T`` with ``lam`` in ``scale * [0.1, 1]`` except
    ``lam[0]``: ``low``, or ``rank * rank_tol * max(lam)`` when ``rank`` is set."""
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = scale * rng.uniform(0.1, 1.0, k)
    lam[0] = low if rank is None else rank * TOL.rank_tol * lam.max()
    h = (u * lam) @ u.T
    return 0.5 * (h + h.T)


def plantings(rng):
    """``(low, rank)`` at every threshold the sign tests compare with: a few
    ulps to either side of -psd_tol and +psd_tol, at 0, and just above and
    below the rank cutoff."""
    j = int(rng.integers(-4, 5)) * EPS
    lows = (-TOL.psd_tol + j, TOL.psd_tol + j, -TOL.psd_tol, TOL.psd_tol, 0.0)
    return [(low, None) for low in lows] + [(0.0, 1.0 - 1e-3), (0.0, 1.0 + 1e-3)]


@pytest.mark.parametrize("exponent", [-60, -30, 0, 30, 60])
def test_cholesky_rules_decide_as_eigvalsh(exponent):
    rng = np.random.default_rng(61 + exponent)
    scale = 2.0 ** exponent
    for _ in range(25):
        k = int(rng.integers(1, 41))
        for low, rank in plantings(rng):
            h = planted(rng, k, scale, low, rank)
            assert cholesky_rules(h) == eigvalsh_rules(h)


def test_public_predicates_decide_as_eigvalsh():
    # in_cone, in_int_cone and the polar tests, on compressions to a kernel
    # of a random A, against the eigvalsh rule on the same compression
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
        psd, strict, _ = eigvalsh_rules(_compress(v, kernel))
        assert in_cone(v, kernel) == psd
        assert in_int_cone(v, kernel) == strict
        neg, neg_strict, _ = eigvalsh_rules(-_compress(-v, kernel))
        assert in_polar_cone(-v, kernel) == neg
        assert in_rint_polar(-v, kernel) == neg_strict
        seen.add((psd, strict))
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("exponent", [-60, 0, 60])
def test_clear_cases_take_no_eigvalsh(counts, exponent):
    # one Cholesky accepts; a reject takes two, or one where a diagonal entry
    # already lies below the reject threshold: at k = 1, where the diagonal
    # is the spectrum, and at 2^-60 against +psd_tol.  There the whole
    # spectrum lies far inside (-psd_tol, psd_tol), so nothing is outside
    # the non-strict tests and nothing inside the strict one
    rng = np.random.default_rng(71)
    scale = 2.0 ** exponent
    for k in (1, 2, 7, 40):
        inside = planted(rng, k, scale, 0.05 * scale)
        outside = planted(rng, k, scale, -0.05 * scale)
        taken(counts)
        assert _psd(inside, TOL)
        assert _psd_nonsingular(inside, TOL) == (True, True)
        assert taken(counts) == {"cholesky": 2}
        assert _psd(inside, TOL, strict=True) == (exponent >= 0)
        assert not _psd(outside, TOL, strict=True)
        assert taken(counts) == {"cholesky": 2 if k == 1 or exponent < 0 else 3}
        if exponent >= 0:
            assert not _psd(outside, TOL)
            assert _psd_nonsingular(outside, TOL) == (False, False)
            assert taken(counts) == {"cholesky": 2 if k == 1 else 4}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-1060, -1000, 1000])
def test_extreme_scales_decide_as_eigvalsh(counts, exponent):
    # ||h||_F^2 underflows or overflows here, so the certificate rescales h
    # by a power of two; a spectrum far from every threshold still takes no
    # eigvalsh (at 2^-1000 and below every eigenvalue is inside +-psd_tol)
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
                assert "eigvalsh" not in taken(counts)
            assert got == eigvalsh_rules(h)


@pytest.mark.filterwarnings("error")
def test_zero_matrix_decides_as_eigvalsh(counts):
    for k in (1, 3, 12):
        zero = np.zeros((k, k))
        assert cholesky_rules(zero) == eigvalsh_rules(zero) == (True, False, (True, False))
        taken(counts)
        # the zero spectrum is exact: only the rank cutoff needs eigvalsh
        assert _psd(zero, TOL) and not _psd(zero, TOL, strict=True)
        assert taken(counts) == {}


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
    # passes psd_tol; the witness must take the toss the way in_hull does
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
