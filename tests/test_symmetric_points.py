"""Points whose ``W`` is symmetric by construction skip the symmetrize.

``graph_point`` and ``ConvexWitness.induced_point`` build ``-1/2 Y Y^T`` and
``-1/2 cols cols^T`` from aligned C-order operands, which numpy forms by a
symmetric rank-k update and mirrors, so they are symmetric bit for bit; both
build their point through ``support._symmetric_point``, which keeps every
check and freeze of the public constructor but its symmetrize.
``graph_point`` forms ``W`` from a C-order copy of ``Y`` whatever its
layout, so each point is pinned to ``-1/2 Y Y^T`` of that copy and checked
bitwise against the public constructor on the copy.  The two differ only
where an entry of ``W`` lies below ``2^-1021``: there the public
constructor's halve-then-double in ``symmetrize`` drops the entry's last
bit, and the point now keeps ``W = -1/2 Y Y^T`` exactly.  Every hull
decision is checked unchanged on draws in that band.
"""

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    PrimalPoint,
    caratheodory_witness,
    graph_point,
    in_free_hull,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_rint,
)
from helpers import hull_member, rand_pair

SHAPES = [(1, 1), (5, 1), (7, 3), (33, 17), (200, 10)]
SCALES = range(-450, 451, 5)


def layouts(y):
    """``y`` C-ordered, F-ordered, as strided and unaligned views, and its first column 1-D."""
    big = np.zeros((2 * y.shape[0], 3 * y.shape[1]))
    strided = big[::2, ::3]
    strided[...] = y
    # float64 words one byte off their alignment
    raw = np.zeros(y.size * 8 + 1, dtype=np.uint8)
    unaligned = raw[1:].view(np.float64).reshape(y.shape)
    unaligned[...] = y
    assert not unaligned.flags.aligned
    return {
        "C": np.ascontiguousarray(y),
        "F": np.asfortranarray(y),
        "strided": strided,
        "unaligned": unaligned,
        "1-D": np.array(y[:, 0]),
    }


def c_copy(Y):
    """The aligned C-order copy of ``Y``, 1-D as one column, that ``W`` is formed from."""
    Y = np.array(Y, dtype=float, order="C")
    return Y.reshape(-1, 1) if Y.ndim == 1 else Y


def public(Y):
    """The graph point through the public constructor, which symmetrizes ``W``."""
    Y = c_copy(Y)
    return PrimalPoint(Y, -0.5 * (Y @ Y.T))


def assert_same_point(got, want):
    for name in ("Y", "W"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert not a.flags.writeable


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_graph_point_is_the_public_constructors_bitwise(shape):
    rng = np.random.default_rng([30, *shape])
    y = rng.standard_normal(shape)
    for j in SCALES:
        for Y in layouts(np.ldexp(y, j)).values():
            got = graph_point(Y)
            c = c_copy(Y)
            assert got.W.tobytes() == (-0.5 * (c @ c.T)).tobytes()
            assert_same_point(got, public(Y))
            assert got.W.tobytes() == np.ascontiguousarray(got.W.T).tobytes()
            # a copy: the caller's array is neither kept nor frozen
            assert Y.flags.writeable and not np.shares_memory(got.Y, Y)


@pytest.mark.parametrize("layout", ["C", "F", "strided", "unaligned", "1-D"])
def test_an_overflowing_graph_point_raises_as_the_public_constructor(layout):
    Y = layouts(np.full((3, 2), 1e160))[layout]
    for build in (graph_point, public):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite entries"):
            build(Y)


def _band_draws():
    # Y near 1e-154 and 1e-160, where entries of Y Y^T are subnormal
    for scale in (1e-154, 1e-160):
        for shape in SHAPES:
            rng = np.random.default_rng([31, *shape])
            yield scale * rng.standard_normal(shape), rng


def test_the_subnormal_band_keeps_w_exact_and_every_hull_decision():
    moved = 0
    for y, rng in _band_draws():
        n, m = y.shape
        got = graph_point(y)
        want = public(y)
        exact = -0.5 * (y @ y.T)
        assert got.W.tobytes() == exact.tobytes()
        assert got.Y.tobytes() == want.Y.tobytes()
        moved += got.W.tobytes() != want.W.tobytes()
        a = rng.standard_normal((max(n - 2, 0), n))
        pairs = [ConstraintPair(a, a @ y), ConstraintPair(np.zeros((0, n)), np.zeros((0, m)))]
        for pair in pairs:
            for test in (in_hull, in_hull_rint, in_hull_aff, in_hull_horizon):
                assert test(got, pair) == test(want, pair)
        for strict in (False, True):
            assert in_free_hull(got, strict) == in_free_hull(want, strict)
    # the band is reached: the halve-then-double drops a bit on most draws
    assert moved >= 4


@pytest.mark.parametrize("n, m, p", [(1, 1, 0), (6, 1, 2), (6, 3, 2), (5, 2, 0), (30, 4, 10)])
@pytest.mark.parametrize("epsilon", [1e-1, 1e-4])
def test_induced_point_is_the_public_constructors_bitwise(n, m, p, epsilon):
    rng = np.random.default_rng([32, n, m, p])
    pair = rand_pair(rng, n, m, p)
    wit = caratheodory_witness(hull_member(rng, pair), pair, epsilon)
    got = wit.induced_point()
    assert_same_point(got, PrimalPoint(got.Y, got.W))
