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

Since ``W`` is formed from the very ``Y`` the point stores, a graph point's
gap matrix ``1/2 Y Y^T + W`` is exactly zero in every layout, shape and
scale, the band included; the normal-cone and subdifferential tests read a
mark that only ``graph_point`` sets in place of forming it.
"""

import dataclasses

import numpy as np
import pytest

from gmfrac import (
    ConstraintPair,
    ConvexWitness,
    PrimalPoint,
    caratheodory_witness,
    graph_point,
    in_free_hull,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_rint,
)
from gmfrac.hull import _gap, _graph_points
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


def assert_graph_point(point):
    """The point carries the graph-point mark, and its gap is exactly zero."""
    assert point in _graph_points
    assert not _gap(point).any()


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
            assert_graph_point(got)
            assert got.W.tobytes() == np.ascontiguousarray(got.W.T).tobytes()
            # a copy: the caller's array is neither kept nor frozen
            assert Y.flags.writeable and not np.shares_memory(got.Y, Y)


@pytest.mark.parametrize("layout", ["C", "F", "strided", "unaligned", "1-D"])
def test_an_overflowing_graph_point_raises_as_the_public_constructor(layout):
    Y = layouts(np.full((3, 2), 1e160))[layout]
    # no errstate around graph_point: warnings are errors, so an overflow
    # warning from its product would reach the caller in place of the
    # ValueError; the public constructor is handed the caller's own product
    with pytest.raises(ValueError, match="finite entries"):
        graph_point(Y)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite entries"):
        public(Y)


def test_an_overflowing_induced_point_raises_value_error():
    # no errstate, as for graph_point above
    wit = ConvexWitness(np.array([0.5, 0.5]), np.full((2, 3, 2), 1e160), 0.5)
    with pytest.raises(ValueError, match="finite entries"):
        wit.induced_point()


def test_only_graph_point_marks_its_points():
    rng = np.random.default_rng(34)
    pair = rand_pair(rng, 6, 2, 2)
    graph = graph_point(rng.standard_normal((6, 2)))
    assert_graph_point(graph)
    wit = caratheodory_witness(hull_member(rng, pair), pair, 0.1)
    unmarked = [
        PrimalPoint(graph.Y, -0.5 * (graph.Y @ graph.Y.T)),
        type(graph)(graph.Y, graph.W),
        dataclasses.replace(graph),
        wit.induced_point(),
    ]
    for point in unmarked:
        assert point not in _graph_points


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
        assert_graph_point(got)
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
