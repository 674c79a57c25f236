"""Dense factorizations per call, counted by wrapping ``numpy.linalg``.

Every factorizing entry point of ``numpy.linalg`` is counted, linear solves
included.  Each matrix object is factorized once: a ``ConstraintPair`` by
one QR of ``A^T`` where one Cholesky of ``A A^T`` certifies full row rank,
else by one SVD of ``A``, a sign test away from its threshold by one Cholesky of a
shifted k-by-k compression (two when it rejects, one where a diagonal entry
already lies below the reject threshold).  ``eigh`` decides only inside
the Cholesky rounding band, as where the reduced Hessian ``H = Q^T V Q`` is
singular, and there the same ``eigh`` gives the kept eigenpairs.  A support
solve adds one LU ``solve`` with ``H`` where the Cholesky certifies ``H``
nonsingular, and nothing where ``H`` is singular: the one ``eigh`` of
``H`` decides its sign and rank and gives ``H^+``.  The gauge does the same
with ``-C = -Q^T W Q``: the one Cholesky that passes its sign test
certifies it nonsingular and ``(-W)^+`` is one LU ``solve``; a singular
``-C`` takes its sign, rank and kept eigenpairs from one ``eigh``, and the
reduced matrix takes one ``eigh`` on either path.
The witness adds one ``eigh`` after its sign test has passed.  The names
of the tests that say ``eigvalsh`` predate the Cholesky sign test and the
move of every in-band decision to ``eigh``; each pin below is the count.
The two most recent support solves are memoized by their point and pair,
whether ``eval_support`` or ``in_domain`` took them: a repeated call on one
of them takes no factorization, so each pin of a first solve is taken on a
fresh ``DualPoint``, and the domain test costs what the solve does.
Subspace tests read the kernel basis ``Q`` and never factorize the n-by-n
projector onto ``ker A``.  In the same way each n-by-n matrix is
symmetrized at most once: a point when it is built; a gap matrix is
symmetric by construction and never is.
"""

import sys

import numpy as np
import pytest

import gmfrac
from gmfrac import (
    ConstraintPair,
    DualPoint,
    InfeasiblePairError,
    PrimalPoint,
    SubspaceBasis,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_support,
    graph_point,
    in_domain,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_rint,
    in_normal_cone,
    in_subdifferential,
)
from helpers import (
    feasible_matrix,
    gauge_instance,
    hull_member,
    interior_dual,
    projector,
    rand_pair,
    rand_zero_pair,
    rint_member,
    taken,
)
from test_null_space import singular_hessian_point


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20)])
def test_pair_is_one_qr_where_certified_else_one_svd(counts, n, m, p):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((p, n))
    # full row rank, certified by one Cholesky of A A^T: one QR of A^T and
    # the inverse of its triangular factor, with or without a right-hand side
    certified = {"cholesky": 1, "qr": 1, "inv": 1}
    ConstraintPair(a, a @ rng.standard_normal((n, m)))
    assert taken(counts) == certified
    ConstraintPair(a, np.zeros((p, m)))
    assert taken(counts) == certified
    # the certificate declines after its one Cholesky, and one SVD decides
    declined = {"cholesky": 1, "svd": 1}
    low_rank = a[:1].repeat(p, axis=0)
    ConstraintPair(low_rank, low_rank @ rng.standard_normal((n, m)))
    assert taken(counts) == declined
    with pytest.raises(InfeasiblePairError):
        ConstraintPair(low_rank, rng.standard_normal((p, m)))
    assert taken(counts) == declined
    zero_row = np.vstack([a[1:], np.zeros((1, n))])
    ConstraintPair(zero_row, zero_row @ rng.standard_normal((n, m)))
    assert taken(counts) == declined
    # p > n and A = 0 take no certificate
    tall = rng.standard_normal((n + 1, n))
    ConstraintPair(tall, tall @ rng.standard_normal((n, m)))
    assert taken(counts) == {"svd": 1}
    ConstraintPair(np.zeros((p, n)), np.zeros((p, m)))
    assert taken(counts) == {"svd": 1}
    ConstraintPair(np.zeros((0, n)), np.zeros((0, m)))
    assert taken(counts) == {}


def test_unconstrained_pair_needs_no_factorization(counts):
    ConstraintPair(np.zeros((0, 5)), np.zeros((0, 2)))
    assert taken(counts) == {}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_support_and_domain_decide_by_one_eigvalsh(counts, compressed, n, m, p):
    rng = np.random.default_rng(1)
    pair = rand_pair(rng, n, m, p)
    point = interior_dual(rng, pair)
    taken(counts)
    assert eval_support(point, pair).finite
    assert taken(counts) == {"cholesky": 1, "solve": 1}
    # the same point again reads the memo of that solve
    assert eval_support(point, pair).finite
    assert in_domain(point, pair)
    assert taken(counts) == {}
    # the domain test is the same solve, so it costs what eval_support does,
    # and a support call after it reads the memo: one compression in all
    fresh = DualPoint(point.X, point.V)
    del compressed[:]
    assert in_domain(fresh, pair)
    assert taken(counts) == {"cholesky": 1, "solve": 1}
    assert eval_support(fresh, pair).finite
    assert taken(counts) == {}
    assert len(compressed) == 1
    # H = -I: its diagonal proves the reject once the accept has failed
    outside = DualPoint(point.X, -np.eye(n))
    assert not eval_support(outside, pair).finite
    assert taken(counts) == {"cholesky": 1}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20)])
def test_subdifferential_is_two_eigvalsh(counts, compressed, n, m, p):
    rng = np.random.default_rng(2)
    pair = rand_pair(rng, n, m, p)
    point = interior_dual(rng, pair)
    sub = canonical_subgradient(point, pair)
    others = [graph_point(feasible_matrix(rng, pair)) for _ in range(2)]
    fresh = DualPoint(point.X, point.V)
    taken(counts)
    del compressed[:]
    # the domain test's solve, once for three calls at the fresh dual; a
    # graph point's gap matrix is exactly 0 and takes no hull test
    assert in_subdifferential(sub.point, fresh, pair)
    for other in others:
        in_subdifferential(other, fresh, pair)
    assert taken(counts) == {"cholesky": 1, "solve": 1}
    assert len(compressed) == 1 and compressed[0] is fresh.V
    # the subgradient's own dual point reads the memo of its solve
    assert in_subdifferential(sub.point, point, pair)
    assert taken(counts) == {}


def test_dual_solve_request_solves_each_point_once(counts):
    # the calls of one perfbench dual-solve request, less its probe: 6
    # support-layer calls on 3 dual points, of which 3 read the memo
    rng = np.random.default_rng(2)
    pair = rand_pair(rng, 50, 5, 20)
    d = interior_dual(rng, pair)
    half = DualPoint(0.5 * d.X, 0.5 * d.V)
    out = DualPoint(d.X, d.V - (np.linalg.norm(d.V, 2) + 1.0) * projector(pair.kernel))
    taken(counts)
    assert eval_support(d, pair).finite
    assert eval_support(half, pair).finite
    sub = canonical_subgradient(d, pair)
    assert in_subdifferential(sub.point, d, pair)
    in_hull_polar(half, pair)
    assert not eval_support(out, pair).finite
    assert taken(counts) == {"cholesky": 3, "solve": 2}


@pytest.mark.parametrize("n, p", [(4, 1), (6, 2), (3, 0)])
def test_singular_hessian_adds_one_eigh(counts, n, p):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    pair = ConstraintPair(a, a @ rng.standard_normal((n, 2)))
    point = singular_hessian_point(rng, pair, False)
    taken(counts)
    # neither Cholesky certificate decides a singular H, and one eigh of H
    # decides its sign and rank and gives H^+
    assert eval_support(point, pair).finite
    assert taken(counts) == {"cholesky": 2, "eigh": 1}
    assert in_domain(DualPoint(point.X, point.V), pair)
    assert taken(counts) == {"cholesky": 2, "eigh": 1}
    assert in_domain(point, pair)
    assert taken(counts) == {}


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_hull_rint_is_one_eigvalsh_and_aff_is_none(counts, n, m, p):
    rng = np.random.default_rng(3)
    pair = rand_pair(rng, n, m, p)
    point = rint_member(rng, pair)
    taken(counts)
    assert in_hull_rint(point, pair)
    assert taken(counts) == {"cholesky": 1}
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
    # one Cholesky passes the sign test and certifies -C nonsingular: (-W)^+
    # is one LU solve, and the only eigh is the reduced m-by-m matrix's
    assert eval_gauge(point, pair).finite
    assert taken(counts) == {"cholesky": 1, "solve": 1, "svd": 1, "eigh": 1}
    assert all(shape[0] <= m for shape in eigh_shapes)


@pytest.mark.parametrize("n, m, p", [(4, 1, 1), (50, 5, 20), (6, 2, 0)])
def test_singular_gauge_keeps_the_eigh(counts, eigh_shapes, n, m, p):
    rng = np.random.default_rng(4)
    pair = rand_zero_pair(rng, n, m, p)
    q = pair.kernel.basis
    k = pair.kernel.dim
    # -C = G G^T of rank k - 1, and rge Y inside Q rge G
    g = q @ rng.standard_normal((k, k - 1))
    y = g @ rng.standard_normal((k - 1, m))
    point = PrimalPoint(y, -(g @ g.T))
    taken(counts)
    # the certificate's accept and reject Cholesky both run, leaving the band:
    # one eigh of -C decides its sign and gives the kept eigenpairs of (-W)^+
    assert eval_gauge(point, pair).finite
    assert taken(counts) == {"cholesky": 2, "svd": 1, "eigh": 2}
    assert eigh_shapes[0] == (k, k)


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (30, 2, 10), (5, 1, 0)])
def test_witness_eigh_is_k_by_k(counts, eigh_shapes, n, m, p):
    rng = np.random.default_rng(5)
    pair = rand_pair(rng, n, m, p)
    point = hull_member(rng, pair)
    taken(counts)
    caratheodory_witness(point, pair, 1e-3)
    assert taken(counts) == {"cholesky": 1, "eigh": 1}
    k = pair.kernel.dim
    assert eigh_shapes == [(k, k)]


def test_witness_distance_takes_no_factorization(counts):
    rng = np.random.default_rng(5)
    pair = rand_pair(rng, 50, 5, 20)
    point = hull_member(rng, pair)
    wit = caratheodory_witness(point, pair, 1e-3)
    taken(counts)
    wit.distance_to(point)
    assert taken(counts) == {}


@pytest.fixture
def symmetrized(monkeypatch):
    """Shapes of the arguments of ``symmetrize``, through every gmfrac binding."""
    shapes = []
    original = gmfrac.linalg.symmetrize

    def recorded(S):
        shapes.append(np.shape(S))
        return original(S)

    for name, module in list(sys.modules.items()):
        if name == "gmfrac" or name.startswith("gmfrac."):
            if getattr(module, "symmetrize", None) is original:
                monkeypatch.setattr(module, "symmetrize", recorded)
    return shapes


@pytest.mark.parametrize("n, m, p", [(7, 2, 3), (50, 5, 20)])
def test_each_n_by_n_matrix_is_symmetrized_once(symmetrized, n, m, p):
    rng = np.random.default_rng(6)
    pair = rand_pair(rng, n, m, p)
    point = rint_member(rng, pair)
    dual = interior_dual(rng, pair)
    horizon = PrimalPoint(np.zeros((n, m)), point.W + 0.5 * (point.Y @ point.Y.T))
    gauge_pair, y, w = gauge_instance(rng, n, m, p)
    gauge_point = PrimalPoint(y, w)
    sub = canonical_subgradient(dual, pair)

    def square(call):
        del symmetrized[:]
        assert call()
        return sum(shape == (n, n) for shape in symmetrized)

    # the subgradient's W, when its point is built
    assert square(lambda: canonical_subgradient(dual, pair)) == 0
    # a gap matrix, symmetric by construction (test_hull's bitwise check),
    # or the point's own V or W, symmetric since it was built
    assert square(lambda: in_hull(point, pair)) == 0
    assert square(lambda: in_hull_rint(point, pair)) == 0
    assert square(lambda: in_hull_aff(point, pair)) == 0
    assert square(lambda: in_normal_cone(dual, sub.point, pair)) == 0
    assert square(lambda: in_subdifferential(sub.point, dual, pair)) == 0
    assert square(lambda: in_hull_horizon(horizon, pair)) == 0
    assert square(lambda: eval_support(dual, pair).finite) == 0
    assert square(lambda: in_domain(dual, pair)) == 0
    assert square(lambda: eval_gauge(gauge_point, gauge_pair).finite) == 0


@pytest.fixture
def compressed(monkeypatch):
    """Arguments of ``_compress``, through every gmfrac binding."""
    operands = []
    original = gmfrac.linalg._compress

    def recorded(V, subspace):
        operands.append(V)
        return original(V, subspace)

    for name, module in list(sys.modules.items()):
        if name == "gmfrac" or name.startswith("gmfrac."):
            if getattr(module, "_compress", None) is original:
                monkeypatch.setattr(module, "_compress", recorded)
    return operands


class _Products(np.ndarray):
    """A basis that records the shape of every matrix product it enters."""

    shapes = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [np.asarray(x) if isinstance(x, _Products) else x for x in inputs]
        out = getattr(ufunc, method)(*args, **kwargs)
        if ufunc is np.matmul:
            self.shapes.append(np.shape(out))
        return out


@pytest.fixture
def basis_products(monkeypatch):
    """Shapes of the products that read a pair's kernel basis ``Q``."""
    shapes = []
    monkeypatch.setattr(_Products, "shapes", shapes)

    def watch(pair):
        basis = pair.kernel.basis.view(_Products)
        monkeypatch.setattr(pair, "kernel", SubspaceBasis(basis))
        return pair

    return shapes, watch


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20), (6, 2, 0)])
def test_graph_point_gap_takes_no_compression(compressed, n, m, p):
    rng = np.random.default_rng(8)
    pair = rand_pair(rng, n, m, p)
    dual = interior_dual(rng, pair)
    point = canonical_subgradient(dual, pair).point
    del compressed[:]
    assert in_hull(point, pair)
    assert compressed == []
    # only the cone test on V
    assert in_normal_cone(dual, point, pair)
    assert len(compressed) == 1 and compressed[0] is dual.V
    # only the domain's H = Q^T V Q of a dual point not solved before
    fresh = DualPoint(dual.X, dual.V)
    del compressed[:]
    assert in_subdifferential(point, fresh, pair)
    assert len(compressed) == 1 and compressed[0] is fresh.V
    # none for the subgradient's own dual point, which reads the memo
    del compressed[:]
    assert in_subdifferential(point, dual, pair)
    assert compressed == []


@pytest.mark.parametrize("n, m, p", [(7, 2, 3), (50, 5, 20)])
def test_sign_rejected_hull_test_forms_no_reconstruction(basis_products, n, m, p):
    shapes, watch = basis_products
    rng = np.random.default_rng(9)
    pair = watch(rand_pair(rng, n, m, p))
    point = rint_member(rng, pair)
    q = pair.kernel.basis
    # positive on ker A: the sign test rejects, the support test would pass
    rejected = PrimalPoint(point.Y, point.W + 10.0 * (q @ q.T))
    del shapes[:]
    assert not in_hull(rejected, pair)
    assert (n, n) not in shapes
    assert shapes
    # an accepted point forms Q C Q^T once
    del shapes[:]
    assert in_hull(point, pair)
    assert shapes.count((n, n)) == 1
