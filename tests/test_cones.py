import numpy as np
import pytest

from gmfrac import (
    frobenius_inner,
    in_aff_polar,
    in_cone,
    in_int_cone,
    in_polar_cone,
    in_rint_polar,
    kernel_basis,
    sample_polar,
    symmetrize,
)
from helpers import cone_member, rand_sym, zero_subspace

E2 = kernel_basis(np.array([[1.0, 0.0]]))  # span{e2}
FULL2 = kernel_basis(np.zeros((0, 2)))
ZERO2 = zero_subspace(2)


def random_subspace(rng, n):
    p = int(rng.integers(0, n + 1))
    a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    return kernel_basis(a)


def test_in_cone_examples():
    assert in_cone(rand_sym(np.random.default_rng(0), 2, 5.0), ZERO2)
    assert in_cone(np.diag([-7.0, 0.0]), E2)
    assert not in_cone(np.diag([0.0, -1e-3]), E2)


def test_in_int_cone_examples():
    assert in_int_cone(np.eye(2), E2)
    assert in_int_cone(np.eye(2), FULL2)
    assert in_int_cone(np.diag([-1.0, 1.0]), E2)
    assert not in_int_cone(np.diag([1.0, 0.0]), E2)  # boundary


def test_in_polar_cone_examples():
    assert in_polar_cone(np.zeros((2, 2)), E2)
    assert in_polar_cone(np.array([[0.0, 0.0], [0.0, -3.0]]), E2)
    # support condition violated: W != P W P
    assert not in_polar_cone(-np.eye(2), E2)


def test_polar_generators_are_members():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = rng.standard_normal()
        v = g * E2.basis[:, 0]
        assert in_polar_cone(-np.outer(v, v), E2)


def test_in_aff_polar_examples():
    assert in_aff_polar(np.zeros((2, 2)), E2)
    assert in_aff_polar(np.array([[0.0, 0.0], [0.0, 5.0]]), E2)  # sign-free
    assert not in_aff_polar(np.diag([1.0, 0.0]), E2)


def test_in_rint_polar_examples():
    assert in_rint_polar(np.array([[0.0, 0.0], [0.0, -1.0]]), E2)
    assert not in_rint_polar(np.zeros((2, 2)), E2)  # boundary of the polar
    assert in_rint_polar(np.zeros((2, 2)), ZERO2)
    assert not in_rint_polar(np.diag([0.0, -1.0]), ZERO2)


def test_sample_polar_zero_subspace():
    for w in sample_polar(ZERO2, 3, 0, count=5):
        assert np.array_equal(w, np.zeros((2, 2)))


def test_sample_polar_single_generator_structure():
    w = sample_polar(E2, 1, 123)[0]
    assert np.allclose(w[0, :], 0.0)
    assert w[1, 1] <= 0.0


def test_sample_polar_membership():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        for w in sample_polar(sub, int(rng.integers(1, 4)), rng, count=20):
            assert in_polar_cone(w, sub)
            checked += 1


def test_sample_polar_rejects_bad_generator_count():
    with pytest.raises(ValueError):
        sample_polar(E2, 0, 0)


def test_sample_polar_deterministic_per_seed():
    a = sample_polar(E2, 2, 7, count=3)
    b = sample_polar(E2, 2, 7, count=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_polarity_inequality():
    rng = np.random.default_rng(2)
    tol = 1e-9
    done = 0
    while done < 1000:
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        v = cone_member(rng, sub)
        for w in sample_polar(sub, 2, rng, count=10):
            bound = tol * max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
            assert frobenius_inner(v, w) <= bound
            done += 1


def test_inclusion_chain_on_samples():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        w = sample_polar(sub, 2, rng)[0]
        if in_rint_polar(w, sub):
            assert in_polar_cone(w, sub)
        if in_polar_cone(w, sub):
            assert in_aff_polar(w, sub)


def test_int_implies_membership():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        v = rand_sym(rng, n)
        if in_int_cone(v, sub):
            assert in_cone(v, sub)


def test_cone_closed_under_conic_combinations():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        v1 = cone_member(rng, sub)
        v2 = cone_member(rng, sub)
        alpha, beta = rng.uniform(0.0, 3.0, 2)
        assert in_cone(alpha * v1 + beta * v2, sub)


def test_polar_scaling():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        sub = random_subspace(rng, n)
        w = sample_polar(sub, 2, rng)[0]
        assert in_polar_cone(w, sub)
        for t in (0.5, 2.0, 100.0):
            assert in_polar_cone(t * w, sub)


def test_asymmetric_input_decides_as_its_symmetric_part():
    # the public tests symmetrize a raw matrix once, at entry; a skew part
    # as large as the matrix itself must not change any decision
    tests = (in_cone, in_int_cone, in_polar_cone, in_rint_polar, in_aff_polar)
    seen = {test: set() for test in tests}
    rng = np.random.default_rng(31)
    for n, p in ((5, 2), (8, 3), (6, 0), (4, 1)):
        subspace = kernel_basis(rng.standard_normal((p, n)) if p else np.zeros((0, n)))
        q, k = subspace.basis, subspace.dim
        g = rng.standard_normal((k, k))
        pd = q @ (g @ g.T + 0.5 * np.eye(k)) @ q.T
        flip = np.ones(k)
        flip[0] = -1.0
        for S in (pd, -pd, q @ np.diag(flip) @ q.T, -pd + rand_sym(rng, n), rand_sym(rng, n)):
            r = rng.standard_normal((n, n))
            raw = S + np.linalg.norm(S) * (r - r.T)
            for test in tests:
                want = test(symmetrize(raw), subspace)
                assert test(raw, subspace) is want, (test.__name__, n, p)
                seen[test].add(want)
    for test in tests:
        assert seen[test] == {True, False}, test.__name__


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("test", [in_cone, in_int_cone, in_polar_cone, in_aff_polar, in_rint_polar])
def test_public_tests_reject_non_finite(test, bad):
    # a NaN matrix passes a Cholesky certificate, so it must not reach one;
    # the zero subspace, where every spectrum test is vacuous, rejects too
    full = kernel_basis(np.zeros((0, 3)))
    for subspace in (full, zero_subspace(3)):
        with pytest.raises(ValueError):
            test(np.full((3, 3), bad), subspace)
        m = -np.eye(3)
        m[0, 2] = bad
        with pytest.raises(ValueError):
            test(m, subspace)
