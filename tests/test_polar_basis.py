"""Polar-cone tests read through the basis ``Q``, against the projector form.

``in_polar_cone``, ``in_aff_polar`` and ``in_rint_polar`` see ``ker A``
only through its orthonormal basis ``Q``.  The references here state the
same tests with the n-by-n projector ``P = Q Q^T``: the support residual
``W - P W P``, the range residual ``W - P W`` and, for the sign, a basis of
``rge P`` taken from an eigendecomposition of ``P`` itself.
"""

import numpy as np
import pytest

from gmfrac import in_aff_polar, in_polar_cone, in_rint_polar, kernel_basis
from gmfrac.linalg import _PSD_TOL, _RANGE_TOL, _compress, _outside
from helpers import projector, rand_sym


def norm(M):
    return float(np.linalg.norm(M))


def reference(W, subspace):
    """(polar, aff, rint) decisions computed from ``P`` alone."""
    P = projector(subspace)
    scale = max(1.0, norm(W))
    supported = norm(W - P @ W @ P) <= _RANGE_TOL * scale
    aff = norm(W - P @ W) <= _RANGE_TOL * scale
    w, u = np.linalg.eigh(P)
    qp = u[:, w > 0.5]
    top = float(np.linalg.eigvalsh(qp.T @ W @ qp)[-1]) if qp.shape[1] else -np.inf
    return supported and top <= _PSD_TOL, aff, supported and top < -_PSD_TOL


def subspaces(rng):
    cases = {}
    for n, p in ((5, 2), (8, 3), (12, 5)):
        cases[f"random-{n}-{p}"] = kernel_basis(rng.standard_normal((p, n)))
    cases["p=0"] = kernel_basis(np.zeros((0, 4)))
    cases["zero-subspace"] = kernel_basis(rng.standard_normal((3, 3)))
    a = rng.standard_normal((2, 6))
    cases["zero-rows"] = kernel_basis(np.vstack([a, np.zeros((1, 6)), a[:1]]))
    return cases


def polar_probes(rng, subspace):
    """Symmetric matrices on both sides of every polar and affine-hull test."""
    n, k = subspace.dim_ambient, subspace.dim
    q = subspace.basis
    g = rng.standard_normal((k, k))
    pd = g @ g.T + 0.5 * np.eye(k)
    h = rng.standard_normal((k, max(k - 1, 0)))
    # eigenvalue -1 once and +1 otherwise: indefinite on the subspace for k >= 2
    flip = np.ones(k)
    flip[:1] = -1.0
    outside = rand_sym(rng, n)
    outside = outside - q @ (q.T @ outside @ q) @ q.T
    outside /= max(norm(outside), 1.0)
    inner = -q @ pd @ q.T
    probes = [
        inner,
        -q @ (h @ h.T) @ q.T,
        q @ pd @ q.T,
        q @ np.diag(flip) @ q.T,
        inner + 1e-6 * norm(inner) * outside,
        inner + 1e-11 * norm(inner) * outside,
        rand_sym(rng, n),
        np.zeros((n, n)),
    ]
    return [scale * 0.5 * (w + w.T) for w in probes for scale in (1.0, 1e3)]


def test_basis_tests_match_projector_references():
    rng = np.random.default_rng(7)
    seen = set()
    for name, subspace in subspaces(rng).items():
        P = projector(subspace)
        q = subspace.basis
        for W in polar_probes(rng, subspace):
            atol = 1e-12 * max(1.0, norm(W))
            c = _compress(W, subspace)
            assert norm(W - q @ c @ q.T) == pytest.approx(norm(W - P @ W @ P), abs=atol), name
            assert norm(_outside(W, subspace)) == pytest.approx(norm(W - P @ W), abs=atol), name
            got = (
                in_polar_cone(W, subspace),
                in_aff_polar(W, subspace),
                in_rint_polar(W, subspace),
            )
            assert got == reference(W, subspace), name
            seen.add(got)
    # the probes reach both outcomes of every test
    for i in range(3):
        assert {d[i] for d in seen} == {True, False}
