"""The cone of matrices with nonnegative quadratic form on a subspace.

For a subspace S of R^n with orthonormal basis Q, the cone is
``{V symmetric : u^T V u >= 0 for all u in S}``, equivalently
``{V : Q^T V Q >= 0}``.  This module provides membership tests for the cone,
its interior, its polar ``{W : W = Q (Q^T W Q) Q^T, Q^T W Q <= 0}``, the
affine hull of the polar ``{W : rge W subset S}``, the relative interior of
the polar, and a sampler of polar elements built from the generating set
``{-v v^T : v in S}``.  Every test reads the k-by-k compression
``Q^T W Q`` or the part of ``W`` outside S; none forms the n-by-n
projector onto S.  Both residuals outside S, ``linalg._outside`` for the
affine hull and ``linalg._off_subspace`` for the polar cone, choose in
:mod:`gmfrac.linalg` the basis they are read from: the n-by-r basis ``U``
of the complement where the :class:`gmfrac.linalg.SubspaceBasis` stores
it, which it does when it was split from ``A`` with ``r < k``, and ``Q``
otherwise.  Each cone test is one sign test ``_psd`` of
:mod:`gmfrac.linalg` on a k-by-k compression: a Cholesky factorization
decides it outside a rounding band, and ``eigh`` inside; on the zero
subspace the empty spectrum passes it.

A polar test is the AND of a sign test and a support test, and
``_polar_form`` takes them in order of cost, for every caller: the polar
and relative-interior tests, the hull tests, the hull witness and the
gauge.  An exactly zero ``W`` has ``C = Q^T W Q = 0`` and takes no product:
it lies in the polar cone, and in its relative interior only on the zero
subspace.  Otherwise the k-by-k sign test of ``-C`` runs first, and the
support residual ``||W - Q C Q^T||_F`` only once it has passed: as
``hypot(||U^T W||_F, ||U^T W Q||_F)`` where ``U`` is stored, which forms no
n-by-n matrix, and from the n-by-n ``W - Q C Q^T`` otherwise, both by
``linalg._off_subspace``.  Both tests are pure predicates, so the order
changes no answer.  With ``U`` stored the support residual is at least the
aff residual ``||U^T W||_F``, read from the same product, so polar
membership implies aff membership.  The hull witness reads the kept
eigenpairs of the ``-C`` that passed from ``linalg._eig_kept``; the gauge
takes its sign test, its rank and its kept eigenpairs of ``-C`` from one
call, ``linalg._psd_kept``, whose one Cholesky decides the first two
outside its rounding band and whose one ``eigh`` decides all three inside
it.  The thresholds are applied by the rules of
:mod:`gmfrac.linalg`, and ``_polar_form`` keeps only the order of the
tests.  The hull tests hand ``_polar_form`` and ``_in_aff_polar`` a record
of the tests already taken on a point's gap, from the memo of
:mod:`gmfrac.hull`, with a function that builds the gap: a test the record
holds is read from it, in the same order, and the gap is built only for a
test it does not hold.

The subspace is checked once, when its :class:`gmfrac.linalg.SubspaceBasis`
is built, which rejects a basis that is not a finite 2-D array; only the
split of ``ker A`` stores a complement, so no test here checks one.  The
public tests take a raw matrix through one entry, ``_entry``, which
rejects with ``ValueError`` a matrix that is not n-by-n for the subspace
or not finite, and symmetrizes the matrix once.
The private predicates ``_in_cone``, ``_in_polar``, ``_in_aff_polar`` and
``_polar_form`` take a matrix that is symmetric by construction (a point's
``V`` or ``W``, or a gap matrix, built symmetric bit for bit); the
hull, normal-cone and gauge tests call them, and never the public tests,
so no matrix is symmetrized twice.
"""

import numpy as np

from .linalg import (
    _compress,
    _norm,
    _off_subspace,
    _outside,
    _psd,
    _psd_kept,
    _small,
    symmetrize,
)

__all__ = [
    "in_cone",
    "in_int_cone",
    "in_polar_cone",
    "in_aff_polar",
    "in_rint_polar",
    "sample_polar",
]


def _entry(M, subspace):
    # the raw matrix of a public test, rejected unless n-by-n for the
    # subspace (the zero-W shortcut takes no product that would catch it)
    # and finite (a NaN would pass a Cholesky certificate), and symmetrized
    # once, against a subspace that was checked when it was built
    n = subspace.dim_ambient
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"matrix must be {n}x{n} for this subspace, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix must have finite entries")
    return symmetrize(M)


def in_cone(V, subspace):
    """True iff ``u^T V u >= 0`` for all ``u`` in the subspace.

    Tested as ``lambda_min(Q^T V Q) >= -1e-9``, as read from ``eigh`` and
    decided by a Cholesky factorization away from the threshold;
    vacuously true on the zero subspace.  Raises ``ValueError`` on a
    non-finite ``V`` or one that is not n-by-n for the subspace.
    """
    return _in_cone(_entry(V, subspace), subspace)


def in_int_cone(V, subspace):
    """True iff ``u^T V u > 0`` for all nonzero ``u`` in the subspace.

    Tested as ``lambda_min(Q^T V Q) > 1e-9`` (stability under
    perturbation of that size); vacuously true on the zero subspace.
    Raises ``ValueError`` on a non-finite ``V`` or one that is not n-by-n
    for the subspace.
    """
    return _in_cone(_entry(V, subspace), subspace, strict=True)


def _in_cone(V, subspace, strict=False):
    # cone membership of a symmetric V, of its interior when strict
    return _psd(_compress(V, subspace), strict)


def _polar_form(W, subspace, strict=False, rank=False, record=None):
    # -C for C = sym(Q^T W Q) if the symmetric W lies in the polar cone (in
    # its relative interior when strict), and None if it does not; with
    # rank, the pair (-C, kept) in place of -C, where kept is
    # linalg._psd_kept's: None where its one Cholesky certifies -C
    # nonsingular, else the kept eigenpairs of the eigh that took the sign
    # test.  The tests run in order of cost: an exactly zero W has C = 0 and
    # needs no product; otherwise the k-by-k sign test of -C runs first, and
    # the support residual only once it has passed.  That residual, of norm
    # ||W - Q C Q^T||_F, is linalg._off_subspace's, which chooses the basis
    # it is read from.  Only the k-by-k C is symmetrized, by _compress.
    # With record, the dict of the tests already taken on one matrix (a
    # hull memo entry's, see gmfrac.hull), W is a function that builds the
    # matrix, called at most once and only when a test the record does not
    # hold needs it, and each test taken here is recorded: "neg", the
    # read-only -C (zero for a zero W, whose support test then passes with
    # no product); "sign" and "strict", the two sign tests; "support"; and
    # "aff", the test of _in_aff_polar, read from the support residual's own
    # product where that is U^T W.  The rank form takes no record.
    if record is None:
        record, build = {}, None
    else:
        build, W = W, None
    neg = record.get("neg")
    if neg is None:
        W = build() if W is None else W
        if W.any():
            neg = -_compress(W, subspace)
        else:
            neg = np.zeros((subspace.dim, subspace.dim))
            record["support"] = True
        neg.setflags(write=False)
        record["neg"] = neg
    test = "strict" if strict else "sign"
    psd, kept = _psd_kept(neg) if rank else (record.get(test), None)
    if psd is None:
        psd = record[test] = _psd(neg, strict)
    if not psd:
        return None
    support = record.get("support")
    if support is None:
        W = build() if W is None else W
        resid, outside = _off_subspace(W, neg, subspace)
        norm = _norm(W)
        support = record["support"] = _small(resid, norm)
        if outside is not None:
            record["aff"] = _small(outside, norm)
    if not support:
        return None
    return (neg, kept) if rank else neg


def in_polar_cone(W, subspace):
    """Polar-cone membership: ``W = Q C Q^T`` and ``C <= 0`` for ``C = Q^T W Q``.

    The sign condition on the subspace must satisfy
    ``lambda_max(C) <= 1e-9``; the support condition is tested as a
    relative residual, ``||W - Q C Q^T||_F <= 1e-9 * max(1, ||W||_F)``,
    and only once the sign condition holds.  It is the condition
    ``rge W subset S`` of :func:`in_aff_polar` at the same threshold, on a
    residual at least as large, so every member lies in the affine hull.
    The zero matrix is a member and takes no product.  For the zero
    subspace the polar is ``{0}``.  Raises ``ValueError`` on a non-finite
    ``W`` or one that is not n-by-n for the subspace.
    """
    return _in_polar(_entry(W, subspace), subspace)


def _in_polar(W, subspace, strict=False, record=None):
    # polar-cone membership of a symmetric W, of its relative interior when
    # strict; with a record, W and the record are as in _polar_form
    return _polar_form(W, subspace, strict, record=record) is not None


def in_aff_polar(W, subspace):
    """Affine hull of the polar cone: ``rge W subset S`` (sign-free).

    Tested as ``||W - Q Q^T W||_F <= 1e-9 * max(1, ||W||_F)``.  Raises
    ``ValueError`` on a non-finite ``W`` or one that is not n-by-n for the
    subspace.
    """
    return _in_aff_polar(_entry(W, subspace), subspace)


def _in_aff_polar(W, subspace, record=None):
    # the test of in_aff_polar on a symmetric W; with a record, W and the
    # record are as in _polar_form, and the test is read from the record
    # where a support test through U or an earlier call took it
    if record is None:
        return _small(_outside(W, subspace), W)
    aff = record.get("aff")
    if aff is None:
        aff = record["aff"] = _in_aff_polar(W(), subspace)
    return aff


def in_rint_polar(W, subspace):
    """Relative interior of the polar cone.

    For a nonzero subspace this means polar membership plus a strictly
    negative form on the subspace (``lambda_max(Q^T W Q) < -1e-9``), the
    sign test taken first and the support test only once it has passed; the
    zero matrix is not a member.  For the zero subspace the polar is ``{0}``
    and its relative interior is ``{0}`` as well: ``Q^T W Q`` is empty, so
    its spectrum passes the sign test vacuously and only the support test on
    ``W`` remains, and the zero matrix is a member.  Raises ``ValueError`` on
    a non-finite ``W`` or one that is not n-by-n for the subspace.
    """
    return _in_polar(_entry(W, subspace), subspace, strict=True)


def sample_polar(subspace, generators, rng, count=1):
    """Draw random elements of the polar cone.

    Each sample is ``W = -sum_{i<=r} lam_i v_i v_i^T`` with ``r =
    generators`` rank-one terms, weights ``lam_i = |N(0,1)|`` and directions
    ``v_i = Q g_i`` for ``g_i ~ N(0, I_k)``.  On the zero subspace every
    sample is the zero matrix.

    Parameters
    ----------
    subspace : SubspaceBasis
    generators : int
        Number of rank-one terms per sample, at least 1.
    rng : int or numpy.random.Generator
    count : int
        Number of samples to return.

    Returns
    -------
    list of ndarray
        ``count`` symmetric n-by-n matrices, each passing ``in_polar_cone``.
    """
    if generators < 1:
        raise ValueError("generators must be >= 1")
    rng = np.random.default_rng(rng)
    n, k = subspace.dim_ambient, subspace.dim
    out = []
    for _ in range(count):
        if k == 0:
            out.append(np.zeros((n, n)))
            continue
        lam = np.abs(rng.standard_normal(generators))
        g = rng.standard_normal((k, generators))
        v = subspace.basis @ g
        out.append(symmetrize(-(v * lam) @ v.T))
    return out
