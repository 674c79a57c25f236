import ast
import math
from pathlib import Path

import numpy as np
import pytest

import gmfrac
from gmfrac import (
    ConstraintPair,
    DualPoint,
    PrimalPoint,
    eval_support,
    frobenius_inner,
    in_cone,
    in_hull,
    in_hull_aff,
    in_int_cone,
    in_polar_cone,
    kernel_basis,
    symmetrize,
)
from gmfrac.linalg import _RANGE_TOL, _norm, _small
from helpers import (
    point_norm,
    projector,
    rand_sym,
    range_inclusion,
    sym_eig,
    sym_pinv,
    taken,
    zero_subspace,
)

EPS = np.finfo(float).eps


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


@pytest.mark.filterwarnings("error")
def test_symmetrize_does_not_overflow_on_finite_input():
    # S/2 + S^T/2 stays finite where S + S^T would overflow, and gives the
    # bits of (S + S^T)/2 wherever that sum neither overflows nor underflows
    big = np.full((2, 2), 1e308)
    np.testing.assert_array_equal(symmetrize(big), big)
    full = kernel_basis(np.zeros((0, 2)))
    assert in_cone(big, full)
    assert in_polar_cone(-big, full)
    np.testing.assert_array_equal(DualPoint(np.ones((2, 1)), -big).V, -big)
    rng = np.random.default_rng(29)
    for n in (1, 3, 8):
        s = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-200, 200, (n, n))
        assert symmetrize(s).tobytes() == (0.5 * (s + s.T)).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 3, 8, 200])
def test_symmetrize_is_the_sum_of_the_rounded_halves(n):
    # entry by entry 0.5 s_ij + 0.5 s_ji in IEEE double, bit for bit, and
    # exactly symmetric: at the scale 1e300, where s_ij + s_ji may overflow,
    # and on subnormal entries, whose halves round
    rng = np.random.default_rng(31)
    tiny = np.finfo(float).tiny
    big = np.ldexp(rng.uniform(-1.0, 1.0, (n, n)), rng.integers(990, 1025, (n, n)))
    sub = tiny * rng.uniform(-1.0, 1.0, (n, n))
    sub[rng.random((n, n)) < 0.3] = 5e-324
    for s in (big, sub, np.where(rng.random((n, n)) < 0.5, big, sub)):
        h = symmetrize(s)
        assert np.isfinite(h).all()
        assert h.tobytes() == h.T.tobytes()
        if n <= 8:
            ref = [[0.5 * float(s[i, j]) + 0.5 * float(s[j, i]) for j in range(n)] for i in range(n)]
        else:
            ref = np.multiply(s.T, 0.5) + np.multiply(s, 0.5)
        assert h.tobytes() == np.array(ref, dtype=float).tobytes()


# sym_eig, sym_pinv and range_inclusion are the references of tests/helpers.py
# that the saddle matrix closed form is computed with (test_null_space.py)


def test_sym_eig_diagonal():
    sd = sym_eig(np.diag([2.0, 1.0]))
    assert np.allclose(sd.eigenvalues, [2.0, 1.0])
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(2))


def test_sym_eig_zero():
    sd = sym_eig(np.zeros((2, 2)))
    assert np.allclose(sd.eigenvalues, [0.0, 0.0])


def test_sym_eig_offdiagonal_matches_characteristic_roots():
    # characteristic polynomial of [[0,1],[1,0]] is lambda^2 - 1
    roots = np.sort(np.roots([1.0, 0.0, -1.0]))[::-1]
    sd = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sd.eigenvalues, roots)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = rand_sym(rng, n, scale=3.0)
        sd = sym_eig(s)
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
        bound = 1e-8 * max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(rebuilt - s) <= bound
        assert np.all(np.diff(sd.eigenvalues) <= 1e-12)
        assert np.allclose(sd.eigenvectors.T @ sd.eigenvectors, np.eye(n), atol=1e-12)


def test_pinv_identity_and_diagonal():
    assert np.allclose(sym_pinv(np.eye(3)), np.eye(3))
    assert np.allclose(sym_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_saddle_fixture_is_true_inverse():
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    mp = sym_pinv(m)
    assert np.allclose(m @ mp, np.eye(3), atol=1e-12)
    assert np.allclose(mp, np.linalg.inv(m), atol=1e-12)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = rand_sym(rng, n)
        if rng.uniform() < 0.3 and n > 1:
            # force rank deficiency
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            w = rng.standard_normal(n)
            w[: int(rng.integers(1, n))] = 0.0
            m = symmetrize((q * w) @ q.T)
        mp = sym_pinv(m)
        bound = 1e-8 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(m @ mp @ m - m) <= bound
        assert np.linalg.norm(mp @ m @ mp - mp) <= bound
        assert np.linalg.norm((m @ mp) - (m @ mp).T) <= bound
        assert np.linalg.norm((mp @ m) - (mp @ m).T) <= bound


def test_pinv_rank_cutoff():
    # eigenvalue at 1e-14 of the largest is below _RANK_TOL = 1e-10 and must vanish
    m = np.diag([1.0, 1e-14])
    assert np.allclose(sym_pinv(m), np.diag([1.0, 0.0]))


def test_kernel_basis_coordinate():
    basis = kernel_basis(np.array([[1.0, 0.0]]))
    assert basis.dim == 1
    assert np.allclose(np.abs(basis.basis.ravel()), [0.0, 1.0])
    assert np.allclose(projector(basis), np.diag([0.0, 1.0]))


def test_kernel_basis_zero_map():
    basis = kernel_basis(np.zeros((1, 1)))
    assert basis.dim == 1
    assert np.allclose(projector(basis), [[1.0]])


def test_kernel_basis_no_rows():
    basis = kernel_basis(np.zeros((0, 3)))
    assert basis.dim == 3
    assert np.allclose(projector(basis), np.eye(3))


def test_kernel_basis_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    # SVD oracle: rank(A) = 1, so the kernel is one-dimensional
    assert np.linalg.matrix_rank(a) == 1
    basis = kernel_basis(a)
    assert basis.dim == 1
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(float(direction @ basis.basis.ravel())) == pytest.approx(1.0)


def test_kernel_basis_properties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(0, n + 2))
        a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
        basis = kernel_basis(a)
        q = basis.basis
        assert np.linalg.norm(a @ q) <= 1e-9 * max(1.0, np.linalg.norm(a))
        rank_a = np.linalg.matrix_rank(a) if p else 0
        assert basis.dim + rank_a == n
        assert np.allclose(q.T @ q, np.eye(basis.dim), atol=1e-12)
        p_mat = projector(basis)
        assert np.allclose(p_mat, p_mat.T)
        assert np.linalg.norm(p_mat @ p_mat - p_mat) <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_basis_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        kernel_basis(np.array([[bad, 0.0, 0.0]]))


def test_kernel_basis_is_the_pair_kernel_with_no_inverse(counts):
    # one body for ker A: the same bits as the pair's kernel, from one QR
    # where one Cholesky certifies full row rank and one SVD elsewhere (none
    # when p = 0); kernel_basis forms no inverse of the QR's triangular factor
    rng = np.random.default_rng(30)
    a = rng.standard_normal((3, 6))
    declined = {"cholesky": 1, "svd": 1}
    cases = [
        (np.zeros((0, 5)), {}, {}),
        (np.zeros((2, 4)), {"svd": 1}, {"svd": 1}),
        (np.vstack([a[:2], np.zeros((1, 6)), a[2:]]), declined, declined),
        (a[:1].repeat(3, axis=0), declined, declined),
        (a, {"cholesky": 1, "qr": 1}, {"cholesky": 1, "qr": 1, "inv": 1}),
    ]
    for A, alone, paired in cases:
        B = A @ rng.standard_normal((A.shape[1], 2))
        basis = kernel_basis(A).basis
        assert taken(counts) == alone
        pair_basis = ConstraintPair(A, B).kernel.basis
        assert taken(counts) == paired
        assert basis.shape == pair_basis.shape
        assert basis.tobytes() == pair_basis.tobytes()


def test_range_inclusion_zero_and_diagonal():
    m = np.diag([1.0, 0.0])
    assert range_inclusion(np.zeros((2, 1)), m)
    assert range_inclusion(np.array([1.0, 0.0]), m)
    assert not range_inclusion(np.array([0.0, 1.0]), m)


def test_range_inclusion_nonclosed_counterexample():
    # stacked (X; B) = (1, 0) against the zero saddle matrix of A = B = [0]
    c = np.array([[1.0], [0.0]])
    assert not range_inclusion(c, np.zeros((2, 2)))


def test_range_inclusion_monotone_under_padding():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        r = int(rng.integers(1, n))
        m = (q[:, :r] * rng.uniform(0.5, 2.0, r)) @ q[:, :r].T
        inside = q[:, :r] @ rng.standard_normal((r, 2))
        outside = q[:, [r]]  # orthogonal to rge M
        assert range_inclusion(inside, m)
        assert not range_inclusion(outside, m)
        if r + 1 < n:
            # pad M with a direction orthogonal to rge M and to the outside column
            pad = q[:, [r + 1]] @ q[:, [r + 1]].T
            assert range_inclusion(inside, m + pad)
            assert not range_inclusion(outside, m + pad)


# the PSD-on-a-subspace test is in_cone, and its strict form in_int_cone


def test_psd_on_subspace_examples():
    full = kernel_basis(np.zeros((0, 2)))
    e2 = kernel_basis(np.array([[1.0, 0.0]]))
    assert in_cone(np.eye(2), full)
    assert in_int_cone(np.eye(2), full)
    assert in_cone(np.diag([-5.0, 1.0]), e2)
    assert not in_cone(np.diag([5.0, -1.0]), e2)
    # sym_eig oracle: lambda_min of [[0,1],[1,0]] is -1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sym_eig(flip).eigenvalues[-1] == pytest.approx(-1.0)
    assert not in_cone(flip, full)


def test_psd_on_subspace_zero_subspace_vacuous():
    zero = zero_subspace(3)
    w = -np.eye(3)
    assert in_cone(w, zero)
    assert in_int_cone(w, zero)


def test_psd_strict_implies_nonstrict():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, n))
        a = rng.standard_normal((p, n)) if p else np.zeros((0, n))
        basis = kernel_basis(a)
        v = rand_sym(rng, n)
        if in_int_cone(v, basis):
            assert in_cone(v, basis)


def _scale_cases(s):
    """Clearly inside and clearly outside probes at entry scale ``s``.

    Each entry is ``(test, args, expected)``.  The hull probes keep a
    feasible ``Y`` of scale 1 and take ``W = -1/2 Y Y^T + s T`` with ``T``
    negative definite on ``ker A``, so the gap matrix is ``s T``.
    """
    rng = np.random.default_rng(21)
    n, m, p = 6, 2, 2
    a = rng.standard_normal((p, n))
    pair = ConstraintPair(a, a @ rng.standard_normal((n, m)))
    q = pair.kernel.basis
    k = q.shape[1]
    g = rng.standard_normal((k, k))
    neg = -q @ (g @ g.T + np.eye(k)) @ q.T
    v = q[:, 0]
    push = (2.0 * abs(v @ neg @ v) + 1.0) * np.outer(v, v)
    off = a[0] / np.linalg.norm(a[0])
    off_kernel = np.outer(off, off)
    y = pair.min_norm_solution + q @ rng.standard_normal((k, m))
    w = -0.5 * (y @ y.T) + s * neg
    x = s * rng.standard_normal((n, m))
    pd = s * (q @ (g @ g.T + np.eye(k)) @ q.T + np.eye(n))
    singular = s * np.outer(q[:, 1], q[:, 1])

    def finite(d, pr):
        return eval_support(d, pr).finite

    return [
        (in_polar_cone, (s * neg, pair.kernel), True),
        (in_polar_cone, (s * (neg + push), pair.kernel), False),
        (in_polar_cone, (s * (neg + off_kernel), pair.kernel), False),
        (in_hull, (PrimalPoint(y, w), pair), True),
        (in_hull, (PrimalPoint(y, w + s * push), pair), False),
        (in_hull, (PrimalPoint(y + off[:, None], w), pair), False),
        (in_hull_aff, (PrimalPoint(y, w), pair), True),
        (in_hull_aff, (PrimalPoint(y, w + s * off_kernel), pair), False),
        (finite, (DualPoint(x, pd), pair), True),
        (finite, (DualPoint(x, pd - 3.0 * s * push), pair), False),
        (finite, (DualPoint(x, singular), pair), False),
    ]


@pytest.mark.filterwarnings("error")
def test_decisions_unchanged_at_entry_scale_1e200():
    cases = zip(_scale_cases(1.0), _scale_cases(1e200))
    for (test, args, expected), (_, big_args, _) in cases:
        assert test(*args) is expected
        assert test(*big_args) is expected
    big = PrimalPoint(1e200 * np.ones((2, 1)), 1e200 * np.eye(2))
    assert np.isclose(point_norm(big), 1e200 * np.sqrt(4.0), rtol=1e-14)
    assert point_norm(DualPoint(big.Y, big.W)) == point_norm(big)


def _rescaled_norm(x):
    # the reference: max|x| times the norm of x / max|x|, summed exactly
    a = np.abs(np.asarray(x, dtype=float)).ravel()
    s = float(a.max(initial=0.0))
    if s == 0.0:
        return 0.0
    return s * math.sqrt(math.fsum((float(v) / s) ** 2 for v in a))


@pytest.mark.filterwarnings("error")
def test_residual_rule_matches_the_rescaled_norm_with_errors_raised():
    # _norm sums x^2 once by vdot and rescales only a sum of 0 or inf, so
    # the caller's errstate, here raise on everything, sees no warning
    rng = np.random.default_rng(31)
    big = 1e200 * rng.standard_normal((4, 3))
    ops = {
        "big": big,
        "big transposed": big.T,
        "tiny": 1e-200 * rng.standard_normal((4, 3)),
        "subnormal": np.array([5e-324, -1e-320, 3e-310, 0.0]),
        "mixed": np.array([[1e200, 1e-200], [-1.0, 1e-310]]),
        "zeros": np.zeros((3, 3)),
        "empty": np.zeros((0, 3)),
        "moderate": rng.standard_normal((5, 2)),
        "float": 1e300,
        "numpy float": np.float64(-1e-300),
    }
    with np.errstate(all="raise"):
        for name, x in ops.items():
            want = _rescaled_norm(x)
            assert _norm(x) == pytest.approx(want, rel=8 * np.size(x) * EPS, abs=0.0), name
        for resid in ops.values():
            for ref in list(ops.values()) + [0.0]:
                want = _rescaled_norm(resid) <= _RANGE_TOL * max(1.0, _rescaled_norm(ref))
                assert _small(resid, ref) == want
        assert np.geterr()["over"] == np.geterr()["under"] == "raise"


def test_frobenius_inner_is_the_tensordot_form():
    rng = np.random.default_rng(23)
    for shape in ((4, 3), (7, 2), (5, 5), (1, 6), (30, 4), (0, 3)):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        want = float(np.tensordot(a, b, axes=2))
        # the rounding bound of a length-N sum of products, in either order
        bound = 2 * a.size * np.finfo(float).eps * float(np.sum(np.abs(a * b)))
        assert abs(frobenius_inner(a, b) - want) <= bound
    assert frobenius_inner(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 3), (6,)), ((4, 1), (4, 2))])
def test_frobenius_inner_rejects_mismatched_shapes(shapes):
    a, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(ValueError):
        frobenius_inner(a, b)


def _package_files():
    return sorted(Path(gmfrac.__file__).parent.glob("*.py"))


_THRESHOLDS = ("_RANK_TOL", "_PSD_TOL", "_RANGE_TOL")


def _threshold_reads(tree):
    # the threshold constants the tree reads, by name, attribute or import
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
    return reads.intersection(_THRESHOLDS)


def test_tolerance_fields_are_read_only_in_linalg():
    # every threshold is a constant of linalg, applied by its rules: no other
    # module reads or imports one
    readers = {
        path.name
        for path in _package_files()
        if _threshold_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"linalg.py"}


def test_tolerance_config_has_one_field_per_rule():
    # the three fixed thresholds, each read by its own rules only: _RANK_TOL
    # by _kept and by the two Cholesky certificates that _kept keeps every
    # value, _PSD_TOL by the sign tests and _RANGE_TOL by _small
    linalg = gmfrac.linalg
    assert (linalg._RANK_TOL, linalg._PSD_TOL, linalg._RANGE_TOL) == (1e-10, 1e-9, 1e-9)
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    readers = {
        node.name: _threshold_reads(node) for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert {name: reads for name, reads in readers.items() if reads} == {
        "_kept": {"_RANK_TOL"},
        "_small": {"_RANGE_TOL"},
        "_psd": {"_PSD_TOL"},
        "_psd_kept": {"_RANK_TOL", "_PSD_TOL"},
        "_full_row_rank": {"_RANK_TOL"},
    }


def test_sign_factorizations_are_called_only_in_linalg():
    # every sign decision is one predicate of linalg, every kept spectrum is
    # _psd_kept's or _eig_kept's, and every pseudo-inverse is _pinv_solve's:
    # no other module calls cholesky, eigh or solve, and no module calls
    # eigvalsh, so every decision inside a band reads eigh
    for name in ("cholesky", "eigh", "solve"):
        assert _callers(name) == {"linalg.py"}, name
    assert _callers("eigvalsh") == set()


def _callers(name):
    # the package files that call a function or method of this name
    return {
        path.name
        for path in _package_files()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    }


def test_svd_and_kept_are_called_only_in_linalg():
    # ker A has one body, shared by ConstraintPair and kernel_basis, that
    # takes its QR or its SVD and inverts the QR's triangular factor, and the
    # gauge's rank of Y is linalg._svd_kept; every rank cutoff is _kept
    for name in ("svd", "qr", "inv", "_kept"):
        assert _callers(name) == {"linalg.py"}, name


def _absolute_small_calls(tree, scope=""):
    # the qualified names of the functions whose body calls _small with the
    # literal reference 0.0, once per call
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found += _absolute_small_calls(node, scope + node.name + ".")
        else:
            found += [
                scope.rstrip(".")
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_small"
                and len(call.args) == 2
                and isinstance(call.args[1], ast.Constant)
                and call.args[1].value == 0.0
            ]
    return found


def test_only_scalar_tests_compare_with_nothing():
    # _small(resid, 0.0) is an absolute test, which a cone's rescaling
    # moves; only the scalar tests on ||B|| and on a support value keep it.
    # The horizon test reads Y = 0 exactly, and the gauge's only zero path
    # is its formula's
    calls = sorted(
        (path.name, name)
        for path in _package_files()
        for name in _absolute_small_calls(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert calls == [
        ("hull.py", "in_hull_polar"),
        ("hull.py", "in_hull_polar_horizon"),
        ("support.py", "ConstraintPair.homogeneous"),
    ]


def test_cli_reads_no_tolerance_and_imports_no_oracle():
    # the oracle suite lives in gmfrac.verify, so the CLI compares nothing
    # with a threshold itself
    (path,) = [p for p in _package_files() if p.name == "cli.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _threshold_reads(tree) == set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rpartition(".")[2] != "bruteforce"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("bruteforce") for alias in node.names)


def test_bruteforce_imports_no_other_gmfrac_module():
    # the oracles share no code with the closed forms they check
    (path,) = [p for p in _package_files() if p.name == "bruteforce.py"]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("gmfrac")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("gmfrac") for alias in node.names)


def test_internal_tests_use_the_symmetric_operand_path():
    # hull, normal-cone and gauge tests pass matrices that are symmetric by
    # construction to the private predicates, never to the raw-input public
    # tests, which would symmetrize them again
    raw_input = {"in_cone", "in_int_cone", "in_polar_cone", "in_rint_polar", "in_aff_polar"}
    for path in _package_files():
        if path.name not in ("hull.py", "subgrad.py", "gauges.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            assert name not in raw_input, f"{path.name} uses {name}"


def _matmul_operands(node):
    # the operands of a chain a @ b @ ... in either association
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _matmul_operands(node.left) + _matmul_operands(node.right)
    return [node]


def _is_reconstruction(node):
    # Q C Q^T: a product of three or more factors whose last is the
    # transpose of its first
    ops = _matmul_operands(node)
    last = ops[-1]
    return (
        len(ops) >= 3
        and isinstance(last, ast.Attribute)
        and last.attr == "T"
        and ast.dump(last.value) == ast.dump(ops[0])
    )


def test_compression_and_reconstruction_have_one_home():
    # _compress is called only by the modules that own the subspace tests,
    # and the n-by-n support residual W - Q C Q^T is formed only in
    # linalg._off_subspace; the complement basis U is read only by the two
    # residuals outside the subspace, _outside and _off_subspace, and by the
    # public cone tests' check that it is finite, _checked_dim
    compressing, reconstructing, complementing = set(), set(), set()
    for path in _package_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", getattr(node.func, "id", None)) == "_compress"
                ):
                    compressing.add(path.name)
                if _is_reconstruction(node):
                    reconstructing.add((path.name, func.name))
                if isinstance(node, ast.Attribute) and node.attr == "complement":
                    complementing.add((path.name, func.name))
    assert compressing == {"cones.py", "support.py"}
    assert reconstructing == {("linalg.py", "_off_subspace")}
    assert complementing == {
        ("linalg.py", "_outside"),
        ("linalg.py", "_off_subspace"),
        ("linalg.py", "_checked_dim"),
    }
