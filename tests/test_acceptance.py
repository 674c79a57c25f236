"""Acceptance suite.

Each criterion runs at its stated tolerance, prints one PASS/FAIL line
(visible with ``pytest -s``), and enforces its runtime budget.  The whole
module must finish in under 60 seconds.
"""

import time

import numpy as np

from gmfrac import (
    ConstraintPair,
    DualPoint,
    PrimalPoint,
    SampleConfig,
    canonical_subgradient,
    caratheodory_witness,
    convexity_fuzz,
    eval_gauge,
    eval_support,
    frobenius_inner,
    gauge_bisection,
    graph_point,
    in_aff_polar,
    in_domain,
    in_free_hull,
    in_hull,
    in_hull_horizon,
    in_hull_polar,
    in_normal_cone,
    in_polar_cone,
    in_rint_polar,
    in_scaled_hull,
    kernel_basis,
    pairing,
    sample_feasible,
    sample_polar,
    support_lower_bound,
)
from helpers import (
    feasible_matrix,
    hull_member,
    interior_dual,
    point_norm,
    projector,
    rand_pair,
    rand_zero_pair,
)

_ELAPSED = {}


def _report(num, name, violations, started, limit=None):
    elapsed = time.perf_counter() - started
    _ELAPSED[num] = elapsed
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s)")
    assert not violations, violations[:5]
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_support_formula_vs_definition():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = []
    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, n + 1))
        a = rng.standard_normal((p, n))  # full row rank almost surely
        pair = ConstraintPair(a, a @ rng.standard_normal((n, m)))
        g = rng.standard_normal((n, n))
        v = g @ g.T + 0.3 * np.eye(n)  # V strictly positive definite
        dual = DualPoint(rng.standard_normal((n, m)), v)
        res = eval_support(dual, pair)
        if not res.finite:
            violations.append((trial, "unexpectedly infinite"))
            continue
        scale = max(1.0, abs(res.value))
        bound = support_lower_bound(
            dual, pair, SampleConfig(count=2000, rng_seed=trial), center=res.maximizer
        )
        if res.value < bound - 1e-9 * scale:
            violations.append((trial, "dominance", res.value, bound))
        y = res.maximizer
        attained = frobenius_inner(dual.X, y) - 0.5 * frobenius_inner(dual.V, y @ y.T)
        if abs(res.value - attained) > 1e-8 * scale:
            violations.append((trial, "attainment", res.value, attained))
    _report(1, "support formula vs sampled definition", violations, started, limit=10.0)


def test_criterion_2_domain_nonclosedness_regression():
    started = time.perf_counter()
    pair = ConstraintPair([[0.0]], [[0.0]])
    x = np.array([[1.0]])
    violations = []
    for eta in (1.0, 1e-3, 1e-6):
        if in_domain(DualPoint(x, [[eta]]), pair) is not True:
            violations.append(("expected member", eta))
    if in_domain(DualPoint(x, [[0.0]]), pair) is not False:
        violations.append(("expected non-member", 0.0))
    _report(2, "domain non-closedness regression", violations, started)


def test_criterion_3_hull_theorem():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    violations = []

    # (a) 1000 graph-set samples are hull members
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        p = int(rng.integers(0, n + 1))
        pair = rand_pair(rng, n, m, p)
        for y in sample_feasible(pair, SampleConfig(count=50, rng_seed=checked)):
            if not in_hull(graph_point(y), pair):
                violations.append(("graph point rejected", checked))
            checked += 1

    # (b) convexity fuzz with zero failures
    pair = rand_pair(rng, 4, 2, 2)

    def sampler(gen):
        y = feasible_matrix(gen, pair)
        t = sample_polar(pair.kernel, 2, gen)[0]
        return (y, -0.5 * (y @ y.T) + t)

    fuzz = convexity_fuzz(
        lambda pt: in_hull(PrimalPoint(pt[0], pt[1]), pair),
        sampler,
        SampleConfig(count=1000, rng_seed=7),
    )
    if not fuzz.passed:
        violations.append(("convexity failures", fuzz.failures))

    # (c) witness distances shrink like sqrt(eps)
    f1 = ConstraintPair([[1.0, 0.0]], [[0.0]])
    point = PrimalPoint(np.array([[0.0], [1.0]]), np.diag([0.0, -1.0]))
    epsilons = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    dists = np.array(
        [caratheodory_witness(point, f1, e).distance_to(point) for e in epsilons]
    )
    if not np.all(np.diff(dists) < 0):
        violations.append(("distances not monotone", dists.tolist()))
    slope = np.polyfit(np.log(epsilons), np.log(dists), 1)[0]
    if not 0.4 <= slope <= 0.6:
        violations.append(("log-log slope", slope))
    _report(3, "hull theorem (membership, convexity, witness)", violations, started, limit=10.0)


def test_criterion_4_cone_characterizations():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = []
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, n + 1))
        sub = kernel_basis(rng.standard_normal((p, n)) if p else np.zeros((0, n)))
        # a cone member by construction
        g = rng.standard_normal((n, n))
        v = 0.5 * (g + g.T)
        if sub.dim:
            q = sub.basis
            v = v + (max(0.0, -np.linalg.eigvalsh(q.T @ v @ q)[0])) * projector(sub)
        for w in sample_polar(sub, 2, rng, count=5):
            scale = max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
            if frobenius_inner(v, w) > 1e-9 * scale:
                violations.append(("polarity inequality", checked))
            if in_rint_polar(w, sub) and not in_polar_cone(w, sub):
                violations.append(("rint outside polar", checked))
            if in_polar_cone(w, sub) and not in_aff_polar(w, sub):
                violations.append(("polar outside aff", checked))
            checked += 1
    # S = {0}: the relative interior of the polar is exactly {0}
    zero_sub = kernel_basis(np.eye(3))
    if zero_sub.dim != 0:
        violations.append(("zero subspace dim", zero_sub.dim))
    if in_rint_polar(np.zeros((3, 3)), zero_sub) is not True:
        violations.append(("rint of polar at 0 for S={0}",))
    if in_rint_polar(np.diag([0.0, 0.0, -1.0]), zero_sub) is not False:
        violations.append(("nonzero matrix in rint for S={0}",))
    _report(4, "cone characterizations and polarity", violations, started)


def test_criterion_5_normal_cone_and_subdifferential():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    violations = []
    pair = rand_pair(rng, 4, 3, 2)

    probes = [interior_dual(rng, pair) for _ in range(500)]
    probe_values = [eval_support(q, pair).value for q in probes]

    for trial in range(200):
        dual = interior_dual(rng, pair)
        sub = canonical_subgradient(dual, pair)
        scale = max(1.0, point_norm(dual) * point_norm(sub.point), abs(sub.value))
        if abs(pairing(dual, sub.point) - sub.value) > 1e-8 * scale:
            violations.append(("fenchel equality", trial))
        for q, qval in zip(probes, probe_values):
            gain = pairing(DualPoint(q.X - dual.X, q.V - dual.V), sub.point)
            s = max(1.0, abs(qval), abs(sub.value))
            if qval < sub.value + gain - 1e-8 * s:
                violations.append(("subgradient inequality", trial))
                break

    # normal-cone positives against 1000 sampled hull points each
    omegas = [hull_member(rng, pair) for _ in range(1000)]
    for trial in range(10):
        dual = interior_dual(rng, pair)
        base = canonical_subgradient(dual, pair).point
        if not in_normal_cone(dual, base, pair):
            violations.append(("constructed positive rejected", trial))
            continue
        for omega in omegas:
            diff = PrimalPoint(omega.Y - base.Y, omega.W - base.W)
            s = max(1.0, point_norm(dual) * point_norm(diff))
            if pairing(dual, diff) > 1e-8 * s:
                violations.append(("normal cone polarity", trial))
                break
    _report(5, "normal cone and subdifferential", violations, started, limit=30.0)


def test_criterion_6_gauge_theorem():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    violations = []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        p = int(rng.integers(0, n - 1))
        pair = rand_zero_pair(rng, n, m, p)
        k = pair.kernel.dim
        q = pair.kernel.basis
        y = q @ rng.standard_normal((k, m))
        r = rng.standard_normal((k, k))
        w = -q @ (r @ r.T + 0.1 * np.eye(k)) @ q.T - 0.2 * (y @ y.T)
        point = PrimalPoint(y, 0.5 * (w + w.T))
        res = eval_gauge(point, pair)
        ref = gauge_bisection(point, pair, in_scaled_hull)
        if not res.finite:
            violations.append(("unexpectedly infinite", trial))
        elif abs(res.value - ref) > 1e-6 * max(1.0, res.value):
            violations.append(("gauge mismatch", trial, res.value, ref))

    # gauge at Y = 0 is zero exactly iff W lies in the polar cone
    pair = rand_zero_pair(rng, 4, 2, 1)
    zero_y = np.zeros((4, 2))
    for _ in range(50):
        w = sample_polar(pair.kernel, 2, rng)[0]
        res = eval_gauge(PrimalPoint(zero_y, w), pair)
        if not (res.finite and res.value == 0.0):
            violations.append(("zero gauge on polar member",))
        res = eval_gauge(PrimalPoint(zero_y, w + 0.5 * np.eye(4)), pair)
        if res.finite:
            violations.append(("finite gauge off the polar",))

    scalar_pair = ConstraintPair(np.zeros((0, 1)), np.zeros((0, 1)))
    res = eval_gauge(PrimalPoint([[1.0]], [[-1.0]]), scalar_pair)
    if not (res.finite and abs(res.value - 0.5) <= 1e-9):
        violations.append(("scalar case", res.value))
    _report(6, "gauge closed form vs bisection", violations, started)


def test_criterion_7_polar_and_horizon():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    violations = []
    pair = rand_pair(rng, 4, 2, 2)

    below = above = 0
    checked = 0
    while checked < 500:
        dual = DualPoint(
            rng.uniform(0.2, 3.0) * rng.standard_normal((pair.n, pair.m)),
            interior_dual(rng, pair).V,
        )
        res = eval_support(dual, pair)
        if not res.finite:
            continue
        if abs(res.value - 1.0) <= 1e-6:
            continue  # inside the tolerance fuzz band
        member = in_hull_polar(dual, pair)
        if res.value <= 1.0 - 1e-6:
            below += 1
            if not member:
                violations.append(("should be polar member", checked))
        else:
            above += 1
            if member:
                violations.append(("should not be polar member", checked))
        checked += 1
    if below < 50 or above < 50:
        violations.append(("coverage too one-sided", below, above))

    for trial in range(50):
        pt = hull_member(rng, pair)
        t_dir = sample_polar(pair.kernel, 2, rng)[0]
        for t in (1.0, 1e3, 1e6):
            if not in_hull(PrimalPoint(pt.Y, pt.W + t * t_dir), pair):
                violations.append(("recession", trial, t))

    for trial in range(200):
        y = rng.standard_normal((pair.n, pair.m))
        if np.linalg.norm(y) <= 1e-6:
            continue
        w = sample_polar(pair.kernel, 2, rng)[0]
        if in_hull_horizon(PrimalPoint(y, w), pair):
            violations.append(("horizon accepted nonzero Y", trial))
    tiny = PrimalPoint(np.full((pair.n, pair.m), 2e-6 / np.sqrt(pair.n * pair.m)),
                       sample_polar(pair.kernel, 2, rng)[0])
    assert np.linalg.norm(tiny.Y) > 1e-6
    if in_hull_horizon(tiny, pair):
        violations.append(("horizon accepted small-but-nonzero Y",))
    _report(7, "polar set and horizon cones", violations, started)


def test_criterion_8_zero_pair_special_case():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    n, m = 3, 2
    pair = ConstraintPair(np.zeros((1, n)), np.zeros((1, m)))
    violations = []
    for trial in range(1000):
        y = rng.standard_normal((n, m))
        # straddle the boundary: perturbations from tiny to large
        mag = 10.0 ** rng.uniform(-12, 1)
        e = mag * rng.standard_normal((n, n))
        pt = PrimalPoint(y, -0.5 * (y @ y.T) + 0.5 * (e + e.T))
        if in_free_hull(pt) != in_hull(pt, pair):
            violations.append(("disagreement", trial))
    _report(8, "explicit-zero pair agrees with the closed special case", violations, started)


def test_total_runtime_budget():
    assert sum(_ELAPSED.values()) < 60.0, _ELAPSED
