"""The oracle suite: the closed forms on one pair against :mod:`gmfrac.bruteforce`.

Sampled feasible points satisfy ``A Y = B``; hull membership survives
convex combinations of sampled hull points; the support value dominates
the sampled objective; hull points moved along a polar direction stay in
the hull; and, when ``B = 0``, the closed-form gauge agrees with bisection
over the scaled hull.  All draws are deterministic given the seed.
"""

import math

import numpy as np

from .linalg import _small
from .cones import sample_polar
from .support import DualPoint, eval_support
from .hull import PrimalPoint, in_hull
from .gauges import eval_gauge, in_scaled_hull
from .bruteforce import (
    SampleConfig,
    convexity_fuzz,
    gauge_bisection,
    sample_feasible,
    support_lower_bound,
)

__all__ = ["verify_pair"]


def verify_pair(pair, trials=200, seed=0):
    """Run the oracle suite on ``pair``.

    Returns ``{"checks": [...], "all_passed": bool}``.  Each check is a dict
    with its ``name``, whether it ``passed``, and the statistic it read, if
    any.  ``trials`` is the number of feasible samples and of convexity
    trials; a tenth of it, at least one, is the number of support-dominance
    draws.
    """
    rng = np.random.default_rng(seed)
    ys = sample_feasible(pair, SampleConfig(count=trials, rng_seed=seed))
    resid = float(np.linalg.norm(pair.A @ ys - pair.B, axis=(1, 2)).max()) if pair.p else 0.0
    checks = [{"name": "feasible-sample-residual", "passed": _small(resid, pair.B),
               "max_residual": resid}]

    def hull_sampler(gen):
        y = pair.min_norm_solution
        k = pair.kernel.dim
        if k:
            y = y + pair.kernel.basis @ gen.standard_normal((k, pair.m))
        t = sample_polar(pair.kernel, 2, gen)[0]
        return (y, -0.5 * (y @ y.T) + t)

    fuzz = convexity_fuzz(
        lambda pt: in_hull(PrimalPoint(pt[0], pt[1]), pair),
        hull_sampler,
        SampleConfig(count=trials, rng_seed=seed + 1),
    )
    checks.append({"name": "hull-convexity-fuzz", "passed": fuzz.passed,
                   "failures": fuzz.failures})

    worst_gap, dominance_ok = 0.0, True
    for i in range(max(1, trials // 10)):
        x = rng.standard_normal((pair.n, pair.m))
        g = rng.standard_normal((pair.n, pair.n))
        v = g @ g.T + 0.5 * np.eye(pair.n)
        dual = DualPoint(x, v)
        res = eval_support(dual, pair)
        if not res.finite:
            dominance_ok = False
            break
        bound = support_lower_bound(
            dual, pair, SampleConfig(count=500, rng_seed=seed + 2 + i), center=res.maximizer
        )
        scale = max(1.0, abs(res.value))
        worst_gap = max(worst_gap, bound - res.value)
        if res.value < bound - 1e-9 * scale:
            dominance_ok = False
            break
    checks.append({"name": "support-dominance", "passed": dominance_ok, "worst_gap": worst_gap})

    recession_ok = True
    for _ in range(20):
        y, w = hull_sampler(rng)
        t_dir = sample_polar(pair.kernel, 2, rng)[0]
        for t in (1.0, 1e3):
            if not in_hull(PrimalPoint(y, w + t * t_dir), pair):
                recession_ok = False
    checks.append({"name": "hull-recession", "passed": recession_ok})

    if pair.homogeneous:
        gauge_ok, worst = True, 0.0
        k = pair.kernel.dim
        for _ in range(20 if k else 0):
            y = pair.kernel.basis @ rng.standard_normal((k, pair.m))
            r = pair.kernel.basis @ rng.standard_normal((k, k))
            w = -(r @ r.T) - 0.2 * (y @ y.T)
            pt = PrimalPoint(y, w)
            res = eval_gauge(pt, pair)
            ref = gauge_bisection(pt, pair, in_scaled_hull)
            if not res.finite or math.isinf(ref):
                gauge_ok = False
                break
            err = abs(res.value - ref) / max(1.0, res.value)
            worst = max(worst, err)
            if err > 1e-6:
                gauge_ok = False
        checks.append(
            {"name": "gauge-bisection-agreement", "passed": gauge_ok, "worst_rel_err": worst}
        )

    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
