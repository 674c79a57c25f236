"""Independent brute-force verifiers for the closed forms.

Nothing here shares code with the closed-form operations it is used to
check: the support bound maximizes the defining objective over sampled
feasible points, the gauge is bracketed by bisection over a caller-supplied
membership predicate, and the convexity fuzzer only ever calls the
membership predicate handed to it.  All sampling is deterministic given the
seed in :class:`SampleConfig`.

Samples are drawn and scored in batched matrix products: a batch of
feasible points is ``Y0 + Q G`` for a stack of draws ``G``, and the sampled
objective is ``<X, Y> - 1/2 <Y, V Y>``, which equals
``<X, Y> - 1/2 <V, Y Y^T>``.  These are plain products of the inputs; no
closed form is evaluated here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleConfig",
    "FuzzReport",
    "sample_feasible",
    "support_lower_bound",
    "gauge_bisection",
    "convexity_fuzz",
]


@dataclass(frozen=True)
class SampleConfig:
    """How many points to draw, from which seed, at which spread."""

    count: int = 1000
    rng_seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


def sample_feasible(pair, sc):
    """Draw random points of the manifold ``{Y : A Y = B}``.

    Each sample is ``Y0 + Q G`` with ``Y0`` the minimum-norm solution, ``Q``
    the kernel basis, and ``G`` standard normal scaled by ``sc.scale``.

    Returns
    -------
    ndarray, shape (count, n, m)
    """
    rng = np.random.default_rng(sc.rng_seed)
    return _draw(pair, pair.min_norm_solution, sc.count, sc.scale, rng)


def _draw(pair, base, count, scale, rng):
    # count points base + Q G of the manifold, G standard normal times scale;
    # with k = 0 the (count, 0, m) draw is empty and every point is base
    g = scale * rng.standard_normal((count, pair.kernel.dim, pair.m))
    return base + pair.kernel.basis @ g


def _objective(dual, ys):
    # <X, Y> - 1/2 <V, Y Y^T> for a batch of Y, with <V, Y Y^T> = <Y, V Y>
    lin = np.einsum("ij,cij->c", dual.X, ys)
    quad = np.einsum("cij,cij->c", ys, dual.V @ ys)
    return lin - 0.5 * quad


def support_lower_bound(dual, pair, sc, center=None, center_spread=1e-2):
    """Certified lower bound on the support value by sampled maximization.

    Maximizes ``<X, Y> - 1/2 <V, Y Y^T>`` over feasible samples.  When a
    ``center`` is given (typically a candidate maximizer), half the samples
    are drawn as tight Gaussian perturbations of it inside the feasible
    manifold, which sharpens the bound far beyond what global sampling can
    reach.
    """
    rng = np.random.default_rng(sc.rng_seed)
    n_global = sc.count if center is None else sc.count - sc.count // 2
    ys = _draw(pair, pair.min_norm_solution, n_global, sc.scale, rng)
    if center is not None:
        near = _draw(pair, center, sc.count // 2, center_spread * sc.scale, rng)
        ys = np.concatenate([ys, near], axis=0)
    return float(_objective(dual, ys).max())


def gauge_bisection(point, pair, membership, t_max=1e12, iters=100):
    """Gauge value by doubling bracket plus bisection over a membership test.

    ``membership(point, t, pair)`` must decide whether the point lies in
    ``t`` times the set; the scaled-membership predicate is passed in
    explicitly so this oracle stays independent of the closed-form gauge.
    Returns ``math.inf`` if no membership is found by ``t_max``.  Bisection
    is sound because the membership set in ``t`` is upward closed (the hull
    is convex and contains the origin when ``B = 0``).
    """
    if membership(point, 1.0, pair):
        lo, hi = 0.0, 1.0
    else:
        hi = 1.0
        while True:
            hi *= 2.0
            if hi > t_max:
                return math.inf
            if membership(point, hi, pair):
                lo = hi / 2.0
                break
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if membership(point, mid, pair):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class FuzzReport:
    """Outcome of a convexity fuzz run; expected failure count is zero."""

    trials: int
    failures: int
    failed_trials: list = field(default_factory=list)

    @property
    def passed(self):
        return self.failures == 0


def convexity_fuzz(membership, sampler, sc):
    """Fuzz a membership predicate for convexity.

    ``sampler(rng)`` must return a member as a tuple of arrays and
    ``membership(tuple)`` must decide membership; each trial combines two
    sampled members with a uniform weight and checks the combination.
    """
    rng = np.random.default_rng(sc.rng_seed)
    failed = []
    for trial in range(sc.count):
        a = sampler(rng)
        b = sampler(rng)
        lam = float(rng.uniform())
        combo = tuple(lam * x + (1.0 - lam) * y for x, y in zip(a, b))
        if not membership(combo):
            failed.append(trial)
    return FuzzReport(trials=sc.count, failures=len(failed), failed_trials=failed)
