"""Dyadic scaling of the ``B = 0`` sets (ROADMAP item 11, first step).

When ``B = 0`` the hull is unchanged by ``(Y, W) -> (t Y, t^2 W)``, so the
gauge takes one value on each such orbit; the support function, the gauge
of the polar set, takes one value on each orbit ``(t X, t^2 V)``; and the
horizon cone ``{(0, W) : W in K polar}`` holds no point with ``Y != 0`` at
any scale.  With ``t = 2^j`` every entry scales exactly, so a closed form
that takes the same path at two scales gives the same bits at both: the
path where ``linalg._psd_kept`` certifies ``-C`` (or ``H``) nonsingular and
the pseudo-inverse is one LU solve.  Where the certificate holds at one
scale only, the two values come from different factorizations and agree to
rounding.

The draws are ``B = 0`` pairs with n 2-8, m 1-3 and p from 0 to n - 1,
points inside the sets (``-C`` and ``V`` positive definite) and points
outside them (``-C`` and ``V`` indefinite), at ``j`` from -80 to 80.  The
sign tests compare with the absolute ``_PSD_TOL``, so a point outside
passes them once scaled far below ``1e-9`` (ROADMAP item 1); those scales
are pinned as strict xfails, not dropped.
"""

import numpy as np
import pytest

import gmfrac
from gmfrac import DualPoint, PrimalPoint, eval_gauge, eval_support, in_hull_horizon
from helpers import gauge_instance

SCALES = range(-80, 81, 4)
# the scales at which an indefinite -C or V, whose negative eigenvalue is at
# least 1 in magnitude at j = 0, stays far outside the absolute sign slack
# 1e-9, and those at which it falls far inside it
ABOVE_SLACK = [j for j in SCALES if j >= -8]
BELOW_SLACK = [j for j in SCALES if j <= -24]


def _draws():
    # B = 0 pairs with points inside and outside the gauge's and the support
    # function's domains: (Y, W) with -C positive definite and with -C given
    # a negative eigenvalue of at least 1 along a kernel direction; (X, V)
    # with V positive definite and with V given one such eigenvalue
    rng = np.random.default_rng(2027)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(0, n))
        pair, y, w = gauge_instance(rng, n, m, p)
        q = pair.kernel.basis[:, :1]
        x = rng.standard_normal((n, m))
        g = rng.standard_normal((n, n))
        v = g @ g.T + 0.5 * np.eye(n)
        lift = np.linalg.norm(w, 2) + np.linalg.norm(v, 2) + 1.0
        yield pair, {
            "inside": ((y, w), (x, v)),
            "outside": ((y, w + lift * (q @ q.T)), (x, v - lift * (q @ q.T))),
        }


DRAWS = list(_draws())


def _scaled(first, second, j):
    return np.ldexp(first, j), np.ldexp(second, 2 * j)


class _Certified:
    # records, for each gauge and support solve, whether linalg._psd_kept
    # certified its matrix, so that the pseudo-inverse was one LU solve
    def __init__(self, monkeypatch):
        self.kept = []
        original = gmfrac.linalg._psd_kept

        def recorded(h):
            psd, kept = original(h)
            self.kept.append(kept)
            return psd, kept

        monkeypatch.setattr(gmfrac.cones, "_psd_kept", recorded)
        monkeypatch.setattr(gmfrac.support, "_psd_kept", recorded)

    def __call__(self, evaluate):
        self.kept.clear()
        res = evaluate()
        return res, len(self.kept) == 1 and self.kept[0] is None


def _gauge(pair, y, w):
    return eval_gauge(PrimalPoint(y, w), pair)


def _support(pair, x, v):
    return eval_support(DualPoint(x, v), pair)


CLOSED_FORMS = {"gauge": (0, _gauge), "support": (1, _support)}


def _orbit(certified, form, side, scales):
    # (j, base result, scaled result, whether both were certified)
    index, evaluate = CLOSED_FORMS[form]
    for pair, points in DRAWS:
        first, second = points[side][index]
        base, base_certified = certified(lambda: evaluate(pair, first, second))
        for j in scales:
            res, ok = certified(lambda: evaluate(pair, *_scaled(first, second, j)))
            yield j, base, res, ok and base_certified


@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_value_is_invariant_inside(monkeypatch, form):
    # finite at every scale, bitwise equal wherever the certificate holds at
    # both scales, and within 1e-13 relative where it does not
    certified = _Certified(monkeypatch)
    bitwise = 0
    for j, base, res, both in _orbit(certified, form, "inside", SCALES):
        assert base.finite and res.finite, j
        if both:
            assert res.value == base.value, j
            bitwise += 1
        else:
            assert abs(res.value - base.value) <= 1e-13 * abs(base.value), j
    # the certificate holds at both scales on most of the orbit
    assert bitwise >= len(DRAWS) * len(SCALES) // 2


@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_outside_stays_infinite_above_the_sign_slack(monkeypatch, form):
    certified = _Certified(monkeypatch)
    for j, base, res, _ in _orbit(certified, form, "outside", ABOVE_SLACK):
        assert not base.finite and not res.finite, j


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the sign tests compare with the absolute _PSD_TOL, "
    "so an indefinite -C or V scaled far below 1e-9 passes them",
)
@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_outside_stays_infinite_below_the_sign_slack(monkeypatch, form):
    certified = _Certified(monkeypatch)
    for j, base, res, _ in _orbit(certified, form, "outside", BELOW_SLACK):
        assert not base.finite and not res.finite, j


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_horizon_rejects_every_nonzero_y(side):
    for pair, points in DRAWS:
        y, w = points[side][0]
        assert y.any()
        for j in SCALES:
            assert not in_hull_horizon(PrimalPoint(*_scaled(y, w, j)), pair), j
