"""The gauge's critical matrix is ``pinv(Y^T (-W)^+ Y)``, and not ``-Y^+ W (Y^+)^T``."""

import numpy as np

from gmfrac import PrimalPoint, eval_gauge
from helpers import gauge_instance


def test_critical_matrix_is_the_pseudoinverse_of_the_compressed_form():
    rng = np.random.default_rng(22)
    pair, y, w = gauge_instance(rng, 6, 2, 2)
    res = eval_gauge(PrimalPoint(y, w), pair)
    assert res.finite
    form = y.T @ np.linalg.pinv(-w) @ y
    critical = np.linalg.pinv(form)
    scale = np.linalg.norm(critical)
    np.testing.assert_allclose(res.critical_matrix, critical, rtol=0, atol=1e-10 * scale)
    # sigma_min = 1 / lambda_max of the compressed form, and the value is
    # 1/2 / sigma_min
    top = np.linalg.eigvalsh(form)[-1]
    assert abs(res.sigma_min - 1.0 / top) <= 1e-10 / top
    assert abs(res.value - 0.5 * top) <= 1e-10 * top
    # the form -Y^+ W (Y^+)^T differs from it on this instance
    yp = np.linalg.pinv(y)
    assert np.linalg.norm(-yp @ w @ yp.T - res.critical_matrix) > 1e-3 * scale
