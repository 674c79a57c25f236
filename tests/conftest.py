import numpy as np
import pytest

from gmfrac import ConstraintPair


@pytest.fixture
def pair_f0():
    # unconstrained scalar case: p = 0, n = m = 1
    return ConstraintPair(np.zeros((0, 1)), np.zeros((0, 1)))


@pytest.fixture
def pair_f1():
    # A = [1, 0], B = [0]: kernel is span{e2}
    return ConstraintPair([[1.0, 0.0]], [[0.0]])


@pytest.fixture
def pair_f2():
    # A = [0], B = [0]: a zero constraint row, kernel is all of R^1
    return ConstraintPair([[0.0]], [[0.0]])


@pytest.fixture
def pair_fb():
    # inhomogeneous fixture: A = [1, 0], B = [1]
    return ConstraintPair([[1.0, 0.0]], [[1.0]])


FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "lstsq", "solve", "cholesky", "qr", "inv", "pinv")


@pytest.fixture
def counts(monkeypatch):
    """Calls of each factorizing ``numpy.linalg`` entry point, by name."""
    tally = dict.fromkeys(FACTORIZATIONS, 0)
    for name in FACTORIZATIONS:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return tally
