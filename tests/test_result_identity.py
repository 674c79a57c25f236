"""Points, results and bases that hold arrays compare and hash by identity.

Field-wise ``==`` on two of them would compare arrays, whose truth value is
ambiguous, and a frozen one's field-wise hash would hash an array; both
raise.  So each compares equal only to itself and hashes by identity.
"""

import numpy as np

from gmfrac import (
    ConstraintPair,
    DualPoint,
    PrimalPoint,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_support,
    kernel_basis,
)


def _twins():
    # pairs of objects built twice from the same inputs
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 4))
    pair = ConstraintPair(a, np.zeros((2, 2)))
    q = pair.kernel.basis
    y = q @ rng.standard_normal((2, 2))
    w = -0.5 * (y @ y.T) - q @ q.T
    x = rng.standard_normal((4, 2))

    def build():
        primal = PrimalPoint(y, w)
        dual = DualPoint(x, np.eye(4))
        return (
            kernel_basis(a),
            primal,
            dual,
            eval_support(dual, pair),
            eval_gauge(primal, pair),
            caratheodory_witness(primal, pair, 0.1),
            canonical_subgradient(dual, pair),
        )

    return zip(build(), build())


def test_array_holding_dataclasses_compare_and_hash_by_identity():
    for one, twin in _twins():
        name = type(one).__name__
        assert one == one, name
        assert one != twin, name
        assert hash(one) == hash(one), name
        assert len({one, twin}) == 2, name
