"""Evaluating the matrix-fractional support function.

The support function of the graph set {(Y, -1/2 Y Y^T) : A Y = B} has a
closed form built from the pseudoinverse of the KKT saddle matrix
M(V) = [[V, A^T], [A, 0]].  This script evaluates it on a small instance,
checks the value against brute-force sampling, and shows why the domain of
the function is not a closed set.
"""

import numpy as np

from gmfrac import (
    ConstraintPair,
    DualPoint,
    SampleConfig,
    eval_support,
    in_domain,
    support_lower_bound,
)

# constrain the first row of Y to zero: A = [1, 0], B = [0]
pair = ConstraintPair([[1.0, 0.0]], [[0.0]])
dual = DualPoint(np.array([[0.0], [1.0]]), np.eye(2))

# the library never forms M(V); it is built here only to show it
print("saddle matrix M(I):")
print(np.block([[dual.V, pair.A.T], [pair.A, np.zeros((pair.p, pair.p))]]))

res = eval_support(dual, pair)
print(f"\nsupport value at X = (0, 1), V = I: {res.value}")
print("maximizer Y* =", res.maximizer.ravel(), " multiplier Z* =", res.multiplier.ravel())

# the value dominates every feasible sample of the defining objective
bound = support_lower_bound(
    dual, pair, SampleConfig(count=5000, rng_seed=0), center=res.maximizer
)
print(f"sampled lower bound over 5000 feasible points: {bound:.6f} (value {res.value:.6f})")

# the domain is not closed: with A = B = 0 and X != 0, every V = eta * I
# with eta > 0 is inside, but the limit eta = 0 is not
free = ConstraintPair([[0.0]], [[0.0]])
x = np.array([[1.0]])
print("\ndomain membership of (X, eta*I) for A = B = 0, X = 1:")
for eta in (1.0, 1e-3, 1e-6, 0.0):
    member = in_domain(DualPoint(x, [[eta]]), free)
    print(f"  eta = {eta:<8g} -> {member}")
value = eval_support(DualPoint(x, [[1e-6]]), free)
print(f"value just inside the boundary (eta = 1e-6): {value.value:.1f}  (blows up as eta -> 0)")
