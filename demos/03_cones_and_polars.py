"""Subspace-restricted PSD cones and their polars.

For a subspace S, the cone holds the matrices whose quadratic form is
nonnegative on S; its polar is the set of matrices supported on S that are
negative semidefinite there.  The polarity inequality <V, W> <= 0 links the
two, and membership in the interior / relative interior sharpens both.
"""

import numpy as np

from gmfrac import (
    frobenius_inner,
    in_aff_polar,
    in_cone,
    in_int_cone,
    in_polar_cone,
    in_rint_polar,
    kernel_basis,
    sample_polar,
)

# S = ker [1, 0] = span{e2}
sub = kernel_basis(np.array([[1.0, 0.0]]))
print("subspace dimension:", sub.dim)
print("projector Q Q^T:\n", sub.basis @ sub.basis.T)

print("\ncone membership (only the S-block matters):")
for v in (np.diag([-7.0, 0.0]), np.diag([0.0, -1e-3]), np.diag([-1.0, 1.0])):
    print(f"  diag{tuple(np.diag(v))}: member={in_cone(v, sub)} interior={in_int_cone(v, sub)}")

print("\npolar membership requires support on S and a nonpositive form:")
w_good = np.array([[0.0, 0.0], [0.0, -3.0]])
w_bad = -np.eye(2)  # negative definite but not supported on S
print("  diag(0, -3):", in_polar_cone(w_good, sub))
print("  -I:         ", in_polar_cone(w_bad, sub))
print("  rint(polar) of diag(0, -3):", in_rint_polar(w_good, sub))
print("  aff(polar) ignores sign, diag(0, 5):", in_aff_polar(np.diag([0.0, 5.0]), sub))

print("\npolarity inequality on sampled pairs:")
rng = np.random.default_rng(0)
worst = -np.inf
for w in sample_polar(sub, 2, rng, count=1000):
    v = np.diag([rng.standard_normal(), abs(rng.standard_normal())])  # in the cone
    worst = max(worst, frobenius_inner(v, w))
print(f"  max <V, W> over 1000 samples: {worst:.3e} (must be <= 0 up to tolerance)")
