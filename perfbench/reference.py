"""Per-call reference figures at the ROADMAP sizes.

    python3 perfbench/reference.py

Prints a markdown table: for each (n, m, p), the median wall time of one
call and its numpy factorizations, for ``ConstraintPair`` construction,
``eval_support``, ``in_hull`` and ``in_subdifferential``.  One BLAS thread,
as in the benchmark.
"""

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import gmfrac as gm  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
from workloads import feasible_pair, pd_on_kernel  # noqa: E402

SIZES = ((4, 3, 2), (50, 5, 20), (200, 10, 100), (400, 10, 200))


def per_call(fn, *args, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    rec = harness.Recorder()
    rec.request = 0
    tracer = harness.Tracer(rec).install()
    try:
        fn(*args)
    finally:
        tracer.remove()
    names = [s[0].split(".", 1)[1] for s in rec.spans if s[0].startswith("linalg.")]
    counts = " + ".join(f"{names.count(f)} {f}" for f in harness.FACTORIZATIONS if f in names)
    return f"{1e3 * statistics.median(times):.3g} ms ({counts or 'none'})"


def main():
    rng = np.random.default_rng(0)
    print("| (n, m, p) | `ConstraintPair` | `eval_support` | `in_hull` | `in_subdifferential` |")
    print("|---|---|---|---|---|")
    for n, m, p in SIZES:
        repeats = 30 if n <= 50 else 8
        A, B = feasible_pair(rng, n, m, p)
        man = oracles.Manifold(A, B)
        pair = gm.ConstraintPair(A, B)
        dual = gm.DualPoint(rng.standard_normal((n, m)), pd_on_kernel(rng, man))
        Y = man.Y0 + man.Q @ rng.standard_normal((man.Q.shape[1], m))
        point = gm.PrimalPoint(Y, -0.5 * (Y @ Y.T) - man.P)
        sub = gm.canonical_subgradient(dual, pair).point
        cells = [
            per_call(gm.ConstraintPair, A, B, repeats=repeats),
            per_call(gm.eval_support, dual, pair, repeats=repeats),
            per_call(gm.in_hull, point, pair, repeats=repeats),
            per_call(gm.in_subdifferential, sub, dual, pair, repeats=repeats),
        ]
        print(f"| ({n}, {m}, {p}) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
