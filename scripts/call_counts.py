"""Count the calls of perfbench's library workloads, request by request.

An untimed pass: the workload is set up as ``perfbench/run.py`` sets it up,
and each request then runs under a ``sys.setprofile`` hook that counts its
Python-level calls and its calls of C functions, the calls of a few
functions of the package, and the hits of the package's memos.  Unlike wall
time, these counts do not depend on the machine or its load, so two
requests that take the same path give equal counts.

Usage::

    python scripts/call_counts.py --workload primal-geometry --requests 3 --seed 1

Prints one JSON object per request: ``pycalls`` and ``ccalls``; ``calls``,
the calls of ``hull._gap``, ``linalg._compress``, ``linalg._above`` and
``support._solve``; and ``memo_hits``, by memo: ``support``, the support
solves read from the memo (calls of ``support._reduced_solve`` less those of
``support._solve``), and ``hull``, the primal points whose record was read
from the hull memo (0 where there is none).  The first request starts with
empty memos; a later one may read an entry that the request before it
left.  Reads ``perfbench/workloads.py`` and changes nothing under
``perfbench/``.  Runs with one BLAS thread, as the benchmark does.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as perfbench/run.py sets it, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gmfrac  # noqa: E402
import workloads  # noqa: E402

# the workloads that call the library in process; cli-session's calls run in
# subprocesses, which the hook does not see
LIBRARY = ("dual-solve", "primal-geometry", "pair-churn")
COUNTED = {
    "hull._gap": gmfrac.hull._gap,
    "linalg._compress": gmfrac.linalg._compress,
    "linalg._above": gmfrac.linalg._above,
    "support._solve": gmfrac.support._solve,
}


class Counter:
    """A ``sys.setprofile`` hook that counts calls by kind and by function."""

    def __init__(self):
        self.codes = {fn.__code__: name for name, fn in COUNTED.items()}
        self.reduced = gmfrac.support._reduced_solve.__code__
        memo = getattr(gmfrac.support, "_Memo", None)
        self.recall = memo.recall.__code__ if memo is not None else None
        self.hull_memo = getattr(gmfrac.hull, "_tested", None)
        self.reset()

    def reset(self):
        self.pycalls = self.ccalls = self.reduced_calls = 0
        self.hull_recalls = self.hull_misses = 0
        self.calls = dict.fromkeys(COUNTED, 0)

    def __call__(self, frame, event, arg):
        if event == "c_call":
            self.ccalls += 1
            return
        if event != "call":
            return
        self.pycalls += 1
        code = frame.f_code
        name = self.codes.get(code)
        if name is not None:
            self.calls[name] += 1
        elif code is self.reduced:
            self.reduced_calls += 1
        elif code is self.recall and frame.f_locals.get("self") is self.hull_memo:
            self.hull_recalls += 1
        back = frame.f_back
        if (
            back is not None
            and back.f_code is self.recall
            and back.f_locals.get("self") is self.hull_memo
            and code is not self.recall
        ):
            # the memo's compute, called on a miss
            self.hull_misses += 1

    def report(self):
        return {
            "pycalls": self.pycalls,
            "ccalls": self.ccalls,
            "calls": dict(self.calls),
            "memo_hits": {
                "support": self.reduced_calls - self.calls["support._solve"],
                "hull": self.hull_recalls - self.hull_misses,
            },
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=LIBRARY)
    ap.add_argument("--requests", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.requests < 1:
        ap.error("--requests must be at least 1")

    counter = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        for i in range(args.requests):
            counter.reset()
            sys.setprofile(counter)
            try:
                out = wl.request(i)
            finally:
                sys.setprofile(None)
            wl.check(i, out)
            print(json.dumps({"workload": args.workload, "request": i, **counter.report()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
