"""gmfrac benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload dual-solve --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the library is imported from ``src``.
Each run sets up its workload three times (inputs, pairs, warm-up), times
whole requests in a closed loop with one client until ``--seconds`` have
passed, checks every answer against oracles written apart from the
library, and prints one JSON object as its last line.  A fixed reference
task runs between requests, and timings are reported at the nominal machine
speed it sets (``harness.SpeedProbe``, ``harness.SpawnProbe``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times half the
run untraced and half traced and reports the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

START = time.perf_counter()
# One BLAS thread here and in every gmfrac subprocess; it must be set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (imports numpy, so after the BLAS settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
COUNTED_REQUESTS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_loop(wl, request, seconds, probe=None, recorder=None, first=0):
    """Closed loop: whole requests until ``seconds`` have passed.

    Only the calls into the program are timed; the checks run between
    requests.  With a ``probe`` (``harness.SpeedProbe`` or ``SpawnProbe``)
    the reference task is timed before the first request and after each one,
    and the latencies are returned adjusted to nominal machine speed as well
    as raw.  Returns (adjusted latencies, raw latencies) in s, failed
    operations and correctness.
    """
    from workloads import Mismatch

    latencies, probes, failed, correct = [], [], 0, True
    if probe is not None:
        probes.append(probe())
    start = time.perf_counter()
    i = first
    while not latencies or time.perf_counter() - start < seconds:
        if recorder is not None:
            recorder.request = i
        t0 = time.perf_counter()
        try:
            out = request(i)
        except Exception as exc:  # a raising call is a failed, wrong answer
            out = exc
        latencies.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.request = None
        if probe is not None:
            probes.append(probe())
        try:
            if isinstance(out, Exception):
                raise out
            failed += wl.check(i, out)
        except Mismatch as exc:
            print(f"{wl.name} request {i}: {exc}", file=sys.stderr)
            failed, correct = failed + 1, False
        except Exception as exc:
            print(f"{wl.name} request {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed, correct = failed + wl.ops, False
        i += 1
    adjusted = harness.adjusted(latencies, probes, probe.nominal) if probe is not None else latencies
    return adjusted, latencies, failed, correct


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gmfrac" / "__init__.py").is_file():
        print(f"error: no gmfrac sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import gmfrac
    import workloads

    if not Path(gmfrac.__file__).resolve().is_relative_to(src):
        print(f"error: gmfrac imported from {gmfrac.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    cls = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Set-up times are adjusted to nominal speed like latencies: the
    # reference task runs once before the first set-up and after each one.
    probe = getattr(cls, "speed_probe", harness.SpeedProbe)()
    setups, probes, warm_ok = [], [probe()], True
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl = cls(args.seed, workdir)
        for i in range(wl.warmup):
            warm_ok = timed_loop(wl, wl.request, 0.0, first=i)[3] and warm_ok
        setups.append(time.perf_counter() - t0)
        probes.append(probe())
    setup_s = harness.adjusted([import_s], probes[:1] * 2, probe.nominal)[0]
    setup_s += statistics.median(harness.adjusted(setups, probes, probe.nominal))

    traced_request = getattr(wl, "request_in_process", wl.request)
    if args.trace:
        half = args.seconds / 2.0
        plain, _, failed_a, ok_a = timed_loop(wl, traced_request, half, probe)
        recorder = harness.Recorder()
        tracer = harness.Tracer(recorder).install()
        try:
            traced, _, failed_b, ok_b = timed_loop(wl, traced_request, half, probe, recorder, len(plain))
        finally:
            tracer.remove()
        n, failed, correct = len(plain) + len(traced), failed_a + failed_b, ok_a and ok_b
        values = harness.layer_metrics(recorder.spans, len(traced))
        values["cli.import_ms"] = wl.import_ms() if hasattr(wl, "import_ms") else 0.0
        sizes = getattr(wl, "output_bytes", None)
        values["cli.output_kb"] = statistics.fmean(sizes) / 1024 if sizes else 0.0
        values["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"trace-{args.workload}-{args.seed}.tsv")
        units = {k: harness.unit_of(k) for k in values}
    else:
        lat, raw, failed, correct = timed_loop(wl, wl.request, args.seconds, probe)
        n = len(lat)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        # Factorization counts do not depend on timing: count them after the
        # timed loop, on the same requests, with the tracer installed.
        recorder = harness.Recorder()
        tracer = harness.Tracer(recorder).install()
        try:
            for j in range(COUNTED_REQUESTS):
                correct = timed_loop(wl, traced_request, 0.0, None, recorder, n + j)[3] and correct
        finally:
            tracer.remove()
        factorizations = sum(1 for s in recorder.spans if s[0].startswith("linalg.") and s[4] is not None)
        tail = harness.tail_latency(lat)
        values = {
            "throughput_rps": n / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            # With fewer than 40 requests no percentile has ten requests
            # beyond it, so the median stands in for the tail.
            "latency_tail_ms": 1e3 * (tail[0] if tail else statistics.median(lat)),
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
            "factorizations_per_req": factorizations / COUNTED_REQUESTS,
        }
        units = harness.END_TO_END
        print(f"{args.workload}: {n} requests, tail at {'p%.1f' % tail[1] if tail else 'p50'}; "
              f"unadjusted: p50 {1e3 * statistics.median(raw):.4g} ms, setups "
              f"{[round(s, 3) for s in setups]} s")

    correct = correct and warm_ok
    shutil.rmtree(workdir, ignore_errors=True)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": n * wl.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
