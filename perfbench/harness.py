"""Measurement helpers: latency statistics, spans, self time, and the tracer.

Nothing in this module imports gmfrac.  The tracer finds gmfrac's modules
in ``sys.modules`` when it is installed and restores every attribute it
replaced when it is removed, so one process can time a workload untraced
and then traced.
"""

import functools
import subprocess
import sys
import time

import numpy as np
# Bound now, before a Tracer replaces numpy.linalg's entry points, so the
# reference task below is never counted as library work.
from numpy.linalg import eigh as _eigh
from numpy.linalg import svd as _svd

FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "lstsq")

# Layers are gmfrac's modules.  Each public function in a module's
# ``__all__`` is wrapped; these methods are wrapped as well because they do
# a layer's work behind a documented class.
LAYERS = ("support", "subgrad", "hull", "cones", "gauges", "bruteforce")
METHODS = {
    "support": (("ConstraintPair", "__init__"),),
    "hull": (("ConvexWitness", "induced_point"), ("ConvexWitness", "distance_to")),
}
# The CLI has no ``__all__``; these are its file reader and its two writers
# (``_emit`` prints the JSON report, ``write_matrix`` writes witness files).
CLI_SPANS = (("read_matrix", "cli.read"), ("write_matrix", "cli.emit"), ("_emit", "cli.emit"))
PAIR_BUILD = "support.ConstraintPair.__init__"

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "factorizations_per_req": "count",
}
# Per-layer metrics measured by the runner rather than from spans.
RUN_METRICS = ("cli.import_ms", "cli.output_kb", "trace.overhead_ms")
UNITS = {"_ms": "ms", "_mb": "MB", "_kb": "KB", "_mflop": "Mflop"}


def unit_of(name):
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def tail_latency(samples, beyond=10, min_samples=40):
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(value, percentile)``, or ``None`` for fewer than
    ``min_samples`` samples, where that percentile would be no tail.
    """
    n = len(samples)
    if n < min_samples:
        return None
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def factor_mflop(name, args):
    """Floating-point work of one factorization, computed from its shapes.

    Standard dense counts (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    Fig. 8.6.1 and Sec. 5.4): symmetric eigenvalues only 4/3 n^3, with
    vectors 9 n^3; SVD of an r x c matrix (r >= c) with full U and V
    4 r^2 c + 8 r c^2 + 9 c^3, values only 4 r c^2 - 4/3 c^3; least squares
    through the SVD as values-only SVD plus 2 r c k for k right-hand sides.
    """
    a = np.asarray(args[0])
    if a.ndim < 2 or a.size == 0:
        return 0.0
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    r, c = a.shape[-2:]
    if name == "eigh":
        flops = 9.0 * r**3
    elif name == "eigvalsh":
        flops = 4.0 / 3.0 * r**3
    else:
        r, c = max(r, c), min(r, c)
        flops = 4.0 * r * c * c - 4.0 / 3.0 * c**3
        if name == "svd":
            flops = 4.0 * r * r * c + 8.0 * r * c * c + 9.0 * c**3
        elif len(args) > 1:
            b = np.asarray(args[1])
            flops += 2.0 * r * c * (b.shape[1] if b.ndim == 2 else 1)
    return batch * flops / 1e6


class SpeedProbe:
    """A fixed reference task, timed between requests to track machine speed.

    On a shared host the speed of a core drifts by up to 30% over seconds to
    minutes, and it slows the library and this task alike.  Each timing is
    therefore scaled by ``nominal`` over the task's time around it (see
    ``adjusted``).  The task mixes what gmfrac does: one SVD, one symmetric
    eigensolve and an interpreter loop.  It shares no code with gmfrac, so a
    change to the library moves adjusted timings by exactly its own share.
    """

    # seconds the task takes at the nominal speed that timings are reported
    # at; near its time on an idle core of a 2.1 GHz Xeon
    nominal = 5e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._M = rng.standard_normal((100, 200))
        S = rng.standard_normal((80, 80))
        self._S = S + S.T
        self()  # first call pays OpenBLAS's lazy set-up

    def __call__(self):
        t0 = time.perf_counter()
        _svd(self._M)
        _eigh(self._S)
        x = 0
        for k in range(30000):
            x += k
        return time.perf_counter() - t0


class SpawnProbe:
    """The reference task for CLI workloads: a fresh interpreter that imports
    numpy, the start-up that every ``gmfrac`` call pays.  It tracks the
    speed of process start, file mapping and imports, which the in-process
    task follows less closely."""

    # in the ratio of the two tasks' times on this machine, so that both
    # report at about the same nominal speed
    nominal = 0.12

    def __init__(self):
        self.argv = [sys.executable, "-c", "import numpy"]
        self()

    def __call__(self):
        t0 = time.perf_counter()
        subprocess.run(self.argv, check=True)
        return time.perf_counter() - t0


def adjusted(times, probes, nominal):
    """Timings at nominal speed: ``times[i]`` scaled by ``nominal`` over the
    mean of ``probes[i]`` and ``probes[i + 1]``, the reference task's times
    just before and just after it."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each timing and one after the last")
    return [t * 2.0 * nominal / (a + b) for t, a, b in zip(times, probes, probes[1:])]


class Recorder:
    """Spans in memory: name, start, end, parent index, request id, counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.request = None

    def enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.request, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index):
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are Recorder rows.  Children's intervals are merged and clipped
    to the parent first, so overlapping children are not subtracted twice.
    """
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Wraps numpy's factorizations and gmfrac's layer functions in spans.

    ``install`` replaces ``numpy.linalg.{eigh, eigvalsh, svd, lstsq}`` and
    every attribute of every loaded gmfrac module that is bound to one of
    them or to a layer function, so ``from numpy.linalg import svd`` and
    ``from .cones import in_cone`` bindings are traced too.  ``remove``
    puts every original back.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._patches = []

    def _wrap(self, fn, name, counts=None):
        rec = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(index)
            if counts is not None:
                rec.spans[index][5] = counts(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        replace = {}
        for fname in FACTORIZATIONS:
            fn = getattr(np.linalg, fname)
            replace[id(fn)] = self._wrap(
                fn, f"linalg.{fname}", lambda a, k, r, f=fname: {"mflop": factor_mflop(f, a)}
            )
            self._set(np.linalg, fname, replace[id(fn)])
        for layer in LAYERS:
            module = sys.modules.get(f"gmfrac.{layer}")
            if module is None:
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in replace:
                    replace[id(fn)] = self._wrap(fn, f"{layer}.{name}", _counts_for(name))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        cli = sys.modules.get("gmfrac.cli")
        for name, span in CLI_SPANS if cli is not None else ():
            fn = getattr(cli, name, None)
            if fn is not None and id(fn) not in replace:
                replace[id(fn)] = self._wrap(fn, span)
        for modname, module in list(sys.modules.items()):
            if modname == "gmfrac" or modname.startswith("gmfrac."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        self._set(module, attr, replace[id(value)])
        return self

    def remove(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _counts_for(name):
    if name == "caratheodory_witness":
        return lambda a, k, r: {
            "witness_components": r.components.shape[0],
            "witness_mb": r.components.nbytes / 1e6,
        }
    if name in ("sample_feasible", "support_lower_bound", "convexity_fuzz"):
        return lambda a, k, r: {"samples": _sample_count(a, k)}
    return None


def _sample_count(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        count = getattr(value, "count", None)
        if isinstance(count, int):
            return count
    return 0


def layer_metrics(spans, requests):
    """Per-request per-layer metrics from the spans of ``requests`` requests."""
    own = self_times(spans)
    m = {f"linalg.{f}": 0.0 for f in FACTORIZATIONS}
    m.update({"linalg.factor_ms": 0.0, "linalg.factor_mflop": 0.0})
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 0.0
        m[f"{layer}.calls"] = 0.0
    m.update({"support.pair_build_ms": 0.0, "support.pair_builds": 0.0})
    m.update({"hull.witness_components": 0.0, "hull.witness_mb": 0.0})
    m.update({"bruteforce.samples": 0.0, "cli.read_ms": 0.0, "cli.emit_ms": 0.0})
    for (name, start, end, _, request, counts), self_s in zip(spans, own):
        if request is None:
            continue
        layer = name.split(".", 1)[0]
        if layer == "linalg":
            m[name] += 1
            m["linalg.factor_ms"] += 1e3 * (end - start)
            m["linalg.factor_mflop"] += (counts or {}).get("mflop", 0.0)
        elif layer == "cli":
            m[f"{name}_ms"] += 1e3 * (end - start)
        else:
            m[f"{layer}.self_ms"] += 1e3 * self_s
            if name == PAIR_BUILD:
                m["support.pair_builds"] += 1
                m["support.pair_build_ms"] += 1e3 * (end - start)
            else:
                m[f"{layer}.calls"] += 1
            for key, value in (counts or {}).items():
                m[f"{layer}.{key}"] += value
    return {k: v / requests for k, v in m.items()}
