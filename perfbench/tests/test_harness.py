"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gmfrac
import harness


def test_tail_needs_forty_samples():
    assert harness.tail_latency(list(range(39))) is None


@pytest.mark.parametrize("n, value, pct", [(40, 29, 75.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_leaves_ten_samples_beyond(n, value, pct):
    samples = list(range(n))[::-1]  # order must not matter
    got, got_pct = harness.tail_latency(samples)
    assert got == value and got_pct == pct
    assert sum(s > got for s in samples) == 10


def test_adjusted_scales_by_the_reference_task_around_each_timing():
    ref = 0.005
    # the reference task took 1x, 2x, then 2x its nominal time
    got = harness.adjusted([0.1, 0.3], [ref, 2 * ref, 2 * ref], ref)
    assert got == pytest.approx([0.1 / 1.5, 0.3 / 2.0])
    with pytest.raises(ValueError):
        harness.adjusted([0.1, 0.3], [ref, ref], ref)


def test_speed_probe_is_not_counted_as_library_work():
    probe = harness.SpeedProbe()
    rec = harness.Recorder()
    rec.request = 0
    tracer = harness.Tracer(rec).install()
    try:
        assert probe() > 0.0
    finally:
        tracer.remove()
    assert rec.spans == []


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    rec = harness.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = rec.enter("a")
    b = rec.enter("b")
    c = rec.enter("c")
    rec.exit(c)
    rec.exit(b)
    d = rec.enter("d")
    rec.exit(d)
    rec.exit(a)
    assert [s[3] for s in rec.spans] == [None, a, b, a]
    assert harness.self_times(rec.spans) == [3, 2, 1, 4]


def test_self_time_merges_overlapping_children():
    spans = [
        ["p", 0.0, 10.0, None, 0, None],
        ["x", 1.0, 5.0, 0, 0, None],
        ["y", 3.0, 7.0, 0, 0, None],
        ["z", 8.0, 12.0, 0, 0, None],  # clipped to the parent's end
    ]
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def counts_of(fn, *args):
    rec = harness.Recorder()
    rec.request = 0
    tracer = harness.Tracer(rec).install()
    try:
        result = fn(*args)
    finally:
        tracer.remove()
    names = [s[0] for s in rec.spans if s[0].startswith("linalg.")]
    return {f: names.count(f"linalg.{f}") for f in harness.FACTORIZATIONS}, result


@pytest.mark.parametrize("n, m, p", [(4, 3, 2), (50, 5, 20)])
def test_counter_pair_and_support_counts(n, m, p):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((p, n))
    B = A @ rng.standard_normal((n, m))
    counts, pair = counts_of(gmfrac.ConstraintPair, A, B)
    assert counts == {"eigh": 0, "eigvalsh": 0, "svd": 2, "lstsq": 1}
    g = rng.standard_normal((n, n))
    dual = gmfrac.DualPoint(rng.standard_normal((n, m)), g @ g.T + np.eye(n))
    counts, res = counts_of(gmfrac.eval_support, dual, pair)
    assert res.finite
    assert counts == {"eigh": 2, "eigvalsh": 1, "svd": 0, "lstsq": 0}


def test_counter_sees_from_import_bindings_and_restores_them():
    original = np.linalg.svd
    module = types.ModuleType("gmfrac._bound_probe")
    exec("from numpy.linalg import svd\ndef run(a):\n    return svd(a)\n", module.__dict__)
    sys.modules[module.__name__] = module
    try:
        counts, _ = counts_of(module.run, np.eye(3))
    finally:
        del sys.modules[module.__name__]
    assert counts["svd"] == 1
    assert module.svd is original and np.linalg.svd is original
    assert gmfrac.eval_support is vars(gmfrac.support)["eval_support"]
    assert not hasattr(gmfrac.eval_support, "__wrapped__")


def test_layer_metrics_attribute_self_time_and_pair_builds():
    spans = [
        ["support.ConstraintPair.__init__", 0.0, 0.004, None, 0, None],
        ["linalg.svd", 0.001, 0.003, 0, 0, {"mflop": 2.0}],
        ["hull.in_hull", 0.005, 0.008, None, 0, None],
        ["cones.in_polar_cone", 0.006, 0.007, 2, 0, None],
        ["hull.in_hull", 0.1, 0.2, None, None, None],  # outside any request
    ]
    m = harness.layer_metrics(spans, requests=2)
    assert m["support.pair_builds"] == 0.5 and m["support.calls"] == 0
    assert m["support.pair_build_ms"] == pytest.approx(2.0)
    assert m["support.self_ms"] == pytest.approx(1.0)
    assert m["linalg.svd"] == 0.5 and m["linalg.factor_mflop"] == 1.0
    assert m["hull.calls"] == 0.5 and m["hull.self_ms"] == pytest.approx(1.0)
    assert m["cones.self_ms"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == harness.END_TO_END
    printed = list(harness.layer_metrics([], 1)) + list(harness.RUN_METRICS)
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == {
        name: harness.unit_of(name) for name in printed
    }
