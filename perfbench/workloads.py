"""The four workloads: inputs built from a seed, requests, and their checks.

A workload is built once per set-up.  ``request(i)`` makes the library (or
CLI) calls of request ``i`` and returns their raw results; ``check(i, out)``
compares them with the oracles and returns how many operations hit a known
fault, raising ``Mismatch`` on any other wrong answer.  Every request of a
workload has the same make-up and size; only the seeded values differ.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import eigvalsh

import gmfrac as gm
import harness
import oracles

SRC = Path(__file__).resolve().parents[1] / "src"


class Mismatch(Exception):
    """A library answer disagrees with its oracle."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def near(err, tol, what):
    expect(err <= tol, f"{what}: error {err:.3e} above {tol:.0e}")


def rand_sym(rng, n):
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    return 0.5 * (g + g.T)


def pd_on_kernel(rng, man, margin=1.0):
    """A symmetric V, indefinite on R^n, with ``Q^T V Q >= margin I``."""
    S = rand_sym(rng, man.Q.shape[0])
    lam = eigvalsh(man.Q.T @ S @ man.Q)[0] if man.Q.shape[1] else 0.0
    return S + (max(0.0, -lam) + margin) * man.P


def feasible_pair(rng, n, m, p, rank=None, homogeneous=False):
    """``A`` (p x n, of the given rank) and ``B = A Y`` for a random ``Y``."""
    if rank is None:
        A = rng.standard_normal((p, n))
    else:
        A = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    B = np.zeros((p, m)) if homogeneous else A @ rng.standard_normal((n, m))
    return A, B


# The two scale-consistency probes (p = 0, n = 2): each point is outside its
# set, as the same point scaled by 1e10 or 1e12 is, but an absolute
# eigenvalue threshold answers "inside" at this scale.
PROBE_PAIR = (np.zeros((0, 2)), np.zeros((0, 1)))
DUAL_PROBE = (np.array([[0.0], [1e-10]]), 1e-10 * np.diag([1.0, -1.0]))
PRIMAL_PROBE = (np.zeros((2, 1)), 1e-12 * np.diag([-1.0, 1.0]))


class DualSolve:
    """Support solves on fixed (200, 10, 100) pairs with fresh dual points."""

    name = "dual-solve"
    ops = 7
    warmup = 2
    POOL = 4

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for _ in range(2):
            A, B = feasible_pair(rng, 200, 10, 100)
            man = oracles.Manifold(A, B)
            pair = gm.ConstraintPair(A, B)
            self.cases.append((pair, man, [self._dual(rng, man) for _ in range(self.POOL)]))
        self.probe_pair = gm.ConstraintPair(*PROBE_PAIR)
        self.probe = gm.DualPoint(*DUAL_PROBE)

    @staticmethod
    def _dual(rng, man):
        V = pd_on_kernel(rng, man)
        value = 0.0
        while value < 1.0:
            X = rng.standard_normal(man.Y0.shape)
            value, Y, lam_max = oracles.support(man, X, V)
        t = 0.5 / value
        return {
            "X": X, "V": V, "value": value, "Y": Y, "t": t,
            "d": gm.DualPoint(X, V),
            "half": gm.DualPoint(t * X, t * V),
            # negative definite on ker A, so the support value is +inf
            "out": gm.DualPoint(X, V - (lam_max + 1.0) * man.P),
        }

    def _case(self, i):
        pair, man, pool = self.cases[i % 2]
        return pair, man, pool[(i // 2) % self.POOL]

    def request(self, i):
        pair, _, e = self._case(i)
        res = gm.eval_support(e["d"], pair)
        half = gm.eval_support(e["half"], pair)
        sub = gm.canonical_subgradient(e["d"], pair)
        in_sub = gm.in_subdifferential(sub.point, e["d"], pair)
        polar = gm.in_hull_polar(e["half"], pair)
        out = gm.eval_support(e["out"], pair)
        probe = gm.eval_support(self.probe, self.probe_pair)
        return res, half, sub, in_sub, polar, out, probe

    def check(self, i, results):
        _, man, e = self._case(i)
        res, half, sub, in_sub, polar, out, probe = results
        expect(res.finite, "eval_support: finite value expected")
        near(oracles.rel_err(res.value, e["value"]), 1e-9, "eval_support value")
        near(oracles.rel_err(res.maximizer, e["Y"]), 1e-7, "eval_support Y*")
        near(man.residual(res.maximizer), 1e-9, "A Y* = B")
        fen = oracles.fenchel(e["X"], e["V"], res.maximizer)
        near(oracles.rel_err(res.value, fen), 1e-9, "Fenchel equality")
        expect(half.finite, "eval_support(tX, tV): finite value expected")
        near(oracles.rel_err(half.value, e["t"] * res.value), 1e-9, "homogeneity")
        near(oracles.rel_err(sub.value, res.value), 1e-12, "subgradient value")
        near(oracles.rel_err(sub.point.Y, e["Y"]), 1e-7, "subgradient Y")
        Y = sub.point.Y
        near(oracles.rel_err(sub.point.W, -0.5 * (Y @ Y.T)), 1e-12, "subgradient W")
        expect(bool(in_sub), "in_subdifferential: True expected")
        expect(bool(polar), "in_hull_polar at value 1/2: True expected")
        expect(not out.finite, "eval_support with V < 0 on ker A: +inf expected")
        return 0 if not probe.finite else 1


class PrimalGeometry:
    """Cone, hull and gauge tests on (50, 5, 20) pairs, plus one witness."""

    name = "primal-geometry"
    BATCH = 14
    EPSILON = 1e-4
    warmup = 2
    ops = 2 * BATCH * 6 + BATCH + 2 + 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for homogeneous in (False, True):
            A, B = feasible_pair(rng, 50, 5, 20, homogeneous=homogeneous)
            man = oracles.Manifold(A, B)
            pair = gm.ConstraintPair(A, B)
            self.cases.append((pair, man, [self._points(rng, man) for _ in range(self.BATCH)]))
        pair, man, points = self.cases[0]
        first = points[0]["inside"]
        self.witness_point = first
        count = man.Q.shape[0] * (man.Q.shape[0] + 1) // 2 + 1
        self.witness_count = count + 1
        self.witness_bound = oracles.witness_bound(man, first.Y, first.W, self.EPSILON, count)
        self.probe_pair = gm.ConstraintPair(*PROBE_PAIR)
        self.probe = gm.PrimalPoint(*PRIMAL_PROBE)

    @staticmethod
    def _points(rng, man):
        n, k = man.Q.shape
        m = man.Y0.shape[1]
        G = rng.standard_normal((k, m))
        Y = man.Y0 + man.Q @ G
        R = rng.standard_normal((k, k)) / np.sqrt(k)
        M = R @ R.T + np.eye(k)
        T = -man.Q @ M @ man.Q.T
        v = man.Q @ rng.standard_normal(k)
        v /= np.linalg.norm(v)
        push = 2.0 * abs(v @ T @ v) + 1.0
        V = pd_on_kernel(rng, man)
        Z = rng.standard_normal((man.A.shape[0], m))
        W = -0.5 * (Y @ Y.T) + T
        return {
            "inside": gm.PrimalPoint(Y, W),
            # c v v^T with v in ker A and c > |v^T T v|: the gap leaves the polar cone
            "outside": gm.PrimalPoint(Y, W + push * np.outer(v, v)),
            "horizon": gm.PrimalPoint(np.zeros_like(Y), T),
            "graph": gm.PrimalPoint(Y, -0.5 * (Y @ Y.T)),
            "normal": gm.DualPoint(V @ Y + man.A.T @ Z, V),
            # Q^T (-W) Q = 1/2 G G^T + M when Y = Q G (the B = 0 pair)
            "gauge": oracles.gauge(G, 0.5 * (G @ G.T) + M),
        }

    def request(self, i):
        answers = []
        for pair, _, points in self.cases:
            for pt in points:
                answers += [
                    gm.in_hull(pt["inside"], pair),
                    gm.in_hull(pt["outside"], pair),
                    gm.in_hull_rint(pt["inside"], pair),
                    gm.in_hull_aff(pt["inside"], pair),
                    gm.in_hull_horizon(pt["horizon"], pair),
                    gm.in_normal_cone(pt["normal"], pt["graph"], pair),
                ]
        gauges = [gm.eval_gauge(pt["inside"], self.cases[1][0]) for pt in self.cases[1][2]]
        wit = gm.caratheodory_witness(self.witness_point, self.cases[0][0], self.EPSILON)
        dist = wit.distance_to(self.witness_point)
        probe = gm.in_hull(self.probe, self.probe_pair)
        return answers, gauges, wit, dist, probe

    def check(self, i, results):
        answers, gauges, wit, dist, probe = results
        want = [True, False, True, True, True, True] * (2 * self.BATCH)
        bad = [j for j, (a, w) in enumerate(zip(answers, want)) if bool(a) != w]
        expect(not bad, f"membership answers {bad[:5]} differ from the construction")
        for res, pt in zip(gauges, self.cases[1][2]):
            expect(res.finite, "eval_gauge: finite value expected")
            near(oracles.rel_err(res.value, pt["gauge"]), 1e-8, "eval_gauge value")
        _, man, _ = self.cases[0]
        w, comps = wit.weights, wit.components
        expect(comps.shape[0] == self.witness_count, f"witness has {comps.shape[0]} components")
        expect(bool(np.all(w >= 0.0)), "witness weights must be nonnegative")
        near(abs(float(w.sum()) - 1.0), 1e-12, "witness weights sum")
        Yb, Wb = oracles.induced_point(w, comps)
        near(man.residual(Yb), 1e-9, "witness: A Y = B at the induced point")
        pt = self.witness_point
        own = oracles.distance(Yb, Wb, pt.Y, pt.W)
        near(abs(dist - own), 1e-9 * max(1.0, own), "distance_to vs recomputed")
        expect(own <= 1.01 * self.witness_bound + 1e-12,
               f"witness distance {own:.3e} above O(sqrt eps) bound {self.witness_bound:.3e}")
        return 1 if probe else 0


class PairChurn:
    """Fresh ConstraintPairs of assorted shapes, one cheap query each."""

    name = "pair-churn"
    warmup = 2
    # (n, m, p, kind): kind picks the structure of A and B
    SPECS = (
        (4, 3, 2, "general"),
        (20, 3, 8, "general"),
        (50, 5, 20, "general"),
        (200, 10, 100, "general"),
        (30, 4, 0, "unconstrained"),
        (40, 4, 10, "zero-rows"),
        (50, 5, 20, "homogeneous"),
        (60, 4, 30, "rank-deficient"),
        (60, 4, 30, "infeasible"),
    )
    # Eight seeded instances of each kind make a request as long as the other
    # library workloads' (about 0.1 s), so its tail is a percentile near p93
    # rather than a rare outlier.
    COPIES = 8
    ops = COPIES * (2 * len(SPECS) - 1)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for _ in range(self.COPIES):
            for spec in self.SPECS:
                n, m, p, kind = spec
                rank = 12 if kind in ("rank-deficient", "infeasible") else None
                A, B = feasible_pair(rng, n, m, p, rank=rank, homogeneous=kind == "homogeneous")
                if kind == "zero-rows":
                    A[-3:] = 0.0
                    B[-3:] = 0.0
                if kind == "infeasible":
                    # a generic B leaves the rank-12 range of A
                    B = rng.standard_normal((p, m))
                    self.cases.append((spec, A, B, None, None))
                    continue
                man = oracles.Manifold(A, B)
                Y = man.Y0 + man.Q @ rng.standard_normal((man.Q.shape[1], m))
                point = gm.PrimalPoint(Y, -0.5 * (Y @ Y.T) - man.P)
                self.cases.append((spec, A, B, man, point))

    def request(self, i):
        out = []
        for _, A, B, _, point in self.cases:
            try:
                pair = gm.ConstraintPair(A, B)
            except gm.InfeasiblePairError as exc:
                # without its traceback, whose frame holds ``out``: that cycle
                # would keep every request's pairs alive until a full collection
                out.append((exc.with_traceback(None), None))
                continue
            out.append((pair, gm.in_hull(point, pair)))
        return out

    def check(self, i, results):
        for (spec, A, B, man, _), (pair, member) in zip(self.cases, results):
            if man is None:
                expect(isinstance(pair, gm.InfeasiblePairError), f"{spec}: InfeasiblePairError expected")
                continue
            expect(bool(member), f"{spec}: in_hull True expected")
            Q = pair.kernel.basis
            n = A.shape[1]
            expect(Q.shape == (n, n - man.rank), f"{spec}: kernel dimension {Q.shape[1]}")
            near(float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()), 1e-10, f"{spec}: Q^T Q = I")
            if A.shape[0]:
                near(float(np.linalg.norm(A @ Q)) / max(1.0, np.linalg.norm(A)), 1e-10, f"{spec}: A Q = 0")
            Y0 = pair.min_norm_solution
            near(man.residual(Y0), 1e-9, f"{spec}: A Y0 = B")
            near(float(np.linalg.norm(Q.T @ Y0)) / max(1.0, np.linalg.norm(Y0)), 1e-9, f"{spec}: Y0 orthogonal to ker A")
        return 0


def write_matrix(path, M):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_blocks(path):
    """Our own parser for a witness file: comment lines, then ``rows cols`` blocks."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens += line.split("#", 1)[0].split()
    blocks, pos = [], 0
    while pos < len(tokens):
        r, c = int(tokens[pos]), int(tokens[pos + 1])
        blocks.append(np.array(tokens[pos + 2 : pos + 2 + r * c], dtype=float).reshape(r, c))
        pos += 2 + r * c
    return blocks


class CliSession:
    """A fixed sequence of ``gmfrac`` subprocess calls on files written in set-up."""

    name = "cli-session"
    warmup = 1
    ops = 4
    # its requests are mostly interpreter start-ups
    speed_probe = harness.SpawnProbe
    EPSILON = 1e-4
    TRIALS = 200

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        workdir.mkdir(parents=True, exist_ok=True)
        A, B = feasible_pair(rng, 30, 3, 10)
        self.man = man = oracles.Manifold(A, B)
        V = pd_on_kernel(rng, man)
        X = rng.standard_normal((30, 3))
        self.value, self.Y_star, _ = oracles.support(man, X, V)
        k = man.Q.shape[1]
        Y = man.Y0 + man.Q @ rng.standard_normal((k, 3))
        R = rng.standard_normal((k, k)) / np.sqrt(k)
        W = -0.5 * (Y @ Y.T) - man.Q @ (R @ R.T + np.eye(k)) @ man.Q.T
        self.Y, self.W = Y, W
        count = 30 * 31 // 2 + 1
        self.witness_count = count + 1
        self.witness_bound = oracles.witness_bound(man, Y, W, self.EPSILON, count)
        f = {}
        for name, M in (("A", A), ("B", B), ("X", X), ("V", V), ("Y", Y), ("W", W)):
            f[name] = str(workdir / f"{name}.txt")
            write_matrix(f[name], M)
        self.witness_file = str(workdir / "witness.txt")
        pair = ["--A", f["A"], "--B", f["B"]]
        self.calls = [
            ["support", *pair, "--X", f["X"], "--V", f["V"]],
            ["omega-member", *pair, "--Y", f["Y"], "--W", f["W"]],
            ["witness", *pair, "--Y", f["Y"], "--W", f["W"],
             "--epsilon", repr(self.EPSILON), "--out", self.witness_file],
            ["verify", *pair, "--trials", str(self.TRIALS), "--seed", str(seed)],
        ]
        # the children inherit the one-thread BLAS settings and import gmfrac from src
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.output_bytes = []

    def request(self, i):
        return [
            subprocess.run(
                [sys.executable, "-m", "gmfrac.cli", *argv],
                env=self.env, capture_output=True, text=True, check=False,
            )
            for argv in self.calls
        ]

    def request_in_process(self, i):
        """The same calls through ``gmfrac.cli.main`` in this process."""
        import gmfrac.cli

        out = []
        for argv in self.calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = gmfrac.cli.main(list(argv))
            out.append(subprocess.CompletedProcess(argv, code, buf.getvalue(), ""))
        return out

    def check(self, i, results):
        reports = []
        for argv, proc in zip(self.calls, results):
            expect(proc.returncode == 0, f"gmfrac {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
            reports.append(json.loads(proc.stdout)["outputs"])
        support, member, witness, verify = reports
        expect(support["finite"] is True, "support: finite value expected")
        near(oracles.rel_err(support["value"], self.value), 1e-9, "support value")
        near(oracles.rel_err(np.array(support["maximizer"]), self.Y_star), 1e-7, "support Y*")
        expect(member["member"] is True, "omega-member: True expected")
        expect(witness["components"] == self.witness_count, f"witness has {witness['components']} components")
        blocks = read_blocks(self.witness_file)
        weights, comps = blocks[1].ravel(), np.stack(blocks[2:])
        expect(comps.shape[0] == self.witness_count, "witness file: component count")
        expect(bool(np.all(weights >= 0.0)), "witness weights must be nonnegative")
        near(abs(float(weights.sum()) - 1.0), 1e-12, "witness weights sum")
        Yb, Wb = oracles.induced_point(weights, comps)
        near(self.man.residual(Yb), 1e-9, "witness: A Y = B at the induced point")
        own = oracles.distance(Yb, Wb, self.Y, self.W)
        near(abs(witness["distance"] - own), 1e-9 * max(1.0, own), "witness distance vs recomputed")
        expect(own <= 1.01 * self.witness_bound + 1e-12, "witness distance above O(sqrt eps) bound")
        expect(verify["all_passed"] is True, f"verify: {verify['checks']}")
        self.output_bytes.append(
            sum(len(p.stdout.encode()) for p in results) + os.path.getsize(self.witness_file)
        )
        return 0

    def import_ms(self, repeats=5):
        """Median time of ``import gmfrac.cli`` in a fresh interpreter."""
        code = "import time; t = time.perf_counter(); import gmfrac.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", code], env=self.env,
                                  capture_output=True, text=True, check=True)
            times.append(float(proc.stdout))
        return 1e3 * float(np.median(times))


WORKLOADS = {w.name: w for w in (DualSolve, PrimalGeometry, PairChurn, CliSession)}
