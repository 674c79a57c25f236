"""Command-line front end.

Reads matrices from self-describing text files (first non-comment line
``rows cols``, then ``rows*cols`` whitespace-separated floats in row-major
order; blank lines ignored; ``#`` starts a comment), dispatches to the
library, and prints exactly one JSON report on stdout.  Diagnostics go to
stderr.  Exit codes: 0 success, 1 failed verification, 2 bad input, 3
precondition violated (e.g. an infeasible pair).
"""

import argparse
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from .linalg import ToleranceConfig
from .cones import sample_polar
from .support import (
    ConstraintPair,
    DualPoint,
    InfeasiblePairError,
    PreconditionError,
    eval_support,
    in_domain,
)
from .hull import (
    PrimalPoint,
    caratheodory_witness,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
)
from .subgrad import canonical_subgradient, in_normal_cone, in_subdifferential
from .gauges import eval_gauge, eval_polar_gauge, in_scaled_hull
from .bruteforce import (
    SampleConfig,
    convexity_fuzz,
    gauge_bisection,
    sample_feasible,
    support_lower_bound,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


class CliInputError(Exception):
    pass


def read_matrix(path):
    """Parse one matrix file; raises CliInputError on any malformation."""
    blocks = read_matrix_blocks(path)
    if len(blocks) != 1:
        raise CliInputError(f"{path}: expected exactly one matrix, found {len(blocks)}")
    return blocks[0]


def write_matrix(fh, M, name=None):
    M = np.asarray(M, dtype=float)
    if name:
        fh.write(f"# {name}\n")
    fh.write(f"{M.shape[0]} {M.shape[1]}\n")
    for row in M.tolist():
        fh.write(" ".join(map(repr, row)) + "\n")


def read_matrix_blocks(path):
    """Parse a file of consecutive ``rows cols`` matrix blocks (witness format).

    Raises CliInputError on any malformation: a missing or non-integer
    header, ``rows < 0`` or ``cols < 1``, a truncated block, or a
    non-numeric or non-finite entry.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    tokens = []
    for line in raw.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    blocks = []
    pos = 0
    while pos < len(tokens):
        if pos + 2 > len(tokens):
            raise CliInputError(f"{path}: missing 'rows cols' header")
        try:
            rows, cols = int(tokens[pos]), int(tokens[pos + 1])
        except ValueError as exc:
            raise CliInputError(f"{path}: header must be two integers") from exc
        if rows < 0 or cols < 1:
            raise CliInputError(f"{path}: need rows >= 0 and cols >= 1, got {rows} {cols}")
        pos += 2
        data = tokens[pos : pos + rows * cols]
        if len(data) != rows * cols:
            raise CliInputError(
                f"{path}: expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        try:
            values = np.array([float(t) for t in data], dtype=float)
        except ValueError as exc:
            raise CliInputError(f"{path}: non-numeric matrix entry") from exc
        if not np.all(np.isfinite(values)):
            raise CliInputError(f"{path}: matrix entries must be finite")
        blocks.append(values.reshape(rows, cols))
        pos += rows * cols
    return blocks


def _digest(M):
    M = np.ascontiguousarray(np.asarray(M, dtype=np.float64))
    h = hashlib.sha256()
    h.update(f"{M.shape[0]} {M.shape[1]} ".encode())
    h.update(M.tobytes())
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [[_jsonable(float(v)) for v in row] for row in np.atleast_2d(obj)]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report):
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def _tolerances(args):
    return ToleranceConfig(
        rank_tol=args.rank_tol,
        psd_tol=args.psd_tol,
        range_tol=args.range_tol,
        eq_tol=args.eq_tol,
        feas_tol=args.feas_tol,
    )


def _load_pair(args, tol, inputs):
    A = read_matrix(args.A)
    B = read_matrix(args.B)
    inputs["A"] = {"rows": A.shape[0], "cols": A.shape[1], "sha256": _digest(A)}
    inputs["B"] = {"rows": B.shape[0], "cols": B.shape[1], "sha256": _digest(B)}
    try:
        return ConstraintPair(A, B, tol=tol)
    except InfeasiblePairError:
        raise
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _load_named(args, name, inputs):
    M = read_matrix(getattr(args, name))
    inputs[name] = {"rows": M.shape[0], "cols": M.shape[1], "sha256": _digest(M)}
    return M


def _dual(args, inputs):
    X = _load_named(args, "X", inputs)
    V = _load_named(args, "V", inputs)
    try:
        return DualPoint(X, V)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _primal(args, inputs):
    Y = _load_named(args, "Y", inputs)
    W = _load_named(args, "W", inputs)
    try:
        return PrimalPoint(Y, W)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _support_outputs(res):
    if not res.finite:
        return {"finite": False, "value": "inf"}
    return {
        "finite": True,
        "value": res.value,
        "maximizer": res.maximizer,
        "multiplier": res.multiplier,
    }


def _cmd_support(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    return _support_outputs(eval_support(_dual(args, inputs), pair))


def _cmd_domain(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    return {"member": in_domain(_dual(args, inputs), pair)}


def _bool_cmd(fn, point_kind):
    def run(args, tol, inputs):
        pair = _load_pair(args, tol, inputs)
        pt = _primal(args, inputs) if point_kind == "primal" else _dual(args, inputs)
        return {"member": fn(pt, pair)}

    return run


def _cmd_subgrad(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    res = canonical_subgradient(_dual(args, inputs), pair)
    return {
        "value": res.value,
        "Y": res.point.Y,
        "W": res.point.W,
        "multiplier": res.multiplier,
    }


def _cmd_subgrad_check(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    dual = _dual(args, inputs)
    cand = _primal(args, inputs)
    return {"member": in_subdifferential(cand, dual, pair)}


def _cmd_ncone_check(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    dual = _dual(args, inputs)
    base = _primal(args, inputs)
    return {"member": in_normal_cone(dual, base, pair)}


def _cmd_gauge(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    res = eval_gauge(_primal(args, inputs), pair)
    if not res.finite:
        return {"finite": False, "value": "inf"}
    out = {"finite": True, "value": res.value}
    out["sigma_min"] = "inf" if res.sigma_min is None else res.sigma_min
    if res.critical_matrix is not None:
        out["critical_matrix"] = res.critical_matrix
    return out


def _cmd_gauge_polar(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    value = eval_polar_gauge(_dual(args, inputs), pair)
    if math.isinf(value):
        return {"finite": False, "value": "inf"}
    return {"finite": True, "value": value}


def _cmd_witness(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    point = _primal(args, inputs)
    if not 0.0 < args.epsilon < 1.0:
        raise CliInputError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    wit = caratheodory_witness(point, pair, args.epsilon)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("# caratheodory witness: epsilon, weights, then components\n")
            write_matrix(fh, np.array([[wit.epsilon]]), name="epsilon")
            write_matrix(fh, wit.weights.reshape(1, -1), name="weights")
            # all but at most k + 1 components are copies of Z0: format each
            # run of bitwise-equal ones once (by bytes, since -0.0 == 0.0
            # but the two print differently)
            last, text = None, None
            for i, comp in enumerate(wit.components):
                raw = comp.tobytes()
                if raw != last:
                    buf = io.StringIO()
                    write_matrix(buf, comp)
                    last, text = raw, buf.getvalue()
                fh.write(f"# component {i}\n{text}")
    except OSError as exc:
        raise CliInputError(f"cannot write {args.out}: {exc}") from exc
    return {
        "file": args.out,
        "epsilon": wit.epsilon,
        "components": int(wit.components.shape[0]),
        "distance": wit.distance_to(point),
    }


def _cmd_verify(args, tol, inputs):
    pair = _load_pair(args, tol, inputs)
    seed = args.seed if args.seed is not None else 0
    trials = args.trials
    rng = np.random.default_rng(seed)
    checks = []

    sc = SampleConfig(count=trials, rng_seed=seed)
    ys = sample_feasible(pair, sc)
    resid = float(np.linalg.norm(pair.A @ ys - pair.B, axis=(1, 2)).max()) if pair.p else 0.0
    checks.append(
        {
            "name": "feasible-sample-residual",
            "passed": resid <= tol.feas_tol * max(1.0, float(np.linalg.norm(pair.B))),
            "max_residual": resid,
        }
    )

    def hull_sampler(gen):
        y = pair.min_norm_solution
        k = pair.kernel.dim
        if k:
            y = y + pair.kernel.basis @ gen.standard_normal((k, pair.m))
        t = sample_polar(pair.kernel, 2, gen, tol=tol)[0]
        return (y, -0.5 * (y @ y.T) + t)

    fuzz = convexity_fuzz(
        lambda pt: in_hull(PrimalPoint(pt[0], pt[1]), pair),
        hull_sampler,
        SampleConfig(count=trials, rng_seed=seed + 1),
    )
    checks.append(
        {"name": "hull-convexity-fuzz", "passed": fuzz.passed, "failures": fuzz.failures}
    )

    worst_gap = 0.0
    dominance_ok = True
    for i in range(max(1, trials // 10)):
        x = rng.standard_normal((pair.n, pair.m))
        g = rng.standard_normal((pair.n, pair.n))
        v = g @ g.T + 0.5 * np.eye(pair.n)
        dual = DualPoint(x, v)
        res = eval_support(dual, pair)
        if not res.finite:
            dominance_ok = False
            break
        bound = support_lower_bound(
            dual, pair, SampleConfig(count=500, rng_seed=seed + 2 + i), center=res.maximizer
        )
        scale = max(1.0, abs(res.value))
        worst_gap = max(worst_gap, bound - res.value)
        if res.value < bound - 1e-9 * scale:
            dominance_ok = False
            break
    checks.append(
        {"name": "support-dominance", "passed": dominance_ok, "worst_gap": worst_gap}
    )

    recession_ok = True
    for _ in range(20):
        y, w = hull_sampler(rng)
        t_dir = sample_polar(pair.kernel, 2, rng, tol=tol)[0]
        for t in (1.0, 1e3):
            if not in_hull(PrimalPoint(y, w + t * t_dir), pair):
                recession_ok = False
    checks.append({"name": "hull-recession", "passed": recession_ok})

    if pair.homogeneous:
        gauge_ok = True
        worst = 0.0
        k = pair.kernel.dim
        for _ in range(20):
            if k == 0:
                break
            y = pair.kernel.basis @ rng.standard_normal((k, pair.m))
            r = pair.kernel.basis @ rng.standard_normal((k, k))
            w = -(r @ r.T) - 0.2 * (y @ y.T)
            pt = PrimalPoint(y, w)
            res = eval_gauge(pt, pair)
            ref = gauge_bisection(pt, pair, in_scaled_hull)
            if not res.finite or math.isinf(ref):
                gauge_ok = False
                break
            err = abs(res.value - ref) / max(1.0, res.value)
            worst = max(worst, err)
            if err > 1e-6:
                gauge_ok = False
        checks.append(
            {"name": "gauge-bisection-agreement", "passed": gauge_ok, "worst_rel_err": worst}
        )

    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _add_tol_flags(parser):
    d = ToleranceConfig()
    parser.add_argument("--rank-tol", type=float, default=d.rank_tol)
    parser.add_argument("--psd-tol", type=float, default=d.psd_tol)
    parser.add_argument("--range-tol", type=float, default=d.range_tol)
    parser.add_argument("--eq-tol", type=float, default=d.eq_tol)
    parser.add_argument("--feas-tol", type=float, default=d.feas_tol)
    parser.add_argument("--seed", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmfrac",
        description="Matrix-fractional support functions, hull geometry, and gauges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *, pair=True, dual=False, primal=False):
        p = sub.add_parser(name, help=help_)
        _add_tol_flags(p)
        if pair:
            p.add_argument("--A", required=True, help="constraint matrix file (p x n)")
            p.add_argument("--B", required=True, help="right-hand side file (p x m)")
        if dual:
            p.add_argument("--X", required=True, help="dual point X file (n x m)")
            p.add_argument("--V", required=True, help="dual point V file (n x n)")
        if primal:
            p.add_argument("--Y", required=True, help="primal point Y file (n x m)")
            p.add_argument("--W", required=True, help="primal point W file (n x n)")
        return p

    add("support", "evaluate the support function", dual=True)
    add("domain", "test support-function domain membership", dual=True)
    add("omega-member", "test hull membership", primal=True)
    add("omega-rint", "test hull relative-interior membership", primal=True)
    add("omega-aff", "test hull affine-hull membership", primal=True)
    add("omega-polar", "test polar-set membership", dual=True)
    add("horizon", "test horizon-cone membership", primal=True)
    add("horizon-polar", "test polar horizon-cone membership", dual=True)
    add("subgrad", "canonical subgradient at a domain point", dual=True)
    add("subgrad-check", "test subdifferential membership", dual=True, primal=True)
    add("ncone-check", "test normal-cone membership", dual=True, primal=True)
    add("gauge", "closed-form hull gauge (B = 0)", primal=True)
    add("gauge-polar", "polar-set gauge, i.e. the support value (B = 0)", dual=True)
    w = add("witness", "write a convex-combination witness to a file", primal=True)
    w.add_argument("--epsilon", type=float, required=True)
    w.add_argument("--out", required=True, help="output file for the witness blocks")
    v = add("verify", "run the brute-force oracle suite against this pair")
    v.add_argument("--trials", type=int, default=200)
    return parser


_HANDLERS = {
    "support": _cmd_support,
    "domain": _cmd_domain,
    "omega-member": _bool_cmd(in_hull, "primal"),
    "omega-rint": _bool_cmd(in_hull_rint, "primal"),
    "omega-aff": _bool_cmd(in_hull_aff, "primal"),
    "omega-polar": _bool_cmd(in_hull_polar, "dual"),
    "horizon": _bool_cmd(in_hull_horizon, "primal"),
    "horizon-polar": _bool_cmd(in_hull_polar_horizon, "dual"),
    "subgrad": _cmd_subgrad,
    "subgrad-check": _cmd_subgrad_check,
    "ncone-check": _cmd_ncone_check,
    "gauge": _cmd_gauge,
    "gauge-polar": _cmd_gauge_polar,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the diagnostic; normalize to exit 2
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    inputs = {}
    try:
        outputs = _HANDLERS[args.command](args, tol, inputs)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InfeasiblePairError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = {
        "command": [args.command] + [a for a in argv if a != args.command],
        "inputs": inputs,
        "tolerances": asdict(tol),
        "seed": args.seed,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(report)
    if args.command == "verify" and not outputs["all_passed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
