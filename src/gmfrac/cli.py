"""Command-line front end.

Reads matrices from self-describing text files (first non-comment line
``rows cols``, then ``rows*cols`` whitespace-separated floats in row-major
order; blank lines ignored; ``#`` starts a comment), dispatches to the
library, and prints exactly one JSON report on stdout.  Diagnostics go to
stderr.  Exit codes: 0 success, 1 failed verification, 2 bad input, 3
precondition violated (e.g. an infeasible pair).

Thirteen subcommands are one library call each; the ``_COMMANDS`` table
gives each its help text, the points it reads, the call and the shape of
its report, and both the parser and the dispatch read that table.
``witness`` and ``verify`` take flags of their own; ``witness`` has its own
body, and ``verify`` is one call of :func:`gmfrac.verify.verify_pair`, the
library's oracle suite, and the one subcommand that takes ``--seed``.  The
point flags are read from the fields of :class:`DualPoint` and
:class:`PrimalPoint`.  The thresholds of every decision are fixed in
:mod:`gmfrac.linalg`, and no flag sets them.
"""

import argparse
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

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
    _runs,
    caratheodory_witness,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
)
from .subgrad import canonical_subgradient, in_normal_cone, in_subdifferential
from .gauges import GaugeResult, eval_gauge, eval_polar_gauge
from .verify import verify_pair

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
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report):
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def _read(args, name, inputs):
    M = read_matrix(getattr(args, name))
    inputs[name] = {"rows": M.shape[0], "cols": M.shape[1], "sha256": _digest(M)}
    return M


def _load_pair(args, inputs):
    return ConstraintPair(_read(args, "A", inputs), _read(args, "B", inputs))


# The points a subcommand can read; each field of the class is one file flag.
_POINTS = {"dual": DualPoint, "primal": PrimalPoint}


def _load_point(args, kind, inputs):
    cls = _POINTS[kind]
    return cls(*(_read(args, f.name, inputs) for f in fields(cls)))


def _member(result):
    return {"member": result}


def _finite(result):
    """The report of a value that may be ``+inf``.

    ``finite`` and ``value``, then, when finite, every certificate the
    result carries.  ``eval_polar_gauge`` returns a bare float, ``+inf``
    outside the domain.  A gauge's ``sigma_min`` is ``None`` when no
    singular value is nonzero, that is ``+inf``.
    """
    if isinstance(result, float):
        return {"finite": not math.isinf(result), "value": result}
    if not result.finite:
        return {"finite": False, "value": "inf"}
    out = {k: v for k, v in vars(result).items() if v is not None}
    if isinstance(result, GaugeResult):
        out.setdefault("sigma_min", "inf")
    return out


def _subgrad(result):
    return {
        "value": result.value,
        "Y": result.point.Y,
        "W": result.point.W,
        "multiplier": result.multiplier,
    }


# Each plain subcommand: its help text, the points it reads in reading
# order, the library call on those points and the pair, and its report
# shape.  The calls are lambdas, so each looks the library function up in
# this module when it runs and a tracer that patches it here sees the call.
_COMMANDS = {
    "support": ("evaluate the support function", ("dual",),
                lambda d, pair: eval_support(d, pair), _finite),
    "domain": ("test support-function domain membership", ("dual",),
               lambda d, pair: in_domain(d, pair), _member),
    "omega-member": ("test hull membership", ("primal",),
                     lambda y, pair: in_hull(y, pair), _member),
    "omega-rint": ("test hull relative-interior membership", ("primal",),
                   lambda y, pair: in_hull_rint(y, pair), _member),
    "omega-aff": ("test hull affine-hull membership", ("primal",),
                  lambda y, pair: in_hull_aff(y, pair), _member),
    "omega-polar": ("test polar-set membership", ("dual",),
                    lambda d, pair: in_hull_polar(d, pair), _member),
    "horizon": ("test horizon-cone membership", ("primal",),
                lambda y, pair: in_hull_horizon(y, pair), _member),
    "horizon-polar": ("test polar horizon-cone membership", ("dual",),
                      lambda d, pair: in_hull_polar_horizon(d, pair), _member),
    "subgrad": ("canonical subgradient at a domain point", ("dual",),
                lambda d, pair: canonical_subgradient(d, pair), _subgrad),
    "subgrad-check": ("test subdifferential membership", ("dual", "primal"),
                      lambda d, y, pair: in_subdifferential(y, d, pair), _member),
    "ncone-check": ("test normal-cone membership", ("dual", "primal"),
                    lambda d, y, pair: in_normal_cone(d, y, pair), _member),
    "gauge": ("closed-form hull gauge (B = 0)", ("primal",),
              lambda y, pair: eval_gauge(y, pair), _finite),
    "gauge-polar": ("polar-set gauge, i.e. the support value (B = 0)", ("dual",),
                    lambda d, pair: eval_polar_gauge(d, pair), _finite),
}


def _cmd_plain(args, pair, inputs):
    _, points, call, shape = _COMMANDS[args.command]
    return shape(call(*(_load_point(args, kind, inputs) for kind in points), pair))


def _cmd_witness(args, pair, inputs):
    point = _load_point(args, "primal", inputs)
    wit = caratheodory_witness(point, pair, args.epsilon)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("# caratheodory witness: epsilon, weights, then components\n")
            write_matrix(fh, np.array([[wit.epsilon]]), name="epsilon")
            write_matrix(fh, wit.weights.reshape(1, -1), name="weights")
            # all but at most k + 1 components are copies of Z0: format each
            # run of equal ones once (equal bitwise, since -0.0 == 0.0 but
            # the two print differently)
            starts = _runs(wit.components).tolist()
            for start, end in zip(starts, starts[1:] + [len(wit.components)]):
                buf = io.StringIO()
                write_matrix(buf, wit.components[start])
                text = buf.getvalue()
                for i in range(start, end):
                    fh.write(f"# component {i}\n{text}")
    except OSError as exc:
        raise CliInputError(f"cannot write {args.out}: {exc}") from exc
    return {
        "file": args.out,
        "epsilon": wit.epsilon,
        "components": int(wit.components.shape[0]),
        "distance": wit.distance_to(point),
    }


def _cmd_verify(args, pair, inputs):
    return verify_pair(pair, args.trials, args.seed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmfrac",
        description="Matrix-fractional support functions, hull geometry, and gauges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, points, run):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--A", required=True, help="constraint matrix file (p x n)")
        p.add_argument("--B", required=True, help="right-hand side file (p x m)")
        for kind in points:
            for f, shape in zip(fields(_POINTS[kind]), ("n x m", "n x n")):
                p.add_argument(
                    f"--{f.name}", required=True, help=f"{kind} point {f.name} file ({shape})"
                )
        p.set_defaults(run=run)
        return p

    for name, (help_, points, _, _) in _COMMANDS.items():
        add(name, help_, points, _cmd_plain)
    w = add("witness", "write a convex-combination witness to a file", ("primal",),
            _cmd_witness)
    w.add_argument("--epsilon", type=float, required=True)
    w.add_argument("--out", required=True, help="output file for the witness blocks")
    v = add("verify", "run the brute-force oracle suite against this pair", (), _cmd_verify)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    return parser


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
    inputs = {}
    try:
        pair = _load_pair(args, inputs)
        outputs = args.run(args, pair, inputs)
    except (InfeasiblePairError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CliInputError, ValueError) as exc:
        # after the clause above: both precondition errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = {
        "command": list(argv),
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
    }
    if "seed" in args:
        # only verify draws samples; its report echoes the seed
        report["seed"] = args.seed
    _emit(report)
    if args.command == "verify" and not outputs["all_passed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
