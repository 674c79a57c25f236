import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import gmfrac.cli
import gmfrac.verify
from gmfrac import (
    ConvexWitness,
    DualPoint,
    PreconditionError,
    PrimalPoint,
    canonical_subgradient,
    caratheodory_witness,
    eval_gauge,
    eval_polar_gauge,
    eval_support,
    in_domain,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
    in_normal_cone,
    in_subdifferential,
)
from gmfrac.cli import (
    CliInputError,
    _jsonable,
    build_parser,
    main,
    read_matrix,
    read_matrix_blocks,
    write_matrix,
)
from helpers import hull_member, interior_dual, rand_pair, rint_member


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def mat_file(tmp_path, name, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join(repr(float(v)) for v in row))
    return write(tmp_path, name, "\n".join(lines) + "\n")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def f1_files(tmp_path):
    return {
        "A": mat_file(tmp_path, "A.txt", [[1.0, 0.0]]),
        "B": mat_file(tmp_path, "B.txt", [[0.0]]),
    }


def test_read_matrix_comments_and_blanks(tmp_path):
    path = write(
        tmp_path,
        "m.txt",
        "# a comment\n\n2 2\n1.0 2.0  # trailing comment\n\n3.0 4.0\n",
    )
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_zero_rows(tmp_path):
    path = write(tmp_path, "empty.txt", "0 3\n")
    assert read_matrix(path).shape == (0, 3)


def test_read_matrix_malformed(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "2 2\n1 2 3\n")
    good = write(tmp_path, "good.txt", "1 1\n1.0\n")
    code, _ = run(capsys, ["support", "--A", bad, "--B", good, "--X", good, "--V", good])
    assert code == 2


def test_support_f1(capsys, tmp_path, f1_files):
    x = mat_file(tmp_path, "X.txt", [[0.0], [1.0]])
    v = mat_file(tmp_path, "V.txt", np.eye(2))
    code, rep = run(
        capsys,
        ["support", "--A", f1_files["A"], "--B", f1_files["B"], "--X", x, "--V", v],
    )
    assert code == 0
    assert rep["outputs"]["finite"] is True
    assert rep["outputs"]["value"] == pytest.approx(0.5)
    assert rep["outputs"]["maximizer"] == [[0.0], [1.0]]
    assert set(rep["inputs"]) == {"A", "B", "X", "V"}
    # no tolerance is echoed, as none can be set, and no seed
    assert set(rep) == {"command", "inputs", "outputs", "wall_time_s"}


def test_support_infinite_serializes_inf(capsys, tmp_path):
    zero = mat_file(tmp_path, "z.txt", [[0.0]])
    one = mat_file(tmp_path, "o.txt", [[1.0]])
    code, rep = run(capsys, ["support", "--A", zero, "--B", zero, "--X", one, "--V", zero])
    assert code == 0
    assert rep["outputs"] == {"finite": False, "value": "inf"}


def test_domain_nonclosedness_example(capsys, tmp_path):
    zero = mat_file(tmp_path, "z.txt", [[0.0]])
    one = mat_file(tmp_path, "o.txt", [[1.0]])
    code, rep = run(capsys, ["domain", "--A", zero, "--B", zero, "--X", one, "--V", zero])
    assert code == 0
    assert rep["outputs"]["member"] is False
    tiny = mat_file(tmp_path, "t.txt", [[1e-6]])
    code, rep = run(capsys, ["domain", "--A", zero, "--B", zero, "--X", one, "--V", tiny])
    assert code == 0
    assert rep["outputs"]["member"] is True


def test_omega_member_and_variants(capsys, tmp_path, f1_files):
    y = mat_file(tmp_path, "Y.txt", [[0.0], [1.0]])
    w_in = mat_file(tmp_path, "Win.txt", [[0.0, 0.0], [0.0, -1.0]])
    w_out = mat_file(tmp_path, "Wout.txt", [[0.0, 0.0], [0.0, 7.0]])
    base = ["--A", f1_files["A"], "--B", f1_files["B"], "--Y", y]
    for cmd, w, expect in [
        ("omega-member", w_in, True),
        ("omega-member", w_out, False),
        ("omega-rint", w_in, True),
        ("omega-aff", w_out, True),
    ]:
        code, rep = run(capsys, [cmd] + base + ["--W", w])
        assert code == 0
        assert rep["outputs"]["member"] is expect


def test_gauge_scalar(capsys, tmp_path):
    a = mat_file(tmp_path, "A.txt", np.zeros((0, 1)))
    b = mat_file(tmp_path, "B.txt", np.zeros((0, 1)))
    y = mat_file(tmp_path, "Y.txt", [[1.0]])
    w = mat_file(tmp_path, "W.txt", [[-1.0]])
    code, rep = run(capsys, ["gauge", "--A", a, "--B", b, "--Y", y, "--W", w])
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(0.5)


def test_gauge_rejects_inhomogeneous(capsys, tmp_path):
    a = mat_file(tmp_path, "A.txt", [[1.0, 0.0]])
    b = mat_file(tmp_path, "B.txt", [[1.0]])
    y = mat_file(tmp_path, "Y.txt", [[1.0], [0.0]])
    w = mat_file(tmp_path, "W.txt", -np.eye(2))
    code, _ = run(capsys, ["gauge", "--A", a, "--B", b, "--Y", y, "--W", w])
    assert code == 3


def test_infeasible_pair_exit(capsys, tmp_path):
    a = mat_file(tmp_path, "A.txt", [[0.0]])
    b = mat_file(tmp_path, "B.txt", [[1.0]])
    x = mat_file(tmp_path, "X.txt", [[1.0]])
    code, _ = run(capsys, ["support", "--A", a, "--B", b, "--X", x, "--V", x])
    assert code == 3


def test_dimension_mismatch_exit(capsys, tmp_path, f1_files):
    x = mat_file(tmp_path, "X.txt", [[1.0]])  # wrong shape for n = 2
    v = mat_file(tmp_path, "V.txt", np.eye(2))
    code, _ = run(
        capsys,
        ["support", "--A", f1_files["A"], "--B", f1_files["B"], "--X", x, "--V", v],
    )
    assert code == 2


def test_unknown_command_exit(capsys):
    assert main(["no-such-command"]) == 2


def test_subgrad_and_checks(capsys, tmp_path, f1_files):
    x = mat_file(tmp_path, "X.txt", [[1.0], [2.0]])
    v = mat_file(tmp_path, "V.txt", np.eye(2))
    code, rep = run(
        capsys, ["subgrad", "--A", f1_files["A"], "--B", f1_files["B"], "--X", x, "--V", v]
    )
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(2.0)
    assert np.allclose(rep["outputs"]["Y"], [[0.0], [2.0]], atol=1e-12)
    y = mat_file(tmp_path, "Y.txt", rep["outputs"]["Y"])
    w = mat_file(tmp_path, "W.txt", rep["outputs"]["W"])
    code, rep = run(
        capsys,
        ["subgrad-check", "--A", f1_files["A"], "--B", f1_files["B"],
         "--X", x, "--V", v, "--Y", y, "--W", w],
    )
    assert code == 0 and rep["outputs"]["member"] is True
    code, rep = run(
        capsys,
        ["ncone-check", "--A", f1_files["A"], "--B", f1_files["B"],
         "--X", x, "--V", v, "--Y", y, "--W", w],
    )
    assert code == 0 and rep["outputs"]["member"] is True


def test_subgrad_precondition_exit(capsys, tmp_path, f1_files):
    x = mat_file(tmp_path, "X.txt", [[0.0], [1.0]])
    v = mat_file(tmp_path, "V.txt", np.zeros((2, 2)))
    code, _ = run(
        capsys, ["subgrad", "--A", f1_files["A"], "--B", f1_files["B"], "--X", x, "--V", v]
    )
    assert code == 3


def test_witness_roundtrip(capsys, tmp_path, f1_files):
    y = mat_file(tmp_path, "Y.txt", [[0.0], [1.0]])
    w = mat_file(tmp_path, "W.txt", [[0.0, 0.0], [0.0, -1.0]])
    out = str(tmp_path / "witness.txt")
    code, rep = run(
        capsys,
        ["witness", "--A", f1_files["A"], "--B", f1_files["B"],
         "--Y", y, "--W", w, "--epsilon", "1e-4", "--out", out],
    )
    assert code == 0
    assert rep["outputs"]["distance"] <= 1e-1
    blocks = read_matrix_blocks(out)
    eps = blocks[0][0, 0]
    weights = blocks[1].ravel()
    comps = np.stack(blocks[2:])
    assert eps == pytest.approx(1e-4)
    assert weights.sum() == pytest.approx(1.0)
    assert comps.shape[0] == weights.size
    # rebuild the induced point and reproduce the documented distance bound
    y_bar = np.einsum("k,kij->ij", weights, comps)
    w_bar = -0.5 * np.einsum("k,kij,klj->il", weights, comps, comps)
    point = np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [0.0, -1.0]])
    dist = np.sqrt(
        np.linalg.norm(y_bar - point[0]) ** 2 + np.linalg.norm(w_bar - point[1]) ** 2
    )
    assert dist == pytest.approx(rep["outputs"]["distance"], rel=1e-9)
    assert dist <= 1e-1
    code, rep = run(
        capsys,
        ["omega-member", "--A", f1_files["A"], "--B", f1_files["B"],
         "--Y", mat_file(tmp_path, "Yb.txt", y_bar),
         "--W", mat_file(tmp_path, "Wb.txt", w_bar)],
    )
    assert code == 0 and rep["outputs"]["member"] is True


def test_witness_bad_epsilon(capsys, tmp_path, f1_files):
    y = mat_file(tmp_path, "Y.txt", [[0.0], [1.0]])
    w = mat_file(tmp_path, "W.txt", [[0.0, 0.0], [0.0, -1.0]])
    code, _ = run(
        capsys,
        ["witness", "--A", f1_files["A"], "--B", f1_files["B"],
         "--Y", y, "--W", w, "--epsilon", "2.0", "--out", str(tmp_path / "w.txt")],
    )
    assert code == 2


def test_reports_deterministic_modulo_walltime(capsys, tmp_path, f1_files):
    x = mat_file(tmp_path, "X.txt", [[0.3], [0.7]])
    v = mat_file(tmp_path, "V.txt", [[2.0, 0.1], [0.1, 1.0]])
    argv = ["support", "--A", f1_files["A"], "--B", f1_files["B"],
            "--X", x, "--V", v]
    _, rep1 = run(capsys, argv)
    _, rep2 = run(capsys, argv)
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_verify_passes(capsys, tmp_path, f1_files):
    code, rep = run(
        capsys,
        ["verify", "--A", f1_files["A"], "--B", f1_files["B"],
         "--trials", "100", "--seed", "0"],
    )
    assert code == 0
    assert rep["outputs"]["all_passed"] is True
    names = {c["name"] for c in rep["outputs"]["checks"]}
    assert "support-dominance" in names
    assert "gauge-bisection-agreement" in names  # B = 0 here


def _support_lowered_by_one(point, pair):
    res = eval_support(point, pair)
    return replace(res, value=res.value - 1.0)


def _hull_rejecting_every_other_call():
    calls = itertools.count()
    return lambda point, pair: next(calls) % 2 == 0 and in_hull(point, pair)


@pytest.mark.parametrize(
    "name, wrong, failing",
    [
        ("eval_support", lambda: _support_lowered_by_one, "support-dominance"),
        ("in_hull", _hull_rejecting_every_other_call, "hull-convexity-fuzz"),
    ],
    ids=["eval_support", "in_hull"],
)
def test_verify_fails_on_a_wrong_closed_form(capsys, f1_files, monkeypatch, name, wrong, failing):
    argv = ["verify", "--A", f1_files["A"], "--B", f1_files["B"], "--trials", "20", "--seed", "0"]
    code, rep = run(capsys, argv)
    assert code == gmfrac.cli.EXIT_OK
    assert all(c["passed"] for c in rep["outputs"]["checks"])
    monkeypatch.setattr(gmfrac.verify, name, wrong())
    code, rep = run(capsys, argv)
    assert code == gmfrac.cli.EXIT_CHECK_FAILED
    assert rep["outputs"]["all_passed"] is False
    checks = {c["name"]: c["passed"] for c in rep["outputs"]["checks"]}
    assert checks[failing] is False


@pytest.mark.parametrize("entry", ["abc", "nan", "inf"])
def test_read_matrix_blocks_rejects_bad_entries(tmp_path, entry):
    path = write(tmp_path, "blocks.txt", f"1 1\n2.0\n1 2\n1.0 {entry}\n")
    with pytest.raises(CliInputError):
        read_matrix_blocks(path)


@pytest.mark.parametrize(
    "M",
    [
        [[-0.0, 5e-324, 1e-300, 1e300], [3.0, -7.0, 2.0**53, 0.1]],
        [[-2.5]],
        np.zeros((0, 3)),
        np.random.default_rng(11).standard_normal((4, 3)),
    ],
)
def test_write_matrix_text_is_repr_of_each_entry(M):
    M = np.asarray(M, dtype=float)
    fh = io.StringIO()
    write_matrix(fh, M, name="block")
    expected = f"# block\n{M.shape[0]} {M.shape[1]}\n" + "".join(
        " ".join(repr(float(v)) for v in row) + "\n" for row in M
    )
    assert fh.getvalue() == expected


def test_witness_file_round_trips_exactly(capsys, tmp_path):
    rng = np.random.default_rng(12)
    pair = rand_pair(rng, 6, 2, 2)
    point = hull_member(rng, pair)
    files = {name: mat_file(tmp_path, f"{name}.txt", M)
             for name, M in (("A", pair.A), ("B", pair.B), ("Y", point.Y), ("W", point.W))}
    out = str(tmp_path / "witness.txt")
    code, rep = run(
        capsys,
        ["witness", "--A", files["A"], "--B", files["B"], "--Y", files["Y"],
         "--W", files["W"], "--epsilon", "1e-3", "--out", out],
    )
    assert code == 0
    # the input files hold repr text, so the CLI reads back exactly these arrays
    wit = caratheodory_witness(point, pair, 1e-3)
    blocks = read_matrix_blocks(out)
    assert len(blocks) == 2 + wit.components.shape[0] == 2 + rep["outputs"]["components"]
    np.testing.assert_array_equal(blocks[0], [[wit.epsilon]])
    np.testing.assert_array_equal(blocks[1], wit.weights.reshape(1, -1))
    np.testing.assert_array_equal(np.stack(blocks[2:]), wit.components)


def test_verify_at_benchmark_size_passes_and_repeats(capsys, tmp_path):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((10, 30))
    b = a @ rng.standard_normal((30, 3))
    argv = ["verify", "--A", mat_file(tmp_path, "A.txt", a),
            "--B", mat_file(tmp_path, "B.txt", b), "--seed", "301"]
    code, rep1 = run(capsys, argv)
    assert code == 0
    assert rep1["outputs"]["all_passed"] is True
    assert len(rep1["outputs"]["checks"]) == 4
    _, rep2 = run(capsys, argv)
    assert rep2["outputs"] == rep1["outputs"]


def test_witness_writer_formats_runs_of_equal_components_by_bytes(
    capsys, tmp_path, f1_files, monkeypatch
):
    # -0.0 == 0.0, but the two print differently, so a block holding -0.0
    # next to an otherwise equal block holding 0.0 is written out anew
    zero = np.array([[0.0], [1.5]])
    negative = np.array([[-0.0], [1.5]])
    other = np.array([[2.0], [1e-300]])
    components = np.stack([zero, zero, negative, negative, zero, other, other])
    weights = np.full(len(components), 1.0 / len(components))
    wit = ConvexWitness(weights=weights, components=components, epsilon=1e-3)
    monkeypatch.setattr(gmfrac.cli, "caratheodory_witness", lambda *args: wit)
    y = mat_file(tmp_path, "Y.txt", [[0.0], [1.0]])
    w = mat_file(tmp_path, "W.txt", -np.eye(2))
    out = tmp_path / "witness.txt"
    code, _ = run(
        capsys,
        ["witness", "--A", f1_files["A"], "--B", f1_files["B"], "--Y", y, "--W", w,
         "--epsilon", "1e-3", "--out", str(out)],
    )
    assert code == 0
    expected = io.StringIO()
    expected.write("# caratheodory witness: epsilon, weights, then components\n")
    write_matrix(expected, [[1e-3]], name="epsilon")
    write_matrix(expected, weights.reshape(1, -1), name="weights")
    for i, comp in enumerate(components):
        write_matrix(expected, comp, name=f"component {i}")
    assert out.read_text() == expected.getvalue()
    assert "-0.0" in expected.getvalue()


def test_report_command_is_argv_unchanged(capsys, tmp_path, f1_files, monkeypatch):
    # an argument equal to the command's name stays in the echoed command
    monkeypatch.chdir(tmp_path)
    y = mat_file(tmp_path, "Y.txt", [[0.0], [1.0]])
    w = mat_file(tmp_path, "W.txt", [[0.0, 0.0], [0.0, -1.0]])
    argv = ["witness", "--A", f1_files["A"], "--B", f1_files["B"], "--Y", y, "--W", w,
            "--epsilon", "1e-3", "--out", "witness"]
    code, rep = run(capsys, argv)
    assert code == 0
    assert rep["command"] == argv
    assert (tmp_path / "witness").is_file()


def _support_report(res):
    if not res.finite:
        return {"finite": False, "value": "inf"}
    return {"finite": True, "value": res.value, "maximizer": res.maximizer,
            "multiplier": res.multiplier}


def _gauge_report(res):
    if not res.finite:
        return {"finite": False, "value": "inf"}
    out = {"finite": True, "value": res.value,
           "sigma_min": "inf" if res.sigma_min is None else res.sigma_min}
    if res.critical_matrix is not None:
        out["critical_matrix"] = res.critical_matrix
    return out


def _polar_gauge_report(value):
    if math.isinf(value):
        return {"finite": False, "value": "inf"}
    return {"finite": True, "value": value}


def _subgrad_report(res):
    return {"value": res.value, "Y": res.point.Y, "W": res.point.W,
            "multiplier": res.multiplier}


# Each plain subcommand: the file flags it reads and the report it stands
# for, written out from the library call on the dual point d, the primal
# point y and the pair.
LIBRARY_CALLS = {
    "support": ("XV", lambda d, y, pair: _support_report(eval_support(d, pair))),
    "domain": ("XV", lambda d, y, pair: {"member": in_domain(d, pair)}),
    "omega-member": ("YW", lambda d, y, pair: {"member": in_hull(y, pair)}),
    "omega-rint": ("YW", lambda d, y, pair: {"member": in_hull_rint(y, pair)}),
    "omega-aff": ("YW", lambda d, y, pair: {"member": in_hull_aff(y, pair)}),
    "omega-polar": ("XV", lambda d, y, pair: {"member": in_hull_polar(d, pair)}),
    "horizon": ("YW", lambda d, y, pair: {"member": in_hull_horizon(y, pair)}),
    "horizon-polar": ("XV", lambda d, y, pair: {"member": in_hull_polar_horizon(d, pair)}),
    "subgrad": ("XV", lambda d, y, pair: _subgrad_report(canonical_subgradient(d, pair))),
    "subgrad-check": ("XVYW", lambda d, y, pair: {"member": in_subdifferential(y, d, pair)}),
    "ncone-check": ("XVYW", lambda d, y, pair: {"member": in_normal_cone(d, y, pair)}),
    "gauge": ("YW", lambda d, y, pair: _gauge_report(eval_gauge(y, pair))),
    "gauge-polar": ("XV", lambda d, y, pair: _polar_gauge_report(eval_polar_gauge(d, pair))),
}


def test_library_calls_cover_the_plain_subcommands():
    assert set(LIBRARY_CALLS) == set(gmfrac.cli._COMMANDS)


def _points(rng, pair, inside):
    if inside:
        dual = interior_dual(rng, pair)
        # the canonical subgradient lies in the subdifferential and in the
        # normal cone at the dual point
        primal = canonical_subgradient(dual, pair).point
        return dual, primal, rint_member(rng, pair)
    dual = DualPoint(rng.standard_normal((pair.n, pair.m)), -np.eye(pair.n))
    primal = PrimalPoint(rng.standard_normal((pair.n, pair.m)), np.eye(pair.n))
    return dual, primal, primal


@pytest.mark.parametrize("inside", [True, False], ids=["in", "out"])
@pytest.mark.parametrize("p", [2, 0], ids=["general", "p0"])
@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_plain_subcommand_is_its_library_call(capsys, tmp_path, command, p, inside):
    rng = np.random.default_rng([14, p, inside])
    pair = rand_pair(rng, 5, 2, p)
    dual, candidate, member = _points(rng, pair, inside)
    flags, call = LIBRARY_CALLS[command]
    primal = candidate if "X" in flags else member
    matrices = {"A": pair.A, "B": pair.B, "X": dual.X, "V": dual.V,
                "Y": primal.Y, "W": primal.W}
    argv = [command]
    for name in "AB" + flags:
        argv += [f"--{name}", mat_file(tmp_path, f"{name}.txt", matrices[name])]
    code, rep = run(capsys, argv)
    try:
        expected = call(dual, primal, pair)
    except PreconditionError:
        assert code == 3 and rep is None
        return
    assert code == 0
    assert rep["outputs"] == json.loads(json.dumps(_jsonable(expected)))


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_plain_subcommand_takes_exactly_the_files_its_call_reads(capsys, tmp_path, command):
    flags = "AB" + LIBRARY_CALLS[command][0]
    path = mat_file(tmp_path, "M.txt", [[1.0]])
    full = [command] + [t for name in flags for t in (f"--{name}", path)]
    # parsed and run on 1x1 matrices; some calls reject them (B != 0 for
    # the gauges) with a precondition error
    assert main(full) in (0, 3)
    assert "usage:" not in capsys.readouterr().err
    for i in range(1, len(full), 2):
        assert main(full[:i] + full[i + 2:]) == 2
        assert "required" in capsys.readouterr().err
    # nor a seed, which only verify takes, nor a removed tolerance flag:
    # every threshold is fixed
    extras = [f"--{name}" for name in sorted(set("XVYW") - set(flags))]
    removed = ["--eq-tol", "--feas-tol", "--rank-tol", "--psd-tol", "--range-tol"]
    for flag in extras + ["--seed"] + removed:
        assert main(full + [flag, path]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_only_verify_takes_and_echoes_a_seed(capsys, f1_files):
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    takers = {name for name, sub in subparsers.choices.items()
              for a in sub._actions if "--seed" in a.option_strings}
    assert takers == {"verify"}
    plain = [opt for a in subparsers.choices["support"]._actions
             for opt in a.option_strings if opt not in ("-h", "--help", "--A", "--B", "--X", "--V")]
    assert plain == []
    argv = ["verify", "--A", f1_files["A"], "--B", f1_files["B"], "--trials", "5"]
    _, rep = run(capsys, argv + ["--seed", "7"])
    assert rep["seed"] == 7
    _, rep = run(capsys, argv)
    assert rep["seed"] == 0
