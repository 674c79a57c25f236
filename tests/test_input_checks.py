"""Malformed inputs are refused with their message: exit 2 from the CLI, ValueError from the library."""

import numpy as np
import pytest

from gmfrac import ConstraintPair, DualPoint, PrimalPoint, kernel_basis
from gmfrac.cli import main

HEADER_CASES = [
    ("1 1\n1.0\n1 1\n2.0\n", "expected exactly one matrix, found 2"),
    ("# nothing but a comment\n", "expected exactly one matrix, found 0"),
    ("2\n", "missing 'rows cols' header"),
    ("2 x\n1.0 2.0\n", "header must be two integers"),
    ("1.5 2\n1.0 2.0\n", "header must be two integers"),
    ("-1 2\n", "need rows >= 0 and cols >= 1, got -1 2"),
    ("1 0\n", "need rows >= 0 and cols >= 1, got 1 0"),
]


def support_files(tmp_path, a_text):
    files = {
        "A": a_text,
        "B": "1 1\n0.0\n",
        "X": "2 1\n0.0\n1.0\n",
        "V": "2 2\n1.0 0.0\n0.0 1.0\n",
    }
    argv = ["support"]
    for name, text in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    return argv


def refused(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("text, message", HEADER_CASES)
def test_cli_refuses_a_malformed_matrix_file(capsys, tmp_path, text, message):
    refused(capsys, support_files(tmp_path, text), message)


def test_cli_refuses_an_unreadable_file(capsys, tmp_path):
    argv = support_files(tmp_path, "1 2\n1.0 0.0\n")
    missing = str(tmp_path / "absent" / "A.txt")
    argv[argv.index("--A") + 1] = missing
    refused(capsys, argv, f"cannot read {missing}")


def test_cli_refuses_an_unwritable_witness_file(capsys, tmp_path):
    argv = ["witness"]
    for name, text in [
        ("A", "1 2\n1.0 0.0\n"),
        ("B", "1 1\n0.0\n"),
        ("Y", "2 1\n0.0\n1.0\n"),
        ("W", "2 2\n0.0 0.0\n0.0 -1.0\n"),
    ]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        argv += [f"--{name}", str(path)]
    out = str(tmp_path / "absent" / "witness.txt")
    refused(capsys, argv + ["--epsilon", "1e-3", "--out", out], f"cannot write {out}")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConstraintPair(np.ones(3), np.ones((1, 1))), "A and B must be 2-D arrays"),
        (lambda: ConstraintPair(np.ones((1, 3)), np.ones(1)), "A and B must be 2-D arrays"),
        (lambda: ConstraintPair(np.ones((1, 1, 3)), np.ones((1, 1))), "A and B must be 2-D arrays"),
        (lambda: ConstraintPair([[1.0, 0.0]], [[np.nan]]), "B must have finite entries"),
        (lambda: ConstraintPair([[1.0, 0.0]], [[np.inf]]), "B must have finite entries"),
        (lambda: kernel_basis(np.ones(3)), "expected a 2-D constraint matrix, got shape (3,)"),
        (lambda: kernel_basis(np.ones((1, 1, 3))), "expected a 2-D constraint matrix"),
    ],
    ids=["1-D A", "1-D B", "3-D A", "NaN B", "inf B", "1-D kernel A", "3-D kernel A"],
)
def test_library_refuses_a_malformed_constraint(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert message in str(info.value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DualPoint(1.0, [[1.0]]), "X must be a 1-D or 2-D array, got shape ()"),
        (lambda: PrimalPoint(2.0, [[-1.0]]), "Y must be a 1-D or 2-D array, got shape ()"),
        (lambda: DualPoint(np.ones((2, 1, 1)), np.eye(2)), "X must be a 1-D or 2-D array"),
        (lambda: PrimalPoint(np.ones((2, 1, 1)), -np.eye(2)), "Y must be a 1-D or 2-D array"),
    ],
    ids=["0-D X", "0-D Y", "3-D X", "3-D Y"],
)
def test_library_refuses_a_malformed_point(build, message):
    # the first field is a matrix or one column, refused when the point is
    # built rather than by a later check against a pair
    with pytest.raises(ValueError) as info:
        build()
    assert message in str(info.value)
