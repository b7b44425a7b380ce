"""Typed refusals: every input error raises its own error type with a message
that names the fault, and finite input at the float limit gives the right
matrix or a ``RangeError``, never a numpy warning or a matrix of inf."""

import json

import numpy as np
import pytest

from mscatter import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidRegimeError,
    MatrixDistribution,
    NotPositiveDefiniteError,
    RangeError,
    SolverConfig,
    SpdMatrix,
    SymMatrix,
    WishartGroup,
    check_existence,
    directional_scan,
    fixed_point_solve,
    from_observations,
    from_wishart_groups,
    influence_k1,
    influence_kge2,
    spherical_constants,
    transform,
    tyler,
)
from mscatter import cli
from mscatter.cli import InputError, read_csv, read_groups
from mscatter.symmat import PsdAtom, spectral, sym_log

X2 = np.random.default_rng(0).standard_normal((10, 2))
X3 = np.random.default_rng(1).standard_normal((10, 3))


def write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return str(path)


def write_bytes(tmp, name, data):
    path = tmp / name
    path.write_bytes(data)
    return str(path)


def command(argv):
    """The subcommand of ``argv`` run as ``cli.run`` runs it, its errors raised."""
    args = cli.build_parser().parse_args(argv)
    return args.cmd(args)


# (id, call of a scratch directory, error type, message fragment)
REFUSALS = [
    # MatrixDistribution
    ("list-of-arrays-non-finite", lambda tmp: MatrixDistribution([np.eye(2), np.full((2, 2), np.nan)]),
     InvalidInputError, "atoms contain non-finite entries"),
    ("list-of-atoms-weights-shape", lambda tmp: MatrixDistribution([PsdAtom(np.eye(2))] * 2, [1.0]),
     InvalidInputError, "weights must have shape (2,), got (1,)"),
    ("empty-list", lambda tmp: MatrixDistribution([]),
     InvalidInputError, "needs at least one atom"),
    ("empty-stack", lambda tmp: MatrixDistribution(np.zeros((0, 2, 2))),
     InvalidInputError, "needs at least one atom"),
    ("not-a-square-stack", lambda tmp: MatrixDistribution(np.ones((2, 2, 3))),
     InvalidInputError, "atoms must be an (m, q, q) stack, got (2, 2, 3)"),
    ("non-finite-stack", lambda tmp: MatrixDistribution(np.full((1, 2, 2), np.inf)),
     InvalidInputError, "atoms contain non-finite entries"),
    ("weights-shape", lambda tmp: MatrixDistribution(np.eye(2)[None], np.ones(2)),
     InvalidInputError, "weights must have shape (1,), got (2,)"),
    # constructors and transforms
    ("center-shape", lambda tmp: from_observations(X3, center=np.zeros(2)),
     DimensionMismatchError, "center has shape (2,), expected (3,)"),
    ("wishart-non-group", lambda tmp: from_wishart_groups([np.eye(2)]),
     InvalidInputError, "groups must be WishartGroup instances"),
    ("wishart-group-of-an-array", lambda tmp: WishartGroup(-np.eye(2), 3),
     NotPositiveDefiniteError, "is not positive semidefinite"),
    ("transform-shape", lambda tmp: transform(from_observations(X2), np.eye(3)),
     DimensionMismatchError, "B must be 2x2, got (3, 3)"),
    ("transform-direction", lambda tmp: transform(from_observations(X2), np.eye(2), "sideways"),
     InvalidInputError, "direction must be 'forward' or 'inverse', got 'sideways'"),
    ("loss-dimension", lambda tmp: check_existence(from_observations(X3), tyler(2)),
     DimensionMismatchError, "loss is for dimension 2, distribution has dimension 3"),
    # influence functions
    ("influence-k1-length", lambda tmp: influence_k1(from_observations(X2), tyler(2), np.ones(3)),
     InvalidInputError, "x has dimension 3, expected 2"),
    ("influence-kge2-order", lambda tmp: influence_kge2(X2, tyler(2), 1, X2[0]),
     InvalidInputError, "requires k >= 2"),
    ("influence-kge2-rows", lambda tmp: influence_kge2(X2[:2], tyler(2), 3, X2[0]),
     InvalidInputError, "need at least k=3 observations, have 2"),
    ("spherical-negative-radius", lambda tmp: spherical_constants([1.0, -1.0], 3.0, 2),
     InvalidInputError, "squared radii must be nonnegative and nonempty"),
    ("spherical-no-radius", lambda tmp: spherical_constants([], 3.0, 2),
     InvalidInputError, "squared radii must be nonnegative and nonempty"),
    ("spherical-nu", lambda tmp: spherical_constants([1.0], -1.0, 2),
     InvalidInputError, "nu must be nonnegative"),
    ("spherical-q", lambda tmp: spherical_constants([1.0], 3.0, 0),
     InvalidInputError, "q must be >= 1"),
    ("spherical-weights", lambda tmp: spherical_constants([1.0, 2.0], 3.0, 2, weights=[1.0]),
     InvalidInputError, "weights must be nonnegative and match the radii"),
    ("spherical-kappa", lambda tmp: spherical_constants([0.0], 1.0, 2),
     InvalidRegimeError, "kappa = 3 >= 1"),
    ("spherical-location", lambda tmp: spherical_constants([100.0], 1.0, 1),
     InvalidRegimeError, "location constant c2 is not positive"),
    # solver
    ("start-dimension", lambda tmp: fixed_point_solve(from_observations(X3), tyler(3),
                                                      SolverConfig(start=SpdMatrix(np.eye(2)))),
     DimensionMismatchError, "start matrix has the wrong dimension"),
    ("scan-grid-order", lambda tmp: directional_scan(np.eye(2), np.eye(2), from_observations(X2), tyler(2),
                                                     [0.0, 1.0, 0.5]),
     InvalidInputError, "t_grid must be sorted ascending"),
    # command line
    ("csv-empty", lambda tmp: read_csv(write(tmp, "empty.csv", "\n\n")),
     InputError, "empty.csv is empty"),
    ("csv-header-only", lambda tmp: read_csv(write(tmp, "head.csv", "a,b\n\n")),
     InputError, "head.csv has a header but no data rows"),
    ("groups-unreadable", lambda tmp: read_groups(str(tmp / "missing.json")),
     InputError, "cannot read"),
    ("groups-invalid-json", lambda tmp: read_groups(write(tmp, "g.json", "[{")),
     InputError, "g.json is not valid JSON"),
    ("groups-not-a-list", lambda tmp: read_groups(write(tmp, "g.json", '{"dof": 3}')),
     InputError, "g.json must hold a non-empty JSON array of groups"),
    ("groups-missing-field", lambda tmp: read_groups(write(tmp, "g.json", '[{"dof": 3}]')),
     InputError, "group 0 needs 'dof' and 'scatter' fields"),
    ("groups-not-square", lambda tmp: read_groups(write(tmp, "g.json", '[{"dof": 3, "scatter": [[1, 0]]}]')),
     InputError, "group 0 scatter is not square"),
    ("check-sigma-unreadable", lambda tmp: command(["check", "--input", write(tmp, "x.csv", "1,0\n0,1\n1,1\n"),
                                                    "--sigma", str(tmp / "missing.json")]),
     InputError, "cannot read sigma document"),
    # input that is not UTF-8 text
    ("csv-not-utf8", lambda tmp: read_csv(write_bytes(tmp, "x.csv", b"1,0\n0,\xff\n1,1\n")),
     InputError, "x.csv is not UTF-8 text"),
    ("groups-not-utf8", lambda tmp: read_groups(write_bytes(tmp, "g.json", b'[{"dof": 3, "scatter": [[1\xff]]}]')),
     InputError, "g.json is not UTF-8 text"),
    ("check-sigma-not-utf8", lambda tmp: command(["check", "--input", write(tmp, "x.csv", "1,0\n0,1\n1,1\n"),
                                                  "--sigma", write_bytes(tmp, "s.json", b'{"sigma": \xff}')]),
     InputError, "cannot read sigma document"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, fragment", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_is_typed_and_named(call, error, fragment, tmp_path):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert fragment in str(exc.value)


# -- finite input at the float limit ------------------------------------------------

BIG = np.diag([1e308, 1e308])


@pytest.mark.filterwarnings("error")
def test_symmetric_matrices_at_the_float_limit():
    assert np.array_equal(SymMatrix(np.full((2, 2), 1e308)).mat, np.full((2, 2), 1e308))
    spd = SpdMatrix(BIG)
    assert np.array_equal(spd.mat, BIG) and spd.logdet == 2.0 * np.log(1e308)
    assert np.array_equal(spectral(BIG).eigenvalues, [1e308, 1e308])
    assert np.allclose(sym_log(BIG).mat, np.log(1e308) * np.eye(2), rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: PsdAtom(BIG),
    lambda: PsdAtom(BIG, _trusted=True),
    lambda: MatrixDistribution(BIG[None]),
    lambda: MatrixDistribution(BIG[None], clip=False),
], ids=["atom", "trusted-atom", "clipped", "unclipped"])
def test_an_overflowing_trace_is_a_range_error(call):
    with pytest.raises(RangeError, match="trace"):
        call()


@pytest.mark.filterwarnings("error")
def test_procov_refuses_an_overflowing_trace(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([{"dof": 3, "scatter": BIG.tolist()}]))
    assert cli.run(["procov", "--groups", str(path)]) == cli.EXIT_INPUT
    assert "error: atom trace overflows at this scale" in capsys.readouterr().err


FOUR_ROWS = "1,0\n0,1\n1,1\n2,-1\n"


@pytest.mark.filterwarnings("error")
def test_check_sigma_at_the_float_limit(tmp_path, capsys):
    # Tyler's residual of c I does not depend on c, down to the float limit;
    # other losses refuse a sigma under which the traces overflow or underflow.
    x = write(tmp_path, "x.csv", FOUR_ROWS)
    residuals = []
    for c in (1.0, 1e308, 1e-308):
        sigma = write(tmp_path, "s.json", json.dumps({"sigma": (c * np.eye(2)).tolist()}))
        assert cli.run(["check", "--input", x, "--sigma", sigma]) == cli.EXIT_NOT_CONVERGED
        doc = json.loads(capsys.readouterr().out)
        residuals.append(doc["fixed_point_residual"])
        assert abs(doc["criterion"]) <= 1e-15
    assert residuals[0] == pytest.approx(np.sqrt(0.025), rel=1e-15)
    assert residuals[1:] == pytest.approx([residuals[0]] * 2, rel=1e-14)
    for c in (1e308, 1e-308):
        sigma = write(tmp_path, "s.json", json.dumps({"sigma": (c * np.eye(2)).tolist()}))
        assert cli.run(["check", "--estimator", "t", "--nu", "3", "--input", x, "--sigma", sigma]) == cli.EXIT_INPUT
        assert "error: traces under sigma overflow or underflow" in capsys.readouterr().err
