import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscatter
from mscatter import SeededStream, SpdMatrix, mvt
from mscatter import cli
from mscatter.cli import InputError, read_csv, read_groups, run


@pytest.fixture
def three_point_csv(tmp_path):
    path = tmp_path / "x.csv"
    s = 1.0 / math.sqrt(2.0)
    path.write_text("1,0\n0,1\n%.17g,%.17g\n" % (s, s))
    return str(path)


@pytest.fixture
def collinear_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,1\n")
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestReadCsv:
    def test_plain_matrix(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,0\n0,1\n")
        x, names = read_csv(str(p))
        assert x.shape == (2, 2)
        assert names is None

    def test_header_detected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        x, names = read_csv(str(p))
        assert names == ["a", "b"]
        assert np.allclose(x, [[1, 2], [3, 4]])

    def test_ragged_reports_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(InputError, match="row 2"):
            read_csv(str(p))

    @pytest.mark.parametrize("text, line", [
        ("1,2\n\n3,4\n5,x\n", 4),
        ("\n\na,b\n\n1,2\n3\n", 6),
    ], ids=["blank_line", "blank_lines_and_header"])
    def test_error_names_the_file_line_after_blank_lines(self, tmp_path, text, line):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=rf"row {line}\b"):
            read_csv(str(p))

    def test_non_numeric_after_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(InputError, match="non-numeric"):
            read_csv(str(p))

    @pytest.mark.parametrize("text", ["1,,2\n3,4,5\n6,7,8\n9,1,2\n2,2,7\n", "1,2 # c\n3,4\n"])
    def test_first_row_with_a_number_is_data(self, tmp_path, text):
        # Only a first row without any numeric cell is a header; a data row
        # with an empty cell or a comment is an error, not a dropped header.
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(InputError, match="non-numeric cell in row 1"):
            read_csv(str(p))

    def test_fast_path_matches_python_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
        p = tmp_path / "a.csv"
        text = "".join(",".join(f" {float(v)!r}" for v in row) + "\n" for row in x)
        p.write_text("w,x,y,z\n" + text)
        got, names = read_csv(str(p))
        assert names == ["w", "x", "y", "z"]
        assert got.tobytes() == x.tobytes()

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_csv("/nonexistent/file.csv")


class TestReadGroups:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.json"
        doc = [{"dof": 3, "scatter": [[2.0, 0.1], [0.1, 1.0]]}]
        p.write_text(json.dumps(doc))
        groups = read_groups(str(p))
        assert groups[0].dof == 3
        assert np.allclose(groups[0].scatter.mat, doc[0]["scatter"])

    def test_rejects_non_psd(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps([{"dof": 2, "scatter": [[1.0, 0.0], [0.0, -0.5]]}]))
        with pytest.raises(InputError, match="positive semidefinite"):
            read_groups(str(p))

    def test_eigenvalue_dust_clipped_or_rejected(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps([{"dof": 2, "scatter": [[1.0, 0.0], [0.0, -1e-12]]}]))
        (group,) = read_groups(str(p))
        assert np.linalg.eigvalsh(group.scatter.mat)[0] >= 0.0
        p.write_text(json.dumps([{"dof": 2, "scatter": [[1.0, 0.0], [0.0, -1e-6]]}]))
        assert run(["procov", "--groups", str(p)]) == 3
        assert "positive semidefinite" in capsys.readouterr().err

    def test_non_psd_error_names_the_group(self, tmp_path):
        p = tmp_path / "g.json"
        good = [[1.0, 0.0], [0.0, 1.0]]
        p.write_text(json.dumps([
            {"dof": 2, "scatter": good},
            {"dof": 2, "scatter": [[1.0, 0.0], [0.0, -0.5]]},
            {"dof": 2, "scatter": good},
        ]))
        with pytest.raises(InputError, match="group scatters: matrix 1 is not positive"):
            read_groups(str(p))

    def test_non_finite_scatter_names_the_group(self, tmp_path):
        # JSON readers accept NaN; it must be rejected before any eigensolver.
        p = tmp_path / "g.json"
        p.write_text(json.dumps([
            {"dof": 2, "scatter": [[1.0, 0.0], [0.0, 1.0]]},
            {"dof": 2, "scatter": [[1.0, 0.0], [0.0, float("nan")]]},
        ]))
        with pytest.raises(InputError, match="group 1 scatter has non-finite entries"):
            read_groups(str(p))

    @pytest.mark.parametrize("scatter", [
        [["a", 1.0], [1.0, 2.0]],
        [[1.0], [1.0, 2.0]],
    ], ids=["string", "ragged"])
    def test_non_numeric_scatter_exits_three(self, tmp_path, capsys, scatter):
        p = tmp_path / "g.json"
        p.write_text(json.dumps([
            {"dof": 2, "scatter": [[1.0, 0.0], [0.0, 1.0]]},
            {"dof": 2, "scatter": scatter},
        ]))
        assert run(["procov", "--groups", str(p)]) == 3
        assert "group 1 scatter is not a numeric matrix" in capsys.readouterr().err

    def test_rejects_bad_dof_and_mixed_dims(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps([{"dof": 0, "scatter": [[1.0]]}]))
        with pytest.raises(InputError, match="dof"):
            read_groups(str(p))
        p.write_text(json.dumps([
            {"dof": 2, "scatter": [[1.0]]},
            {"dof": 2, "scatter": [[1.0, 0.0], [0.0, 1.0]]},
        ]))
        with pytest.raises(InputError, match="dimension"):
            read_groups(str(p))


class TestScatterCommand:
    def test_tyler_three_point(self, three_point_csv, capsys):
        code = run(["scatter", "--estimator", "tyler", "--input", three_point_csv])
        doc = read_json(capsys)
        assert code == 0
        assert doc["status"] == "converged"
        sigma = np.asarray(doc["sigma"])
        assert abs(np.linalg.det(sigma) - 1.0) <= 1e-9
        assert doc["existence"]["verdict"] == "satisfied"

    def test_collinear_exits_two_with_witness(self, collinear_csv, capsys):
        code = run(["scatter", "--estimator", "tyler", "--input", collinear_csv])
        doc = read_json(capsys)
        assert code == 2
        assert doc["status"] == "existence_violated"
        assert doc["existence"]["verdict"] == "violated"
        assert doc["existence"]["witnesses"]

    def test_violated_fit_reports_numeric_residual(self, collinear_csv, capsys):
        # The start matrix is evaluated before the fit stops, so the
        # residual is measured (0 here: the identity is a fixed point).
        assert run(["scatter", "--estimator", "tyler", "--input", collinear_csv]) == 2
        doc = read_json(capsys)
        assert doc["fixed_point_residual"] == 0.0
        assert doc["gradient_norm"] == 0.0

    def test_gaussian_on_rounded_plane_exits_two(self, tmp_path, capsys):
        # Rows of a plane rounded to 8 digits: the fit cannot be resolved,
        # and the existence check says so instead of the Cholesky failing.
        rng = np.random.default_rng(0)
        x = np.round(rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3)), 8)
        path = tmp_path / "plane.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        code = run(["scatter", "--estimator", "gaussian", "--input", str(path)])
        doc = read_json(capsys)
        assert code == 2
        assert doc["status"] == "existence_violated"
        assert doc["existence"]["verdict"] == "violated"

    @pytest.mark.parametrize("flags", [["--estimator", "tyler"], ["--estimator", "t", "--nu", "1"]])
    def test_plane_rows_violated_by_witness(self, tmp_path, capsys, flags):
        # 2,000 rows with x3 = 0: the mean atom is singular, so its span, the
        # plane, carries all the mass and is the witness before the loop.
        rng = np.random.default_rng(0)
        x = np.hstack([rng.standard_normal((2000, 2)), np.zeros((2000, 1))])
        path = tmp_path / "plane.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        code = run(["scatter", "--input", str(path)] + flags)
        doc = read_json(capsys)
        assert code == 2
        assert doc["status"] == "existence_violated"
        assert doc["existence"]["verdict"] == "violated"
        assert doc["existence"]["method"] == "exact_enumeration"
        (w,) = doc["existence"]["witnesses"]
        assert w["dim"] == 2 and w["mass"] == pytest.approx(1.0)

    def test_nearly_singular_iterate_exits_two(self, tmp_path, capsys):
        # Rank-two rows in R^3: the mean atom is singular, so the t fit stops
        # at its start with the span of the rows as the witness.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 2)) @ rng.standard_normal((2, 3))
        path = tmp_path / "x.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        code = run(["scatter", "--estimator", "t", "--nu", "1.5", "--input", str(path)])
        doc = read_json(capsys)
        assert code == 2
        assert doc["status"] == "existence_violated"
        assert doc["existence"]["verdict"] == "violated"
        assert doc["existence"]["method"] == "exact_enumeration"
        np.linalg.cholesky(np.asarray(doc["sigma"]))

    def test_se_block(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        p = tmp_path / "x.csv"
        np.savetxt(p, rng.standard_normal((40, 2)), delimiter=",")
        code = run(["scatter", "--estimator", "t", "--nu", "3", "--input", str(p), "--se"])
        doc = read_json(capsys)
        assert code == 0
        assert np.asarray(doc["se"]["sigma"]).shape == (2, 2)

    def test_k2_symmetrized(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        p = tmp_path / "x.csv"
        np.savetxt(p, rng.standard_normal((20, 2)), delimiter=",")
        code = run(["scatter", "--estimator", "tyler", "--input", str(p), "--k", "2"])
        doc = read_json(capsys)
        assert code == 0
        assert doc["k"] == 2

    def test_incompatible_flags_exit_three(self, three_point_csv, capsys):
        assert run(["scatter", "--estimator", "tyler", "--nu", "3",
                    "--input", three_point_csv]) == 3
        capsys.readouterr()
        assert run(["scatter", "--estimator", "weibull", "--input", three_point_csv]) == 3

    @pytest.mark.parametrize("job", [
        ["scatter", "--tol", "nan"], ["scatter", "--tol-gradient", "nan"],
        ["check", "--tol", "nan"], ["check", "--tol", "0"],
        ["check", "--sigma", "eye.json", "--tol", "nan"],
    ])
    def test_nan_or_nonpositive_tolerance_exits_three(self, three_point_csv, tmp_path, job):
        (tmp_path / "eye.json").write_text(json.dumps({"sigma": np.eye(2).tolist()}))
        job = [str(tmp_path / a) if a == "eye.json" else a for a in job]
        assert run(job + ["--input", three_point_csv]) == 3

    def test_missing_file_exit_three(self, capsys):
        assert run(["scatter", "--estimator", "tyler", "--input", "/no/such.csv"]) == 3

    def test_csv_output(self, three_point_csv, capsys):
        code = run(["scatter", "--estimator", "tyler", "--input", three_point_csv,
                    "--output", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 2
        assert len(out[0].split(",")) == 2


class TestLocScatterCommand:
    def test_fit_with_se(self, tmp_path, capsys):
        p = tmp_path / "t3.csv"
        x = mvt(np.array([1.0, -1.0]), SpdMatrix(np.diag([2.0, 1.0])), 3.0, 200,
                SeededStream(2))
        np.savetxt(p, x, delimiter=",")
        code = run(["locscatter", "--nu", "3", "--input", str(p), "--se"])
        doc = read_json(capsys)
        assert code == 0
        assert len(doc["mu"]) == 2
        assert np.asarray(doc["sigma"]).shape == (2, 2)
        assert np.asarray(doc["gamma"]).shape == (3, 3)
        assert len(doc["se"]["mu"]) == 2
        assert abs(doc["gamma"][2][2] - 1.0) <= 1e-8

    def test_nu_below_one_rejected(self, three_point_csv):
        assert run(["locscatter", "--nu", "0.5", "--input", three_point_csv]) == 3

    def test_unconverged_csv_output_exits_two(self, tmp_path, capsys):
        # One iteration leaves no mu or sigma: only the rows that exist are written.
        p = tmp_path / "x.csv"
        p.write_text("1,2,3\n2,1,0\n0.5,3,1\n4,1,2\n1,1,5\n")
        assert run(["locscatter", "--nu", "3", "--max-iter", "1", "--output", "csv",
                    "--input", str(p)]) == 2
        assert capsys.readouterr().out.strip() == ""

    def test_subset_flags_rejected(self, three_point_csv, tmp_path):
        # locscatter and procov fit order one only: --k, --cap and --seed
        # would be silently ignored, so they are not accepted.
        assert run(["locscatter", "--nu", "3", "--k", "2", "--input", three_point_csv]) == 3
        p = tmp_path / "g.json"
        p.write_text(json.dumps([{"dof": 5, "scatter": [[2.0, 0.3], [0.3, 1.0]]}]))
        assert run(["procov", "--seed", "1", "--groups", str(p)]) == 3


class TestProcovCommand:
    def test_single_group(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        s1 = [[2.0, 0.3], [0.3, 1.0]]
        p.write_text(json.dumps([{"dof": 5, "scatter": s1}]))
        code = run(["procov", "--groups", str(p)])
        doc = read_json(capsys)
        assert code == 0
        sigma = np.asarray(doc["sigma"])
        expected = np.asarray(s1) / np.linalg.det(s1) ** 0.5
        assert np.allclose(sigma, expected, atol=1e-8)
        assert len(doc["scales"]) == 1
        assert doc["stationarity_residual"] <= 1e-8


class TestCheckCommand:
    def test_round_trip(self, three_point_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert run(["scatter", "--estimator", "tyler", "--input", three_point_csv,
                    "--out", str(out)]) == 0
        code = run(["check", "--estimator", "tyler", "--input", three_point_csv,
                    "--sigma", str(out), "--tol", "1e-8"])
        doc = read_json(capsys)
        assert code == 0
        assert doc["fixed_point_residual"] <= 1e-8

    def test_wrong_sigma_fails(self, three_point_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sigma": [[2.0, 0.0], [0.0, 0.5]]}))
        code = run(["check", "--estimator", "tyler", "--input", three_point_csv,
                    "--sigma", str(bad), "--tol", "1e-8"])
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"sigma": np.eye(3).tolist()},
        {"scatter": np.eye(2).tolist()},
        {"sigma": [[1.0, 0.0], [0.0]]},
    ], ids=["wrong_dimension", "missing_key", "ragged"])
    def test_malformed_sigma_exits_three(self, three_point_csv, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["check", "--estimator", "tyler", "--input", three_point_csv,
                    "--sigma", str(bad)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("estimator", ["tyler", "gaussian"])
    def test_singular_psi_is_measured(self, tmp_path, capsys, estimator):
        # 200 rows with x3 = 0: Psi of the identity is singular.  The check
        # measures it all the same, as the fit that stops at that start does.
        p, eye = tmp_path / "plane.csv", tmp_path / "eye.json"
        x = np.random.default_rng(0).standard_normal((200, 3))
        x[:, 2] = 0.0
        np.savetxt(p, x, delimiter=",")
        eye.write_text(json.dumps({"sigma": np.eye(3).tolist()}))
        fit = tmp_path / "fit.json"
        assert run(["scatter", "--estimator", estimator, "--input", str(p), "--out", str(fit)]) == 2
        code = run(["check", "--estimator", estimator, "--input", str(p), "--sigma", str(eye)])
        doc, fitted = read_json(capsys), json.loads(fit.read_text())
        assert code == 2
        assert doc["existence"]["verdict"] == "violated"
        assert math.isfinite(doc["fixed_point_residual"]) and math.isfinite(doc["criterion"])
        assert fitted["sigma"] == np.eye(3).tolist()
        for key in ("fixed_point_residual", "criterion"):
            assert doc[key] == fitted[key]

    def test_zero_row_reports_the_check(self, tmp_path, capsys):
        # Under Case 0 a zero row is mass at the zero matrix: no criterion,
        # so the fit and check --sigma emit null measurements and the report.
        p, eye = tmp_path / "zero.csv", tmp_path / "eye.json"
        x = np.random.default_rng(0).standard_normal((6, 3))
        x[0] = 0.0
        np.savetxt(p, x, delimiter=",")
        eye.write_text(json.dumps({"sigma": np.eye(3).tolist()}))
        for argv in (["check"], ["scatter"], ["check", "--sigma", str(eye)]):
            capsys.readouterr()
            assert run([*argv, "--input", str(p)]) == 2
            doc = read_json(capsys)
            assert doc["existence"]["verdict"] == "violated"
            if argv != ["check"]:
                assert doc["fixed_point_residual"] is None and doc["criterion"] is None
        with pytest.raises(mscatter.DomainError):
            mscatter.gradient(np.eye(3), mscatter.from_observations(x), mscatter.tyler(3))

    # Squared entries of sigma leave the float range at these scales.
    @pytest.mark.parametrize("flags,scale", [
        (["--estimator", "gaussian"], 1e100),
        (["--estimator", "t", "--nu", "3"], 1e-100),
    ], ids=["gaussian_1e100", "t_1e-100"])
    def test_extreme_scale_round_trip(self, tmp_path, capsys, flags, scale):
        p = tmp_path / "x.csv"
        x = scale * np.random.default_rng(3).standard_normal((40, 3))
        np.savetxt(p, x, delimiter=",", fmt="%.17g")
        fit = tmp_path / "fit.json"
        assert run(["scatter", *flags, "--input", str(p), "--out", str(fit)]) == 0
        code = run(["check", *flags, "--input", str(p), "--sigma", str(fit)])
        doc = read_json(capsys)
        assert code == 0
        assert doc["fixed_point_residual"] == json.loads(fit.read_text())["fixed_point_residual"]


def reference_emit(doc, out, csv=False):
    """``cli._emit`` as it was when every document was sanitized before it was
    serialized (``out`` is None here: the text goes to stdout)."""
    if csv:
        rows = [doc.get("mu")] + (doc["sigma"] or [])
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows if row is not None)
    else:
        text = json.dumps(cli._sanitize(doc), indent=2, allow_nan=False)
    print(text)


class TestWriter:
    """The writer serializes strictly first and sanitizes only a document with
    a non-finite float; either way it writes the reference's bytes."""

    def emitted(self, argv, monkeypatch, capsys):
        """(exit code, stdout, whether the writer sanitized) of ``run(argv)``,
        checked against the reference writer on the document it emitted."""
        docs, emit, sanitized, sanitize = [], cli._emit, [], cli._sanitize

        def recorded(doc, out, csv=False):
            docs.append((doc, csv))
            emit(doc, out, csv)

        def counted(value):
            sanitized.append(value)
            return sanitize(value)

        monkeypatch.setattr(cli, "_emit", recorded)
        monkeypatch.setattr(cli, "_sanitize", counted)
        capsys.readouterr()
        code = run(argv)
        out, walked = capsys.readouterr().out, bool(sanitized)
        (doc, csv), = docs
        reference_emit(doc, None, csv)
        assert out == capsys.readouterr().out
        return code, out, walked

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_converged_location_fit_with_standard_errors(self, tmp_path, monkeypatch, capsys, output):
        p = tmp_path / "t3.csv"
        x = mvt(np.array([1.0, -1.0, 0.5]), SpdMatrix(np.diag([2.0, 1.0, 0.5])), 3.0, 150,
                SeededStream(5))
        np.savetxt(p, x, delimiter=",", fmt="%.17g")
        code, out, walked = self.emitted(["locscatter", "--nu", "3", "--se", "--input", str(p),
                                          "--output", output], monkeypatch, capsys)
        assert code == 0 and not walked  # every float is finite: one pass
        if output == "json":
            doc = json.loads(out)
            assert doc["status"] == "converged" and len(doc["se"]["mu"]) == 3

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_tyler_fit_with_a_zero_row(self, tmp_path, monkeypatch, capsys, output):
        p = tmp_path / "zero.csv"
        x = np.random.default_rng(0).standard_normal((6, 3))
        x[0] = 0.0
        np.savetxt(p, x, delimiter=",")
        code, out, walked = self.emitted(["scatter", "--input", str(p), "--output", output],
                                         monkeypatch, capsys)
        assert code == 2 and walked == (output == "json")
        if output == "json":
            def strict(name):
                raise AssertionError(f"{name} in the output")

            doc = json.loads(out, parse_constant=strict)
            for key in ("criterion", "fixed_point_residual", "gradient_norm"):
                assert doc[key] is None

    @pytest.mark.parametrize("doc", [{"a": object()}, {"a": math.nan, "b": [object()]}],
                             ids=["finite", "with-nan"])
    def test_unserializable_object_raises(self, doc):
        with pytest.raises(TypeError):
            cli._emit(doc, None)


class TestEntryPoint:
    def test_module_invocation(self, three_point_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "mscatter.cli", "scatter", "--estimator", "tyler",
             "--input", three_point_csv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "converged"

    def test_bad_flags_exit_code(self):
        assert run(["scatter"]) == 3  # missing --input


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import mscatter.cli as c; print(c.build_parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "0"

    def test_flags_do_not_carry_over(self, three_point_csv, capsys):
        assert run(["scatter", "--se", "--input", three_point_csv]) == 0
        assert "se" in read_json(capsys)
        assert run(["scatter", "--input", three_point_csv]) == 0
        assert "se" not in read_json(capsys)

    def test_exit_codes_after_a_run(self, three_point_csv, capsys):
        assert run(["scatter", "--input", three_point_csv]) == 0
        capsys.readouterr()
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"mscatter {mscatter.__version__}"
        assert run(["scatter", "--input", three_point_csv, "--no-such-flag"]) == 3
        assert run(["scatter", "--input", three_point_csv]) == 0


# Runs CLI jobs in a fresh interpreter whose imports of scipy fail.
SCIPY_BLOCKED_JOBS = """
import importlib.abc, json, os, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from mscatter.cli import run

x, groups = sys.argv[1:]
jobs = [
    ["scatter", "--input", x],
    ["influence", "--k", "2", "--cap", "200", "--input", x],
    ["locscatter", "--nu", "3", "--se", "--input", x],
    ["procov", "--groups", groups],
]
print(json.dumps([run(job + ["--out", os.devnull]) for job in jobs]))
"""


class TestNumpyOnlyRuntime:
    def test_jobs_run_without_scipy(self, tmp_path):
        x = tmp_path / "x.csv"
        np.savetxt(x, np.random.default_rng(3).standard_normal((20, 2)), delimiter=",")
        groups = tmp_path / "g.json"
        groups.write_text(json.dumps([
            {"dof": 5, "scatter": [[2.0, 0.3], [0.3, 1.0]]},
            {"dof": 3, "scatter": [[1.0, -0.2], [-0.2, 0.5]]},
        ]))
        src = os.path.dirname(os.path.dirname(mscatter.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_BLOCKED_JOBS, str(x), str(groups)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0, 0, 0], proc.stderr


class TestInfluenceCommand:
    def test_k2_standard_errors(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        p = tmp_path / "x.csv"
        np.savetxt(p, rng.standard_normal((30, 2)), delimiter=",")
        code = run(["influence", "--estimator", "tyler", "--input", str(p),
                    "--k", "2", "--cap", "2000"])
        doc = read_json(capsys)
        assert code == 0
        assert doc["subcommand"] == "influence"
        assert np.asarray(doc["se"]["sigma"]).shape == (2, 2)

    def test_tyler_one_column_has_zero_influence(self, tmp_path, capsys):
        # Tyler's scatter of one variable is fixed at 1: its Hessian domain
        # has no coordinates and every influence is zero.
        p = tmp_path / "x.csv"
        p.write_text("1\n2\n-3\n")
        assert run(["influence", "--input", str(p)]) == 0
        assert read_json(capsys)["se"]["sigma"] == [[0.0]]


class TestCheckLocScatter:
    def test_location_existence_check(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        x = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 40, SeededStream(21))
        np.savetxt(p, x, delimiter=",")
        code = run(["check", "--estimator", "t", "--nu", "3", "--locscatter",
                    "--input", str(p)])
        doc = read_json(capsys)
        assert code == 0
        assert doc["existence"]["verdict"] == "satisfied"

    def test_missing_nu_is_input_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,0\n0,1\n2,1\n")
        assert run(["check", "--estimator", "t", "--locscatter", "--input", str(p)]) == 3
        assert run(["check", "--locscatter", "--input", str(p)]) == 3

    @pytest.fixture
    def t3_fit(self, tmp_path):
        p = tmp_path / "t3.csv"
        x = mvt(np.array([1.0, -1.0, 0.5]), SpdMatrix(np.diag([2.0, 1.0, 0.5])), 3.0, 200,
                SeededStream(2))
        np.savetxt(p, x, delimiter=",", fmt="%.17g")
        fit = tmp_path / "fit.json"
        assert run(["locscatter", "--nu", "3", "--input", str(p), "--out", str(fit)]) == 0
        return str(p), fit

    def test_converged_fit_round_trip(self, t3_fit, capsys):
        # The residual is the augmented problem's, at the fitted gamma: the
        # fit's own residual.
        path, fit = t3_fit
        code = run(["check", "--estimator", "t", "--nu", "3", "--locscatter",
                    "--input", path, "--sigma", str(fit)])
        doc = read_json(capsys)
        assert code == 0
        assert doc["fixed_point_residual"] == json.loads(fit.read_text())["fixed_point_residual"]

    # The augmented problem is 4-dimensional: a 3x3 gamma has the wrong size.
    @pytest.mark.parametrize("key", ["sigma", "gamma"], ids=["sigma_only", "wrong_dimension"])
    def test_document_without_usable_gamma_exits_three(self, t3_fit, tmp_path, capsys, key):
        path, _ = t3_fit
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: np.eye(3).tolist()}))
        code = run(["check", "--estimator", "t", "--nu", "3", "--locscatter",
                    "--input", path, "--sigma", str(bad)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: ")


class TestUnits:
    """Rows in other units give the same fit, in those units."""

    @staticmethod
    def fit(tmp_path, capsys, argv, x):
        p = tmp_path / "x.csv"
        np.savetxt(p, x, delimiter=",", fmt="%.17g")
        code = run([*argv, "--input", str(p)])
        return code, read_json(capsys)

    @staticmethod
    def assert_close(actual, expected):
        actual, expected = np.asarray(actual), np.asarray(expected)
        assert np.max(np.abs(actual - expected)) <= 1e-7 * np.max(np.abs(expected))

    @pytest.mark.parametrize("argv", [
        ["scatter", "--estimator", "t", "--nu", "3"],
        ["scatter", "--estimator", "gaussian"],
        ["scatter", "--estimator", "weibull", "--gamma", "0.5"],
        ["influence", "--estimator", "t", "--nu", "3"],
    ])
    def test_thousandfold_rows(self, tmp_path, capsys, argv):
        x = np.random.default_rng(0).standard_normal((300, 20))
        code, unit = self.fit(tmp_path, capsys, argv, x)
        assert code == 0
        code, milli = self.fit(tmp_path, capsys, argv, 1000.0 * x)
        assert code == 0
        self.assert_close(milli["sigma"], 1e6 * np.asarray(unit["sigma"]))

    def test_location_hundredfold_rows(self, tmp_path, capsys):
        x = np.random.default_rng(0).standard_normal((300, 20))
        code, unit = self.fit(tmp_path, capsys, ["locscatter", "--nu", "3"], x)
        assert code == 0
        code, centi = self.fit(tmp_path, capsys, ["locscatter", "--nu", "3"], 100.0 * x)
        assert code == 0
        self.assert_close(centi["mu"], 100.0 * np.asarray(unit["mu"]))
        self.assert_close(centi["sigma"], 1e4 * np.asarray(unit["sigma"]))

    def test_location_shifted_rows(self, tmp_path, capsys):
        # Rows far from the origin: the fit runs where the augmented mean
        # atom is the identity, so the shift does not stop it.
        x = np.random.default_rng(0).standard_normal((50, 3))
        code, unit = self.fit(tmp_path, capsys, ["locscatter", "--nu", "3"], x)
        assert code == 0
        code, shifted = self.fit(tmp_path, capsys, ["locscatter", "--nu", "3"], x + 1000.0)
        assert code == 0
        self.assert_close(shifted["mu"], np.asarray(unit["mu"]) + 1000.0)
        self.assert_close(shifted["sigma"], unit["sigma"])

    # Squared row norms of 1e+-160 leave the normal float range.
    @pytest.mark.parametrize("scale,code", [(1e-160, 3), (1e-150, 0), (1e150, 0), (1e160, 3)])
    def test_extreme_scales(self, tmp_path, capsys, scale, code):
        x = scale * np.array([[1.0, 2.0], [-3.0, 1.0], [2.0, 0.5]])
        p = tmp_path / "x.csv"
        np.savetxt(p, x, delimiter=",", fmt="%.17g")
        assert run(["scatter", "--input", str(p)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (code == 3)


class TestSettingsApplied:
    """Every flag a subcommand accepts is one it applies."""

    @pytest.fixture
    def t_csv(self, tmp_path):
        p = tmp_path / "x.csv"
        x = mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 40, SeededStream(21))
        np.savetxt(p, x, delimiter=",")
        return str(p)

    @pytest.mark.parametrize("argv", [
        ["check", "--max-iter", "5"],
        ["check", "--tol-gradient", "1e-9"],
        ["check", "--output", "csv"],
        ["scatter", "--estimator", "gaussian", "--nu", "3"],
        ["scatter", "--estimator", "tyler", "--gamma", "0.5"],
        ["scatter", "--estimator", "t", "--nu", "3", "--gamma", "0.5"],
        ["scatter", "--estimator", "weibull", "--gamma", "0.5", "--nu", "3"],
        ["scatter", "--cap", "7"],
        ["scatter", "--seed", "3", "--se"],
        ["influence", "--seed", "3"],
        ["check", "--cap", "5"],
        ["check", "--estimator", "t", "--nu", "3", "--locscatter", "--k", "2"],
        ["check", "--estimator", "t", "--nu", "3", "--locscatter", "--k", "2", "--cap", "5"],
        ["check", "--estimator", "t", "--nu", "3", "--locscatter", "--k", "2", "--seed", "9"],
        ["check", "--estimator", "t", "--nu", "3", "--locscatter", "--seed", "9"],
        ["scatter", "--k", "2", "--cap", "5", "--seed", "-1"],
        ["scatter", "--k", "2", "--seed", "-1"],
    ], ids=" ".join)
    def test_refused(self, t_csv, capsys, argv):
        assert run(argv + ["--input", t_csv]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 or "usage:" in out.err

    @pytest.mark.parametrize("argv", [
        ["scatter", "--k", "2", "--cap", "50", "--seed", "3"],
        ["scatter", "--estimator", "weibull", "--gamma", "0.5"],
        ["influence", "--estimator", "t", "--nu", "3"],
        ["influence", "--k", "2", "--cap", "100", "--seed", "1"],
        ["check", "--tol", "1e-8", "--out", "f.json"],
        ["check", "--k", "2", "--cap", "50", "--seed", "3"],
        ["check", "--estimator", "t", "--nu", "3", "--locscatter", "--k", "1"],
    ], ids=" ".join)
    def test_accepted_neighbours(self, t_csv, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "f.json" else a for a in argv]
        assert run(argv + ["--input", t_csv]) == 0

    @pytest.mark.parametrize("seed", range(0, 20, 3))
    def test_sparse_subset_sample_fits(self, tmp_path, capsys, seed):
        # Seven rows, 6-subsets capped at 3: the sampler's rejection batches
        # often hold no valid subset.
        p = tmp_path / "x.csv"
        np.savetxt(p, mvt(np.zeros(2), SpdMatrix(np.eye(2)), 3.0, 7, SeededStream(5)), delimiter=",")
        argv = ["scatter", "--k", "6", "--cap", "3", "--seed", str(seed), "--input", str(p)]
        assert run(argv) in (0, 2)
        json.loads(capsys.readouterr().out)

    def test_check_help_lists_only_its_flags(self, capsys):
        assert run(["check", "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--tol-gradient", "--max-iter", "--output"):
            assert flag not in text

    def test_thread_variable_changes_nothing(self, t_csv, capsys, monkeypatch):
        monkeypatch.delenv("MSCATTER_THREADS", raising=False)
        assert run(["scatter", "--input", t_csv]) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("MSCATTER_THREADS", "2")
        assert run(["scatter", "--input", t_csv]) == 0
        assert capsys.readouterr() == plain


# Flags of every subcommand, each with valid and invalid values; None marks
# a switch.  "@sigma" and "@out" stand for a sigma document and an output
# file next to the input.
FUZZ_FLAGS = {
    "--estimator": ["tyler", "t", "weibull", "gaussian", "cauchy"],
    "--nu": ["3", "1", "0.5", "0", "-1", "inf", "nan", "three"],
    "--gamma": ["0.5", "0", "1", "nan"],
    "--k": ["1", "2", "3", "5", "0", "9"],
    "--cap": ["1", "3", "50", "0", "-2"],
    "--seed": ["0", "1", "3", "5", "-1"],
    "--tol": ["1e-8", "0", "-1", "nan"],
    "--tol-gradient": ["1e-9", "0"],
    "--max-iter": ["1", "4", "0", "-3"],
    "--output": ["json", "csv", "xml"],
    "--sigma": ["@sigma"],
    "--out": ["@out"],
    "--se": None,
    "--locscatter": None,
}


@st.composite
def csv_texts(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 3))
    cell = st.sampled_from(["0", "1", "-2", "0.5", "3e2", "7e9", "-3e-9", "1e150", "1e160", "-1e-160",
                            "1e-300", "nan", "-inf"])
    rows = [[draw(cell) for _ in range(q)] for _ in range(n)]
    if draw(st.booleans()):
        rows.append(list(rows[0]))  # duplicate row
    fault = draw(st.sampled_from([None, "ragged", "text"]))
    if fault == "ragged":
        rows[-1] = rows[-1] + ["1"]
    elif fault == "text":
        rows[-1][0] = "x"
    if draw(st.booleans()):
        rows.insert(0, [f"c{j}" for j in range(q)])  # header
    return "".join(",".join(r) + "\n" for r in rows)


@st.composite
def groups_texts(draw):
    scatter = st.sampled_from([
        [[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0]], [[1.0, 2.0], [2.0, 1.0]],
        [["a", 1.0], [1.0, 2.0]], [[1.0], [1.0, 2.0]],
    ])
    dof = st.sampled_from([1, 3, 0, -1, "2"])
    doc = [{"dof": draw(dof), "scatter": draw(scatter)} for _ in range(draw(st.integers(1, 3)))]
    return json.dumps(doc)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    subcommand=st.sampled_from(["scatter", "influence", "locscatter", "procov", "check"]),
    flags=st.lists(st.sampled_from(sorted(FUZZ_FLAGS)), max_size=4, unique=True),
    values=st.data(),
    csv_text=csv_texts(),
    groups_text=groups_texts(),
    sigma=st.sampled_from([np.eye(2).tolist(), [[1.0, 0.0], [0.0]], "x"]),
)
def test_cli_fuzz(subcommand, flags, values, csv_text, groups_text, sigma):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(groups_text if subcommand == "procov" else csv_text)
        sigma_doc = os.path.join(tmp, "sigma.json")
        with open(sigma_doc, "w", encoding="utf-8") as fh:
            json.dump({"sigma": sigma, "gamma": sigma}, fh)
        paths = {"@sigma": sigma_doc, "@out": os.path.join(tmp, "out")}
        argv = [subcommand, "--groups" if subcommand == "procov" else "--input", data]
        for flag in flags:
            argv.append(flag)
            if FUZZ_FLAGS[flag] is not None:
                value = values.draw(st.sampled_from(FUZZ_FLAGS[flag]))
                argv.append(paths.get(value, value))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 2, 3), argv
        if code in (0, 2) and "csv" not in argv:
            if "--out" in argv:
                with open(paths["@out"], encoding="utf-8") as fh:
                    json.load(fh)
            else:
                json.loads(stdout.getvalue())
