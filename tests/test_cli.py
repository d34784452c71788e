import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest

from asinhsurv import (ExperimentConfig, Family, Sample, fit_all, fitting, make_handle,
                       run_robustness_study)
from asinhsurv.cli import _fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text: str) -> list[dict]:
    header, *lines = text.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _flatten(fields: dict, prefix: str = "") -> dict:
    """Nested dataclass fields as one dict: {"lomax": {"tau_hat": 1}} -> {"lomax_tau_hat": 1}."""
    flat = {}
    for key, value in fields.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}_"))
        else:
            flat[prefix + key] = value
    return flat


def _assert_cell(text: str, value, name: str) -> None:
    """A CSV cell holds ``value``: bools as 0/1, None as empty, floats exactly at 17 digits."""
    if value is None:
        assert text == "", name
    elif isinstance(value, (bool, int)):
        assert text == str(int(value)), name
    else:
        assert float(text) == value, name


# Every family, points from 0 (below the location 0.25) to inf, and
# probabilities up to 1 - 1e-9.
_EVAL_SHAPES = [("genexp", 2.5, 1.0), ("genweibull", 1.5, 0.7), ("gengamma", 5.0, 0.05),
                ("genexp2", 0.2, 1.0), ("exp", 1.0, 1.0), ("lomax", 3.0, 1.0), ("burr12", 2.0, 1.5),
                ("cgamma", 50.0, 2.0)]
_EVAL_XS = [0.0, 1e-300, 0.25, 0.2500001, 0.26, 0.5, 1.0, 3.0, 40.0, 1e10, 1e200, 1e300, math.inf]
_EVAL_PS = [0.0, 1e-12, 0.01, 0.5, 0.9, 0.999, 1.0 - 1e-9]


class TestEval:
    def test_quantile(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "genexp", "--nu", "1",
                           "--what", "quantile", "--at", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "at,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.75, rel=1e-15)

    def test_moment_mean(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "genexp", "--nu", "2",
                           "--what", "moment", "--at", "1")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_undefined_moment_exits_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "genweibull", "--nu", "2",
                           "--beta", "1", "--what", "moment", "--at", "3")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,undefined"

    def test_multiple_points_17_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "exp", "--what", "pdf",
                           "--at", "0,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[2].split(",")[1] == f"{math.exp(-1.0):.17g}"

    def test_mode_needs_no_at(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "genweibull", "--nu", "1",
                           "--beta", "2", "--what", "mode")
        assert code == 0
        assert out.strip().splitlines()[1].startswith(",")

    def test_quantile_domain_error_names_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--dist", "genexp", "--nu", "1",
                           "--what", "quantile", "--at", "1.5")
        assert code == 2
        assert "--at" in err

    def test_nan_point_names_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--dist", "genexp", "--nu", "1",
                           "--what", "pdf", "--at", "nan")
        assert code == 2
        assert "--at" in err

    def test_missing_nu_names_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--dist", "genexp", "--what", "pdf", "--at", "1")
        assert code == 2
        assert "--nu" in err

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--dist", "genexp", "--nu", "-3",
                           "--what", "pdf", "--at", "1")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--dist", "genexp", "--nu", "1",
                           "--what", "quantile", "--at", "0.5", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"at": 0.5, "value": 0.75}]

    @pytest.mark.parametrize("what", ["pdf", "cdf", "survival", "hazard", "quantile", "moment"])
    @pytest.mark.parametrize("family, nu, beta", _EVAL_SHAPES, ids=[c[0] for c in _EVAL_SHAPES])
    def test_output_equals_per_point_library_values(self, capsys, family, nu, beta, what):
        # pdf to quantile evaluate every point in one handle call, moment one
        # point per call; each row prints the library's value at its point alone.
        ats = {"quantile": _EVAL_PS, "moment": [1.0, 2.0, 3.0, 60.0]}.get(what, _EVAL_XS)
        code, out, _ = run(capsys, "eval", "--dist", family, "--nu", repr(nu), "--beta", repr(beta),
                           "--tau", "1.5", "--eta", "0.25", "--what", what,
                           "--at", ",".join(map(repr, ats)))
        method = getattr(make_handle(family, nu=nu, beta=beta, tau=1.5, eta=0.25), what)
        assert code == 0
        assert out == "at,value\n" + "".join(f"{_fmt(at)},{_fmt(method(at))}\n" for at in ats)

    @pytest.mark.parametrize("at, message", [("0.5,1.5,nan", "quantile requires 0 <= p < 1"),
                                             ("0.5,nan,1.5", "p must not be NaN")])
    def test_error_names_the_first_bad_point(self, capsys, at, message):
        # The batched call checks every NaN first; the message is the first bad point's.
        code, _, err = run(capsys, "eval", "--dist", "genexp", "--nu", "1",
                           "--what", "quantile", "--at", at)
        assert code == 2
        assert err == f"error: --at: {message}\n"

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--dist", "cauchy", "--what", "pdf", "--at", "1"])
        assert exc.value.code == 2


class TestSample:
    def test_zero_gives_header_only(self, tmp_path, capsys):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--dist", "genexp", "--nu", "2",
                         "-n", "0", "--seed", "1", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == "x\n"

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sample", "--dist", "genexp", "--nu", "3",
                             "-n", "500", "--seed", "42", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_mean(self, tmp_path, capsys):
        out_file = tmp_path / "m.csv"
        code, _, _ = run(capsys, "sample", "--dist", "genexp", "--nu", "3",
                         "-n", "100000", "--seed", "5", "--out", str(out_file))
        assert code == 0
        values = np.loadtxt(out_file, skiprows=1)
        se = math.sqrt(2.334375 / values.size)
        assert abs(values.mean() - 9.0 / 8.0) < 4.0 * se

    def test_unwritable_destination_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--dist", "exp", "-n", "1",
                           "--out", str(tmp_path / "missing" / "out.csv"))
        assert code == 3


class TestFit:
    def test_roundtrip_with_sample(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        code, _, _ = run(capsys, "sample", "--dist", "genexp", "--nu", "3",
                         "-n", "3000", "--seed", "9", "--out", str(data))
        assert code == 0
        code, out, _ = run(capsys, "fit", str(data))
        assert code == 0
        payload = json.loads(out)
        assert [e["family"] for e in payload] == sorted(
            (e["family"] for e in payload),
            key=lambda f: [e["neg_log_lik"] for e in payload][[e["family"] for e in payload].index(f)])
        genexp = next(e for e in payload if e["family"] == "genexp")
        assert 0.85 <= genexp["tau_hat"] <= 1.15
        assert {"family", "tau_hat", "nu_hat", "neg_log_lik", "converged",
                "at_nu_bound"} <= set(genexp)

    def test_exponential_data_bound_flag(self, tmp_path, capsys):
        # the boundary outcome is sample-dependent (the theta-score is zero
        # in expectation under exponential data); this seed lands on the cap
        data = tmp_path / "e.csv"
        run(capsys, "sample", "--dist", "exp", "-n", "2000", "--seed", "2",
            "--out", str(data))
        code, out, _ = run(capsys, "fit", str(data), "--families", "genexp")
        assert code == 0
        assert json.loads(out)[0]["at_nu_bound"] is True

    def test_empty_file_exit_2(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x\n")
        code, _, err = run(capsys, "fit", str(data))
        assert code == 2
        assert "no observations" in err

    def test_malformed_row_reports_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x\n1.0\nbogus\n2.0\n")
        code, _, err = run(capsys, "fit", str(data))
        assert code == 2
        assert "row 3" in err

    def test_negative_value_rejected(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("1.0\n-2.0\n")
        code, _, err = run(capsys, "fit", str(data))
        assert code == 2
        assert "row 2" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, _ = run(capsys, "fit", "/nonexistent/file.csv")
        assert code == 3

    def test_csv_format(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "sample", "--dist", "exp", "-n", "50", "--seed", "2", "--out", str(data))
        code, out, _ = run(capsys, "fit", str(data), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "family,tau_hat,nu_hat,beta_hat,neg_log_lik,converged,at_nu_bound"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fit_that_raises_exits_1_after_writing_every_row(self, tmp_path, capsys,
                                                             monkeypatch, fmt):
        data = tmp_path / "d.csv"
        run(capsys, "sample", "--dist", "genexp", "--nu", "2", "-n", "60", "--seed", "3",
            "--out", str(data))
        fit_mle = fitting.fit_mle

        def failing(family, sample, options=None):
            if family is Family.GEN_EXP:
                raise FloatingPointError("injected")
            return fit_mle(family, sample, options)

        monkeypatch.setattr(fitting, "fit_mle", failing)
        with pytest.warns(UserWarning, match="fit of genexp failed: injected"):
            code, out, err = run(capsys, "fit", str(data), "--format", fmt)
        assert code == 1
        assert "genexp" in err
        rows = json.loads(out) if fmt == "json" else _parse_csv(out)
        # sorted by NLL: the failed fit, at +inf, comes last
        assert len(rows) == 3 and rows[-1]["family"] == "genexp"
        assert float(rows[-1]["neg_log_lik"]) == math.inf and rows[-1]["converged"] in (False, "0")
        assert all(math.isfinite(float(row["neg_log_lik"])) for row in rows[:-1])
        monkeypatch.undo()
        assert run(capsys, "fit", str(data), "--format", fmt)[0] == 0

    def test_csv_columns_match_fit_results(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "sample", "--dist", "genexp", "--nu", "2", "-n", "60", "--seed", "3",
            "--out", str(data))
        families = "exp,lomax,genexp,genweibull"
        code, out, _ = run(capsys, "fit", str(data), "--families", families, "--format", "csv")
        assert code == 0
        rows = _parse_csv(out)
        results = fit_all(Sample(np.loadtxt(data, skiprows=1)), families=families.split(","))
        assert [row["family"] for row in rows] == [r.family.value for r in results]
        for row, r in zip(rows, results):
            fields = {"tau_hat": r.estimates.tau, "neg_log_lik": r.neg_log_lik,
                      "converged": r.converged, "at_nu_bound": r.at_nu_bound,
                      "nu_hat": None if r.family is Family.EXPONENTIAL else r.estimates.nu,
                      "beta_hat": r.estimates.beta if r.family is Family.GEN_WEIBULL else None}
            assert set(row) == set(fields) | {"family"}
            for name, value in fields.items():
                _assert_cell(row[name], value, name)


class TestExperiment:
    def test_small_json_run(self, tmp_path, capsys):
        out_file = tmp_path / "exp.json"
        code, _, _ = run(capsys, "experiment", "--sizes", "10,30", "--reps", "4",
                         "--seed", "11", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["config"]["sample_sizes"] == [10, 30]
        assert len(doc["cells"]) == 6
        table2_cells = [c for c in doc["cells"] if c["n_outliers"] >= 1]
        assert len(table2_cells) == 4
        assert len(doc["replications"]) == 2 * 3 * 4
        for c in doc["cells"]:
            if c["n_outliers"] == 0:
                assert c["error_ignore_median"] == 0.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, _ = run(capsys, "experiment", "--sizes", "15", "--reps", "3",
                             "--seed", "4", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_writes_summary_and_replications(self, tmp_path, capsys):
        out_file = tmp_path / "exp.csv"
        code, _, _ = run(capsys, "experiment", "--sizes", "12", "--reps", "3",
                         "--seed", "4", "--out", str(out_file), "--format", "csv")
        assert code == 0
        summary = out_file.read_text().splitlines()
        assert summary[0].startswith("n,n_outliers,replications,error_ignore_median")
        assert len(summary) == 4  # header + k in {0,1,2}
        reps = (tmp_path / "exp.csv.replications.csv").read_text().splitlines()
        assert len(reps) == 10  # header + 3 reps x 3 cells

    def test_csv_columns_match_report_fields(self, tmp_path, capsys):
        out_file = tmp_path / "exp.csv"
        code, _, _ = run(capsys, "experiment", "--sizes", "8,20", "--reps", "2",
                         "--seed", "6", "--out", str(out_file), "--format", "csv")
        assert code == 0
        report = run_robustness_study(ExperimentConfig(sample_sizes=(8, 20), replications=2,
                                                       base_seed=6))
        for path, records in ((out_file, report.cells),
                              (tmp_path / "exp.csv.replications.csv", report.replications)):
            rows = _parse_csv(path.read_text())
            assert len(rows) == len(records)
            for row, record in zip(rows, records):
                fields = _flatten(dataclasses.asdict(record))
                assert set(row) <= set(fields)
                for name, text in row.items():
                    _assert_cell(text, fields[name], name)


    @pytest.mark.parametrize("flags, field", [
        (("--sizes", "10,10"), "sample_sizes"),
        (("--outliers=-1",), "outlier_values"),
        (("--outliers", "20,inf"), "outlier_values"),
        (("--tau", "inf"), "true_tau"),
        (("--sizes", "1"), "sample_sizes"),
    ])
    def test_invalid_config_exits_2_naming_the_field(self, capsys, flags, field):
        code, out, err = run(capsys, "experiment", "--reps", "2", *flags)
        assert code == 2
        assert out == ""
        assert field in err


class TestCurves:
    def test_row_count_and_values(self, capsys):
        code, out, _ = run(capsys, "curves", "--nu", "1", "--xmax", "2", "--points", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,exp_pdf,genexp_pdf,lomax_pdf"
        assert len(lines) == 4
        x1 = [float(v) for v in lines[2].split(",")]
        assert x1[0] == 1.0
        assert x1[1] == pytest.approx(0.367879441171442, abs=1e-9)
        assert x1[2] == pytest.approx(0.292893218813452, abs=1e-9)
        assert x1[3] == pytest.approx(0.25, abs=1e-12)

    def test_log_flag(self, capsys):
        code, out, _ = run(capsys, "curves", "--nu", "1", "--xmax", "100",
                           "--points", "5", "--log")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)  # log10(1)
        assert all(float(v) <= 0.0 for row in rows for v in row[1:])

    def test_missing_nu(self, capsys):
        code, _, err = run(capsys, "curves")
        assert code == 2
        assert "--nu" in err
