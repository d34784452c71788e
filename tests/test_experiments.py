import json
import math

import numpy as np
import pytest

from asinhsurv import (
    CURVE_COLUMNS,
    DomainError,
    ExperimentConfig,
    emit_curves,
    make_stream,
    run_robustness_study,
)
from asinhsurv.baselines import Lomax

SMALL = ExperimentConfig(sample_sizes=(10, 50), outlier_values=(20.0, 10.0),
                         replications=8, base_seed=5)


@pytest.fixture(scope="module")
def small_report():
    return run_robustness_study(SMALL)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.sample_sizes == (10, 100, 1000)
        assert cfg.outlier_values == (20.0, 10.0)
        assert cfg.true_tau == 1.0
        assert cfg.replications == 200

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(sample_sizes=())
        with pytest.raises(DomainError):
            ExperimentConfig(replications=0)

    @pytest.mark.parametrize("sizes", [(1,), (10, 1), (0,)])
    def test_rejects_sample_sizes_below_two(self, sizes):
        # Lomax and genexp fit two slots: a one-point sample used to abort the
        # study with "need at least 2 observations to fit lomax".
        with pytest.raises(DomainError, match="sample_sizes"):
            ExperimentConfig(sample_sizes=sizes, replications=2)
        assert ExperimentConfig(sample_sizes=(2,), replications=2).sample_sizes == (2,)

    def test_rejects_repeated_sample_sizes(self):
        # Cells are keyed by n: (10, 10) would report two cells per outlier
        # count, each merging both sizes' replications.
        with pytest.raises(DomainError, match="sample_sizes"):
            ExperimentConfig(sample_sizes=(10, 10), replications=2)

    @pytest.mark.parametrize("outliers", [(-1.0,), (20.0, math.nan), (math.inf,)])
    def test_rejects_outliers_outside_the_support(self, outliers):
        with pytest.raises(DomainError, match="outlier_values"):
            ExperimentConfig(outlier_values=outliers)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0])
    def test_rejects_true_tau_not_finite_and_positive(self, tau):
        with pytest.raises(DomainError, match="true_tau"):
            ExperimentConfig(true_tau=tau)

    # Each built before and failed later: a TypeError inside the study, one
    # replication, an error at the first stream, or a size silently truncated.
    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5), ("replications", True), ("base_seed", -1), ("base_seed", 2**64),
        ("base_seed", 1.0), ("sample_sizes", (2.7,)), ("sample_sizes", (10, True)),
    ])
    def test_rejects_counts_and_seeds_that_are_not_integers_in_range(self, field, value):
        with pytest.raises(DomainError, match=field):
            ExperimentConfig(**{field: value})

    def test_accepts_numpy_integers_as_python_ints(self):
        cfg = ExperimentConfig(sample_sizes=np.array([10, 20]), replications=np.int32(3),
                               base_seed=np.uint64(2**64 - 1))
        assert (cfg.sample_sizes, cfg.replications, cfg.base_seed) == ((10, 20), 3, 2**64 - 1)
        assert all(type(v) is int for v in (*cfg.sample_sizes, cfg.replications, cfg.base_seed))

    def test_numpy_true_tau_reports_as_a_python_float(self):
        # The report is serialized from dataclasses.asdict, which keeps numpy scalars.
        cfg = ExperimentConfig(sample_sizes=(10, 30), replications=3, true_tau=np.float32(1.5))
        assert type(cfg.true_tau) is float
        plain = ExperimentConfig(sample_sizes=(10, 30), replications=3, true_tau=1.5)
        assert (json.dumps(run_robustness_study(cfg).to_json_dict())
                == json.dumps(run_robustness_study(plain).to_json_dict()))


class TestStudy:
    def test_grid_shape(self, small_report):
        cells = {(c.n, c.n_outliers) for c in small_report.cells}
        assert cells == {(n, k) for n in (10, 50) for k in (0, 1, 2)}
        assert len(small_report.replications) == 2 * 3 * 8

    def test_zero_outlier_cells_have_zero_ignore_error(self, small_report):
        for c in small_report.cells:
            if c.n_outliers == 0:
                assert c.error_ignore_median == 0.0
        for r in small_report.replications:
            if r.n_outliers == 0:
                assert r.error_ignore == 0.0

    def test_error_ignore_identity(self, small_report):
        for r in small_report.replications:
            if r.n_outliers == 0:
                continue
            outliers = SMALL.outlier_values[:r.n_outliers]
            expected = abs((r.n * r.clean_mean + sum(outliers)) / (r.n + r.n_outliers)
                           - r.clean_mean)
            assert r.error_ignore == pytest.approx(expected, rel=1e-12)
            assert r.contaminated_mean == pytest.approx(
                (r.n * r.clean_mean + sum(outliers)) / (r.n + r.n_outliers), rel=1e-12)

    def test_genexp_nll_not_worse_than_exponential(self, small_report):
        for r in small_report.replications:
            assert r.genexp.neg_log_lik <= r.exp.neg_log_lik + 1e-6

    def test_deterministic(self, small_report):
        again = run_robustness_study(SMALL)
        assert again == small_report
        assert again.to_json_dict() == small_report.to_json_dict()

    def test_cell_lookup(self, small_report):
        c = small_report.cell(10, 2)
        assert c.n == 10 and c.n_outliers == 2
        with pytest.raises(KeyError):
            small_report.cell(10, 5)

    def test_exponential_tau_is_contaminated_mean(self, small_report):
        for r in small_report.replications:
            assert r.exp.tau_hat == pytest.approx(r.contaminated_mean, rel=1e-14)

    def test_no_outliers_config(self):
        cfg = ExperimentConfig(sample_sizes=(20,), outlier_values=(), replications=3,
                               base_seed=9)
        rep = run_robustness_study(cfg)
        assert {(c.n, c.n_outliers) for c in rep.cells} == {(20, 0)}
        assert all(r.error_ignore == 0.0 for r in rep.replications)


class TestBatchedFits:
    """The study fits every sample of one n in a batch; no fit may depend on
    which samples share it."""

    def test_replications_do_not_depend_on_how_many_run(self):
        few = run_robustness_study(ExperimentConfig(sample_sizes=(10, 100), replications=3))
        many = run_robustness_study(ExperimentConfig(sample_sizes=(10, 100), replications=7))
        first = [r for r in many.replications if r.replication < 3]
        assert len(few.replications) == len(first) == 18
        assert repr(few.replications) == repr(tuple(first))

    def test_a_batch_that_raises_refits_each_sample_alone(self, monkeypatch):
        # The Lomax kernel raises on the sample of replication 1 with one
        # outlier, whether it is fitted in the batch or alone: only that
        # sample's Lomax fit becomes the unconverged placeholder.
        cfg = ExperimentConfig(sample_sizes=(10,), replications=3, base_seed=4)
        clean = run_robustness_study(cfg)
        marker = make_stream(4, 0, 1).standard_exponential(10)[0]
        kernel = Lomax.nll_hessian_rows.__func__

        def failing(cls, x, lengths, log_tau, theta):
            ends = np.cumsum(lengths)
            if any(n == 11 and x[end - n] == marker for n, end in zip(lengths, ends)):
                raise FloatingPointError("injected")
            return kernel(cls, x, lengths, log_tau, theta)

        monkeypatch.setattr(Lomax, "nll_hessian_rows", classmethod(failing))
        with pytest.warns(UserWarning, match="fit of lomax failed: injected"):
            report = run_robustness_study(cfg)
        for before, after in zip(clean.replications, report.replications):
            if (after.replication, after.n_outliers) == (1, 1):
                assert after.lomax.neg_log_lik == math.inf and not after.lomax.converged
                assert (after.exp, after.genexp) == (before.exp, before.genexp)
            else:
                assert repr(after) == repr(before)

    def test_a_domain_error_propagates(self, monkeypatch):
        def failing(cls, x, lengths, log_tau, theta):
            raise DomainError("injected")

        monkeypatch.setattr(Lomax, "nll_hessian_rows", classmethod(failing))
        with pytest.raises(DomainError, match="injected"):
            run_robustness_study(ExperimentConfig(sample_sizes=(10,), replications=2))


class TestCurves:
    def test_columns_and_length(self):
        rows = emit_curves(1.0, 10.0, 50)
        assert CURVE_COLUMNS == ("x", "exp_pdf", "genexp_pdf", "lomax_pdf")
        assert len(rows) == 50

    def test_values_at_zero_and_one(self):
        rows = emit_curves(1.0, 2.0, 3)
        assert rows[0] == (0.0, 1.0, 1.0, 1.0)
        x, e, g, l = rows[1]
        assert x == 1.0
        assert e == pytest.approx(0.3678794411714423, abs=1e-9)
        assert g == pytest.approx(0.2928932188134525, abs=1e-9)
        assert l == pytest.approx(0.25, abs=1e-12)

    def test_log_scale_tail_slope(self):
        rows = emit_curves(1.0, 1e4, 101, log_scale=True)
        by_x = {row[0]: row for row in rows}
        slope = by_x[1e4][2] - by_x[1e3][2]  # per decade
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_log_scale_clamped(self):
        rows = emit_curves(5.0, 500.0, 40, log_scale=True)
        assert all(np.isfinite(v) for row in rows for v in row)

    def test_validation(self):
        with pytest.raises(DomainError):
            emit_curves(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            emit_curves(1.0, 1.0, 1)


class TestSeedSplitting:
    def test_streams_are_order_independent(self):
        a = make_stream(3, 1, 5).standard_exponential(4)
        make_stream(3, 0, 0).standard_exponential(1000)
        b = make_stream(3, 1, 5).standard_exponential(4)
        assert np.array_equal(a, b)

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            make_stream(-1)
        with pytest.raises(DomainError):
            make_stream(2 ** 64)
        # The spawn key is checked as the seed is: a float, negative or NaN entry raises.
        for key in (1.5, -1, float("nan")):
            with pytest.raises(DomainError):
                make_stream(1, key)
