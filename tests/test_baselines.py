import math
import warnings

import numpy as np
import pytest

from asinhsurv import adaptive_quadrature, make_handle


@pytest.mark.parametrize("family,kw", [
    ("exp", {}),
    ("lomax", dict(nu=0.7)),
    ("lomax", dict(nu=5.0)),
])
def test_pdf_normalises(family, kw):
    h = make_handle(family, **kw)
    res = adaptive_quadrature(h.pdf, 0.0, np.inf, 1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-8)


class TestExponential:
    def test_survival_at_log2(self):
        assert make_handle("exp").survival(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_mean_is_tau(self):
        assert make_handle("exp", tau=3.5).moment(1.0) == pytest.approx(3.5, rel=1e-14)

    def test_moments_all_orders(self):
        h = make_handle("exp")
        assert h.moment(4.0) == pytest.approx(24.0, rel=1e-12)


class TestLomax:
    def test_survival(self):
        assert make_handle("lomax", nu=1.0).survival(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_quantile_closed_form(self):
        assert make_handle("lomax", nu=2.0).quantile(0.75) == pytest.approx(2.0, rel=1e-14)

    def test_mean_against_quadrature(self):
        h = make_handle("lomax", nu=2.0)
        quad = adaptive_quadrature(lambda x: x * h.pdf(x), 0.0, np.inf, 1e-10)
        assert h.moment(1.0) == pytest.approx(2.0, rel=1e-13)
        assert quad.value == pytest.approx(2.0, rel=1e-8)

    def test_log_survival_expansion_near_zero(self):
        # ln S = -x + x^2/(2 nu) - x^3/(3 nu^2) + ...; the quadratic
        # coefficient is captured to the size of the cubic remainder.
        h = make_handle("lomax", nu=1.0)
        xs = np.linspace(0.005, 0.1, 20)
        resid = np.abs(h.log_survival(xs) + xs - xs ** 2 / 2.0)
        assert np.all(resid <= 1.05 * xs ** 3 / 3.0)
        assert np.all(resid[xs <= 0.06] <= 1e-4)

    def test_quadratic_vs_cubic_body_deviation(self):
        # deviation from pure exponentiality is O(x^2) for Lomax but
        # O(x^3) for the arcsinh-generalised exponential
        ge = make_handle("genexp", nu=1.0)
        lo = make_handle("lomax", nu=1.0)
        for x in (0.02, 0.05, 0.1):
            dev_lo = abs(lo.log_survival(x) + x)
            dev_ge = abs(ge.log_survival(x) + x)
            assert dev_ge < 0.4 * x * dev_lo


class TestBurrXII:
    def test_survival_at_zero(self):
        assert make_handle("burr12", nu=1.5, beta=2.0).survival(0.0) == 1.0

    def test_beta1_reduces_to_lomax(self, handle_evaluations):
        xs = np.geomspace(1e-3, 1e3, 40)
        b = make_handle("burr12", nu=2.5, beta=1.0)
        l = make_handle("lomax", nu=2.5)
        assert b.survival(xs) == pytest.approx(l.survival(xs), rel=1e-14)
        assert b.pdf(xs) == pytest.approx(l.pdf(xs), rel=1e-13)
        # Lomax runs the Burr XII kernel at beta = 1, whatever beta it is given.
        for nu in (0.7, 2.5, 10.0):
            expected = handle_evaluations(make_handle("burr12", nu=nu, beta=1.0))
            for beta in (1.0, 3.0):
                got = handle_evaluations(make_handle("lomax", nu=nu, beta=beta))
                for key, value in got.items():
                    np.testing.assert_array_equal(value, expected[key], err_msg=key)
        # Clean limits at x = inf, also where log(beta x^(beta-1)) is infinite.
        for beta in (0.7, 1.0, 1.5):
            for name in ("lomax", "burr12"):
                got = handle_evaluations(make_handle(name, nu=2.5, beta=beta))
                at_inf = [got[m][-1] for m in ("pdf", "log_pdf", "hazard", "cdf", "survival")]
                assert at_inf == [0.0, -np.inf, 0.0, 1.0, 0.0], (name, beta)

    def test_normalisation(self):
        h = make_handle("burr12", nu=1.5, beta=2.0)
        res = adaptive_quadrature(h.pdf, 0.0, np.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_moment_formula(self):
        h = make_handle("burr12", nu=3.0, beta=2.0)
        quad = adaptive_quadrature(lambda x: x * h.pdf(x), 0.0, np.inf, 1e-10)
        assert h.moment(1.0) == pytest.approx(quad.value, rel=1e-8)
        assert h.moment(6.0) is None  # n >= beta nu


class TestCompoundGamma:
    def test_normalisation(self):
        h = make_handle("cgamma", nu=2.5, beta=1.5)
        res = adaptive_quadrature(h.pdf, 0.0, np.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_mean_closed_form_and_quadrature(self):
        # E X = nu beta / (nu - 1); the sample-mean cross-check is useless
        # here because the variance is infinite at nu = 2, so the oracle is
        # quadrature (and the sampler is covered by its KS test).
        h = make_handle("cgamma", nu=2.0, beta=1.0)
        assert h.moment(1.0) == pytest.approx(2.0, rel=1e-13)
        quad = adaptive_quadrature(lambda x: x * h.pdf(x), 0.0, np.inf, 1e-9)
        assert quad.value == pytest.approx(2.0, rel=1e-7)

    def test_cdf_is_beta_ratio(self):
        h = make_handle("cgamma", nu=2.5, beta=1.5)
        xs = np.array([0.1, 1.0, 10.0])
        assert h.cdf(xs) + h.survival(xs) == pytest.approx(np.ones(3), abs=1e-12)

    def test_pdf_at_zero_with_beta_one(self):
        # pdf(0) = 1 / (nu B(nu, 1)) = 1: the shape term (beta - 1) log x is 0, not 0 * -inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_handle("cgamma", nu=2.0, beta=1.0).pdf(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_mode(self):
        assert make_handle("cgamma", nu=3.0, beta=2.0).mode() == pytest.approx(0.75, rel=1e-14)
        assert make_handle("cgamma", nu=3.0, beta=0.9).mode() == 0.0
