import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asinhsurv import (
    DomainError,
    Params,
    UnsupportedOperationError,
    adaptive_quadrature,
    asinh_terms,
    find_max_1d,
    log_survival_series_check,
    make_handle,
    make_stream,
    stable_asinh_scaled,
)

GEN_FAMILIES = [
    ("genexp", dict(nu=1.5)),
    ("genweibull", dict(nu=1.5, beta=2.0)),
    ("gengamma", dict(nu=2.5, beta=1.5)),
    ("genexp2", dict(nu=2.0)),
]
ALL_FAMILIES = GEN_FAMILIES + [
    ("exp", {}),
    ("lomax", dict(nu=2.0)),
    ("burr12", dict(nu=1.5, beta=2.0)),
    ("cgamma", dict(nu=2.5, beta=1.5)),
]


class TestParams:
    def test_defaults(self):
        p = Params(nu=2.0)
        assert (p.beta, p.tau, p.eta) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [dict(nu=0.0), dict(nu=-1.0), dict(nu=float("nan")),
                                     dict(nu=1.0, tau=0.0), dict(nu=1.0, beta=-2.0),
                                     dict(nu=1.0, eta=float("inf"))])
    def test_rejects_invalid(self, bad):
        with pytest.raises(DomainError):
            Params(**bad)


class TestAsinhTerms:
    def test_structure(self):
        t = asinh_terms(1.0, 1.0)
        assert t.c == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert t.s == 1.0
        assert t.r == pytest.approx(1.0 / (math.sqrt(2.0) + 1.0), rel=1e-15)
        assert t.q == pytest.approx(t.r ** 2, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.05, max_value=100.0))
    @settings(max_examples=100)
    def test_invariants(self, z, nu):
        t = asinh_terms(z * nu, nu)
        assert t.c * t.c - t.s * t.s == pytest.approx(1.0, abs=1e-12)
        assert t.q == pytest.approx(t.r * t.r, rel=1e-14)
        assert t.r * (t.c + t.s) == pytest.approx(1.0, rel=1e-14)
        assert 0.0 < t.q <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            asinh_terms(-1.0, 1.0)
        with pytest.raises(DomainError):
            asinh_terms(float("nan"), 1.0)


class TestSurvivalExamples:
    def test_genexp_at_zero(self):
        assert make_handle("genexp", nu=1.0).survival(0.0) == 1.0

    def test_genexp_median_is_three_quarters(self):
        # sinh(ln 2) = 3/4, so the nu=1 survival at 0.75 is one half
        assert make_handle("genexp", nu=1.0).survival(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_gengamma_beta1_reduces_to_genexp_median(self):
        h = make_handle("gengamma", nu=2.0, beta=1.0)
        assert h.survival(2.0 * math.sinh(math.log(2.0) / 2.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.7, 1.0, 3.0, 25.0])
    def test_type2_at_zero(self, nu):
        assert make_handle("genexp2", nu=nu).survival(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_monotone_nonincreasing(self, family, kw):
        h = make_handle(family, **kw)
        xs = np.geomspace(1e-6, 1e6, 300)
        s = h.survival(xs)
        assert np.all(np.diff(s) <= 1e-15)
        assert h.survival(0.0) == pytest.approx(1.0, abs=1e-12)


class TestPdfExamples:
    def test_genexp_nu1_at_one(self):
        expected = 1.0 / ((1.0 + math.sqrt(2.0)) * math.sqrt(2.0))
        assert make_handle("genexp", nu=1.0).pdf(1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 10.0])
    def test_genexp_at_zero_is_one(self, nu):
        assert make_handle("genexp", nu=nu).pdf(0.0) == 1.0

    def test_type2_at_zero(self):
        assert make_handle("genexp2", nu=2.0).pdf(0.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_gengamma_beta1_equals_genexp(self):
        gg = make_handle("gengamma", nu=2.0, beta=1.0)
        ge = make_handle("genexp", nu=2.0)
        assert gg.pdf(1.0) == pytest.approx(ge.pdf(1.0), rel=1e-13)

    def test_negative_x_has_zero_density(self):
        h = make_handle("genexp", nu=1.0)
        assert h.pdf(-0.5) == 0.0
        assert h.survival(-0.5) == 1.0
        assert h.log_pdf(-0.5) == -math.inf

    def test_beta_below_one_unbounded_at_zero(self):
        h = make_handle("genweibull", nu=2.0, beta=0.8)
        assert h.pdf(0.0) == math.inf
        assert h.log_pdf(0.0) == math.inf
        assert make_handle("gengamma", nu=2.0, beta=0.8).pdf(0.0) == math.inf

    def test_log_pdf_far_tail_is_finite(self):
        for family, kw in GEN_FAMILIES:
            h = make_handle(family, **kw)
            lp = h.log_pdf(1e12)
            assert np.isfinite(lp)
            assert lp < -20.0


class TestIncompleteBetaFamilies:
    """gengamma and cgamma: S(x) = I_v(a, beta) for a decreasing v(x)."""

    DENSITY_X = [1e-300, 1e-20, 1e-8, 1e-3, 0.1, 0.7, 1.0, 3.0, 30.0, 1e3, 1e8, 1e20, 1e150,
                 1e300, 1.7e308]
    DENSITY_NU = [0.05, 0.5, 1.5, 5.0, 50.0, 1e3, 1e5]
    DENSITY_BETA = [0.05, 0.3, 1.0, 2.0, 7.0, 100.0]

    @staticmethod
    def _reference_log_pdf(family, x, nu, beta):
        """log f as the Beta(a, beta) density of v(x) times |dv/dx|, at 50 digits."""
        import mpmath
        with mpmath.workdps(50):
            x, nu, beta = mpmath.mpf(x), mpmath.mpf(nu), mpmath.mpf(beta)
            if family == "cgamma":  # v = nu/(x + nu), -dv/dx = v/(x + nu)
                a, log_v = nu, mpmath.log(nu / (x + nu))
                log_w, log_rate = mpmath.log(x / (x + nu)), -mpmath.log(x + nu)
            else:  # v = exp(-2 asinh(x/nu)), -d log v/dx = 2/sqrt(x^2 + nu^2)
                a, log_v = nu / 2, -2 * mpmath.asinh(x / nu)
                log_w = mpmath.log(-mpmath.expm1(log_v))
                log_rate = mpmath.log(2 / mpmath.sqrt(x * x + nu * nu))
            return float(a * log_v + (beta - 1) * log_w + log_rate
                         - mpmath.log(mpmath.beta(a, beta)))

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    def test_log_pdf_matches_mpmath(self, family):
        # Relative where |log f| >= 1, absolute below; from x = 1e-300 to the
        # float maximum, where x/nu overflows at nu < 1.
        xs = np.array(self.DENSITY_X)
        worst = 0.0
        for nu in self.DENSITY_NU:
            for beta in self.DENSITY_BETA:
                want = np.array([self._reference_log_pdf(family, x, nu, beta) for x in xs])
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = make_handle(family, nu=nu, beta=beta).log_pdf(xs)
                err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
                worst = max(worst, float(err.max()))
        assert worst <= 3e-14

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    def test_log_pdf_at_zero_and_infinity(self, family):
        # f(0) is infinite below beta = 1, 0 above it and 1 at it (v = 1 there).
        for nu in self.DENSITY_NU:
            for beta in self.DENSITY_BETA:
                h = make_handle(family, nu=nu, beta=beta)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    at_zero, at_inf = h.log_pdf(np.array([0.0, np.inf]))
                    assert h.log_pdf(np.inf) == -np.inf
                assert at_inf == -np.inf
                if beta < 1.0:
                    assert at_zero == np.inf
                elif beta > 1.0:
                    assert at_zero == -np.inf
                else:
                    assert at_zero == pytest.approx(0.0, abs=3e-14), nu

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    def test_limits_at_infinity(self, family):
        for beta in (1.5, 1.0):
            h = make_handle(family, nu=2.5, beta=beta, tau=2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [h.cdf(np.inf), h.survival(np.inf), h.log_survival(np.inf),
                       h.pdf(np.inf), h.log_pdf(np.inf), h.hazard(np.inf)]
                batched = h.hazard(np.array([1.0, np.inf]))
            assert got == [1.0, 0.0, -np.inf, 0.0, -np.inf, 0.0], beta
            assert batched[0] > 0.0 and batched[1] == 0.0, beta

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    def test_far_tail_power_law(self, family):
        # v underflows at these x, and betainc with it; log S, taken from
        # log v by the far-tail continued fraction, still falls by nu ln 10
        # per decade of x: the tail index.
        h = make_handle(family, nu=2.5, beta=1.5)
        ls = h.log_survival(np.array([1e302, 1e303, 1e306, 1e307]))
        assert np.all(np.isfinite(ls))
        np.testing.assert_allclose(np.diff(ls)[[0, 2]], -2.5 * math.log(10.0), rtol=1e-12)

    # 50-digit mpmath references.  betainc underflows at each x while v is
    # still above 1e-300; at cgamma's 1e8 it is subnormal and 1.3e-3 off.
    @pytest.mark.parametrize("family, x, log_survival", [
        ("gengamma", 1e8, -756.83214941618994),
        ("gengamma", 1e100, -11348.723577188797),
        ("gengamma", 1e300, -34374.574507129254),
        ("cgamma", 1e8, -721.50108678367635),
        ("cgamma", 1e10, -951.75957084779317),
        ("cgamma", 1e100, -11313.392489066097),
        ("cgamma", 1e300, -34339.243419006554),
    ])
    def test_far_tail_matches_mpmath(self, family, x, log_survival):
        h = make_handle(family, nu=50.0, beta=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h.log_survival(x) == pytest.approx(log_survival, rel=1e-13)
            assert x * h.hazard(x) / 50.0 == pytest.approx(1.0, abs=1e-6)

    # S is a normal float at each point, but betainc is far off: 0 at the
    # first (S = 1.3e-243), 17% low at the second (2.6e-254) and 58% high at
    # the third (3.4e-284).  50-digit mpmath references.
    @pytest.mark.parametrize("nu, beta, x, log_survival", [
        (3000.0, 39.0, 790.0, -559.27961760407767),
        (1000.0, 39.0, 1052.0, -583.90867019689746),
        (1000.0, 20.0, 1080.0, -652.70666672461062),
    ])
    def test_far_tail_where_betainc_fails_above_the_float_minimum(self, nu, beta, x,
                                                                  log_survival):
        h = make_handle("cgamma", nu=nu, beta=beta)
        assert h.log_survival(x) == pytest.approx(log_survival, rel=1e-13)

    def test_gengamma_is_cgamma_at_mapped_points(self):
        # q = (C+S)^-2 equals (nu/2)/(y + nu/2) at y = x e^asinh(x/nu), so
        # gengamma(nu, beta) at x is cgamma(nu/2, beta) at y; back, x = y / sqrt(1 + 2y/nu).
        xs = np.geomspace(1e-3, 1e6, 60)
        ps = np.linspace(0.0, 0.999, 40)
        for nu in (0.3, 1.5, 5.0, 50.0):
            y = xs * np.exp(np.arcsinh(xs / nu))
            for beta in (0.5, 1.0, 2.0, 7.0):
                gg = make_handle("gengamma", nu=nu, beta=beta)
                cg = make_handle("cgamma", nu=nu / 2.0, beta=beta)
                for m in ("survival", "cdf"):
                    np.testing.assert_allclose(getattr(gg, m)(xs), getattr(cg, m)(y),
                                               rtol=1e-12, atol=0, err_msg=f"{m} {nu} {beta}")
                yq = cg.quantile(ps)
                np.testing.assert_allclose(gg.quantile(ps), yq / np.sqrt(1.0 + 2.0 * yq / nu),
                                           rtol=1e-12, atol=0, err_msg=f"quantile {nu} {beta}")


class TestHazard:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 4.0])
    def test_genexp_at_zero(self, nu):
        assert make_handle("genexp", nu=nu).hazard(0.0) == 1.0

    def test_genweibull_peak_matches_formula(self):
        h = make_handle("genweibull", nu=1.0, beta=2.0)
        argmax, _ = find_max_1d(lambda x: h.hazard(x), 0.0, 5.0, 1e-9)
        assert argmax == pytest.approx(1.0, abs=1e-7)

    def test_genweibull_tail_relation(self):
        # x h(x) / (beta nu) -> 1 in the tail
        h = make_handle("genweibull", nu=1.0, beta=2.0)
        assert 100.0 * h.hazard(100.0) / 2.0 == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_hazard_equals_pdf_over_survival(self, family, kw):
        h = make_handle(family, **kw)
        xs = np.array([0.1, 1.0, 5.0, 50.0])
        ratio = h.pdf(xs) / h.survival(xs)
        assert h.hazard(xs) == pytest.approx(ratio, rel=1e-10)

    # x^beta = 20^300 overflows; 50-digit mpmath references.  The hazard
    # there is beta x^(beta-1) / z to double precision, = beta nu / x = 45.
    @pytest.mark.parametrize("family, log_pdf, log_survival", [
        ("genweibull", -2691.1359883844971, -2694.9426508742674),
        ("burr12", -2689.0565468428172, -2692.8632093325876),
    ], ids=["genweibull", "burr12"])
    def test_finite_where_x_to_the_beta_overflows(self, family, log_pdf, log_survival):
        h = make_handle(family, nu=3.0, beta=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h.log_pdf(20.0) == pytest.approx(log_pdf, rel=1e-13)
            assert h.log_survival(20.0) == pytest.approx(log_survival, rel=1e-13)
            assert h.hazard(20.0) == pytest.approx(45.0, rel=1e-13)

    def test_genexp2_is_zero_at_infinity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_handle("genexp2", nu=1.5).hazard(np.inf) == 0.0

    def test_genexp2_is_nu_over_x_where_its_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_handle("genexp2", nu=2.5).hazard(1.797e308) == 2.5 / 1.797e308
            assert make_handle("genexp2", nu=0.05).hazard(1e308) == 0.05 / 1e308

    @pytest.mark.parametrize("nu", [0.2, 1.5, 50.0, 1e4])
    def test_genexp2_matches_mpmath(self, nu):
        # pdf / survival from their definitions in r = exp(-asinh(x/nu)), at 40 digits
        import mpmath
        xs = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 121)])

        def reference(x):
            nu_mp = mpmath.mpf(nu)
            r = mpmath.exp(-mpmath.asinh(mpmath.mpf(x) / nu_mp))
            pdf = (nu_mp + 2) / (nu_mp + 1) * r ** (nu_mp + 1)
            survival = (nu_mp * r ** (nu_mp + 2) + (nu_mp + 2) * r ** nu_mp) / (2 * (nu_mp + 1))
            return float(pdf / survival)

        with mpmath.workdps(40):
            expected = np.array([reference(x) for x in xs])
        np.testing.assert_allclose(make_handle("genexp2", nu=nu).hazard(xs), expected,
                                   rtol=1e-15, atol=0.0)


class TestQuantile:
    def test_genexp_median(self):
        assert make_handle("genexp", nu=1.0).quantile(0.5) == pytest.approx(0.75, rel=1e-15)

    def test_genweibull_median_formula(self):
        h = make_handle("genweibull", nu=1.0, beta=2.0)
        assert h.quantile(0.5) == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert h.median() == h.quantile(0.5)

    # genexp2 at nu = 0.2: the bisection in r this replaced returned 4.4e-17
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES + [("genexp2", dict(nu=0.2))])
    def test_p_zero_gives_origin(self, family, kw):
        assert make_handle(family, **kw).quantile(0.0) == 0.0

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_roundtrip(self, family, kw):
        h = make_handle(family, **kw)
        ps = np.array([1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6])
        err = np.abs(h.cdf(h.quantile(ps)) - ps)
        assert np.max(err) < 1e-9

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    @pytest.mark.parametrize("nu", [1.5, 3.0, 8.0, 20.0, 50.0])
    def test_beta_type_roundtrip_dense_grid(self, family, nu):
        ps = np.linspace(0.0, 0.999, 2001)
        for beta in (0.7, 1.5, 3.0):
            h = make_handle(family, nu=nu, beta=beta)
            err = np.abs(h.cdf(h.quantile(ps)) - ps)
            assert np.max(err) <= 1e-9, (family, nu, beta, np.max(err))

    @pytest.mark.parametrize("family", ["gengamma", "cgamma"])
    def test_beta_type_far_upper_tail(self, family):
        # the quantile inverts the survival, so it stays finite and
        # relatively accurate where the cdf has rounded to 1
        h = make_handle(family, nu=0.5, beta=2.0)
        for p in (1.0 - 1e-10, 1.0 - 1e-15):
            x = h.quantile(p)
            assert math.isfinite(x)
            assert h.survival(x) == pytest.approx(1.0 - p, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("nu,beta,x,expected", [
        (0.5, 0.8, 1e-12, 2.1952101929033368e-10),  # 50-digit mpmath references
        (3.0, 2.5, 1e-12, 7.3926807820595264e-31),
        (3.0, 0.8, 1e-6, 1.6196338137639212e-5),
    ])
    def test_gengamma_cdf_near_origin(self, nu, beta, x, expected):
        # 1 - q cancels near x = 0 (relative error up to 3e-4 here); the
        # kernel forms it as -expm1(ln q)
        assert make_handle("gengamma", nu=nu, beta=beta).cdf(x) == pytest.approx(
            expected, rel=1e-14, abs=0.0)

    def test_cgamma_nu50_known_miss(self):
        # the per-point root loop returned a point with cdf 0.98154 here
        h = make_handle("cgamma", nu=50.0, beta=0.7)
        assert h.cdf(h.quantile(0.98855)) == pytest.approx(0.98855, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.2, 1.5, 50.0, 1e4])
    @pytest.mark.parametrize("p", [1e-15, 1e-8])
    def test_genexp2_lower_tail_matches_mpmath(self, nu, p):
        # the root in a = asinh(x/nu) of log S = log(1 - p), at 40 digits
        import mpmath
        with mpmath.workdps(40):
            nu_mp, log_s = mpmath.mpf(nu), mpmath.log(1 - mpmath.mpf(p))

            def f(a):
                survival = (nu_mp * mpmath.exp(-(nu_mp + 2) * a)
                            + (nu_mp + 2) * mpmath.exp(-nu_mp * a)) / (2 * (nu_mp + 1))
                return mpmath.log(survival) - log_s

            a = mpmath.findroot(f, (mpmath.mpf(0), -2 * log_s / nu_mp), solver="anderson")
            expected = float(nu_mp * mpmath.sinh(a))
        assert make_handle("genexp2", nu=nu).quantile(p) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_domain(self):
        h = make_handle("genexp", nu=1.0)
        with pytest.raises(DomainError):
            h.quantile(1.0)
        with pytest.raises(DomainError):
            h.quantile(-0.1)


class TestMoments:
    def test_genexp_mean(self):
        assert make_handle("genexp", nu=2.0).moment(1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_genexp_variance_closed_form(self):
        rep = make_handle("genexp", nu=3.0).moment_report()
        assert rep.variance == pytest.approx(2.334375, rel=1e-12)

    def test_genweibull_beta1_matches_genexp(self):
        assert make_handle("genweibull", nu=2.0, beta=1.0).moment(1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_genweibull_existence(self):
        assert make_handle("genweibull", nu=2.0, beta=1.0).moment(3.0) is None
        assert make_handle("genweibull", nu=2.0, beta=1.0).moment(2.0) is None  # n == beta nu diverges

    def test_gengamma_mean(self):
        assert make_handle("gengamma", nu=4.0, beta=2.0).moment(1.0) == pytest.approx(192.0 / 105.0, rel=1e-12)

    def test_type2_moments(self):
        assert make_handle("genexp2", nu=3.0).moment(2.0) == pytest.approx(18.0 / 7.0, rel=1e-12)
        assert make_handle("genexp2", nu=3.0).moment(1.0) == pytest.approx(0.9375, rel=1e-12)
        assert make_handle("genexp2", nu=3.0).moment(3.0) is None

    def test_thresholds(self):
        assert make_handle("genexp", nu=2.0).moment_report().order_threshold == 2.0
        assert make_handle("genweibull", nu=2.0, beta=3.0).moment_report().order_threshold == 6.0
        assert make_handle("exp").moment_report().order_threshold == math.inf
        # Each of these tails falls as x^-nu, whatever beta is.
        for family in ("genexp2", "gengamma", "cgamma", "lomax"):
            handle = make_handle(family, nu=2.5, beta=3.0)
            assert handle.moment_report().order_threshold == 2.5, family

    @pytest.mark.parametrize("family,kw,n", [
        ("genexp", dict(nu=3.0), 1.0),
        ("genexp", dict(nu=3.0), 2.0),
        ("genweibull", dict(nu=3.0, beta=2.0), 2.5),
        ("gengamma", dict(nu=4.0, beta=2.0), 1.0),
        ("genexp2", dict(nu=3.0), 1.0),
        ("lomax", dict(nu=2.0), 1.0),
        ("burr12", dict(nu=3.0, beta=2.0), 2.0),
        ("cgamma", dict(nu=3.0, beta=1.5), 1.0),
    ])
    def test_closed_form_matches_quadrature(self, family, kw, n):
        h = make_handle(family, **kw)
        closed = h.moment(n)
        quad = adaptive_quadrature(lambda x: x ** n * h.pdf(x), 0.0, np.inf, 1e-10)
        assert closed == pytest.approx(quad.value, rel=1e-8)

    def test_moment_domain(self):
        with pytest.raises(DomainError):
            make_handle("genexp", nu=2.0).moment(0.0)


class TestSkewness:
    def test_identity_with_raw_moments(self):
        nu = 4.0
        h = make_handle("genexp", nu=nu)
        m1, m2, m3 = (h.moment(float(k)) for k in (1, 2, 3))
        var = m2 - m1 ** 2
        assembled = (m3 - 3.0 * m1 * var - m1 ** 3) / var ** 1.5
        assert h.skewness() == pytest.approx(assembled, abs=1e-10)
        assert h.moment_report().skewness == h.skewness()

    def test_undefined_at_three(self):
        assert make_handle("genexp", nu=3.0).skewness() is None

    def test_exponential_limit(self):
        assert make_handle("genexp", nu=1e4).skewness() == pytest.approx(2.0, abs=1e-3)

    def test_other_families_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            make_handle("lomax", nu=3.0).skewness()


class TestMode:
    @pytest.mark.parametrize("nu", [0.7, 1.0, 5.0])
    def test_genexp_zero(self, nu):
        assert make_handle("genexp", nu=nu).mode() == 0.0
        assert make_handle("genexp2", nu=nu).mode() == 0.0

    def test_genweibull_large_nu_limit(self):
        h = make_handle("genweibull", nu=1e6, beta=2.0)
        assert h.mode() == pytest.approx(math.sqrt(0.5), abs=1e-4)

    def test_gengamma_large_nu_limit(self):
        h = make_handle("gengamma", nu=1e6, beta=2.0)
        assert h.mode() == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("family", ["genweibull", "gengamma"])
    @pytest.mark.parametrize("beta", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("nu", [1.0, 2.0, 10.0])
    def test_matches_maximizer(self, family, beta, nu):
        h = make_handle(family, nu=nu, beta=beta)
        mode = h.mode()
        hi = 4.0 * mode + 2.0
        argmax, _ = find_max_1d(lambda x: h.log_pdf(x), 1e-12, hi, 1e-9)
        assert mode == pytest.approx(argmax, abs=1e-6)

    def test_beta_below_one_is_zero(self):
        assert make_handle("genweibull", nu=2.0, beta=0.8).mode() == 0.0
        assert make_handle("gengamma", nu=2.0, beta=0.8).mode() == 0.0


class TestEntropy:
    def test_nu_two_closed_form(self):
        assert make_handle("genexp", nu=2.0).entropy() == pytest.approx(0.5 + math.log(2.0), abs=1e-12)

    def test_exponential_limit(self):
        assert make_handle("genexp", nu=1e6).entropy() == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_matches_quadrature(self, nu):
        h = make_handle("genexp", nu=nu)

        def integrand(x):
            lp = h.log_pdf(x)
            return np.where(np.isfinite(lp), -np.exp(lp) * lp, 0.0)

        quad = adaptive_quadrature(integrand, 0.0, np.inf, 1e-10)
        assert h.entropy() == pytest.approx(quad.value, abs=1e-8)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedOperationError):
            make_handle("genweibull", nu=2.0, beta=2.0).entropy()


class TestSeriesCheck:
    def test_at_zero(self):
        assert log_survival_series_check(0.0, 1.0) == (0.0, 0.0)

    def test_small_x(self):
        exact, series = log_survival_series_check(0.1, 1.0)
        assert abs(exact - series) <= 1e-7

    def test_moderate_x(self):
        exact, series = log_survival_series_check(0.3, 1.0)
        assert abs(exact - series) <= 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            log_survival_series_check(0.8, 1.0)


class TestAnalyticInvariants:
    @pytest.mark.parametrize("family", ["genexp", "genexp2"])
    @pytest.mark.parametrize("nu", [0.7, 1.0, 2.0, 5.0, 20.0])
    def test_normalisation_exp_like(self, family, nu):
        h = make_handle(family, nu=nu)
        res = adaptive_quadrature(h.pdf, 0.0, np.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("family", ["genweibull", "gengamma"])
    @pytest.mark.parametrize("nu", [0.7, 2.0, 20.0])
    @pytest.mark.parametrize("beta", [0.8, 1.0, 2.0, 5.0])
    def test_normalisation_shape_families(self, family, nu, beta):
        h = make_handle(family, nu=nu, beta=beta)
        res = adaptive_quadrature(h.pdf, 0.0, np.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_pdf_is_minus_survival_derivative(self, family, kw):
        h = make_handle(family, **kw)
        for x in (0.1, 1.0, 5.0, 50.0):
            step = 6e-6 * max(x, 1.0)
            fd = (h.survival(x - step) - h.survival(x + step)) / (2.0 * step)
            assert fd == pytest.approx(h.pdf(x), rel=1e-6)

    def test_genexp_tail_index(self):
        # -ln S(x) ~ nu ln(2x/nu); the plain -ln S / ln x ratio converges
        # only logarithmically and matches nu to 1% at x = 1e8 nu just for
        # nu near 2, where ln(2/nu) vanishes.
        for nu in (0.7, 1.0, 2.0, 5.0, 20.0):
            x = 1e8 * nu
            h = make_handle("genexp", nu=nu)
            assert -h.log_survival(x) / (nu * math.log(2.0 * x / nu)) == pytest.approx(1.0, abs=1e-3)
        x = 2e8
        h = make_handle("genexp", nu=2.0)
        assert -h.log_survival(x) / math.log(x) == pytest.approx(2.0, rel=0.01)

    def test_exponential_limit_uniform(self):
        xs = np.linspace(0.0, 20.0, 400)
        ge = make_handle("genexp", nu=1e8)
        assert np.max(np.abs(ge.pdf(xs) - np.exp(-xs))) < 1e-6
        for beta in (1.0, 2.0):
            gw = make_handle("genweibull", nu=1e8, beta=beta)
            weibull = beta * xs ** (beta - 1.0) * np.exp(-xs ** beta) if beta != 1.0 else np.exp(-xs)
            assert np.max(np.abs(gw.pdf(xs[1:]) - weibull[1:])) < 1e-6
            gg = make_handle("gengamma", nu=1e8, beta=beta)
            gamma_pdf = xs ** (beta - 1.0) * np.exp(-xs) / math.gamma(beta)
            assert np.max(np.abs(gg.pdf(xs[1:]) - gamma_pdf[1:])) < 1e-6

    @pytest.mark.parametrize("family, beta_one", [
        pytest.param("genweibull", "genexp", id="genweibull"),
        pytest.param("gengamma", "genexp", id="gengamma"),
        pytest.param("cgamma", "lomax", id="cgamma"),
    ])
    def test_beta_one_reduction_pointwise(self, family, beta_one, handle_evaluations):
        # x = 0, the body, a far point and inf; p from 0 to 1 - 1e-9.
        for nu in (0.7, 2.0, 2.5, 10.0):
            got = handle_evaluations(make_handle(family, nu=nu, beta=1.0))
            expected = handle_evaluations(make_handle(beta_one, nu=nu))
            for key in ("pdf", "cdf", "survival", "hazard", "quantile"):
                assert got[key] == pytest.approx(expected[key], rel=1e-12, abs=1e-300), (key, nu)
            ps = np.array([0.999, 1.0 - 1e-9])
            assert (make_handle(family, nu=nu, beta=1.0).quantile(ps)
                    == pytest.approx(make_handle(beta_one, nu=nu).quantile(ps), rel=1e-12)), nu
        if family != "genweibull":
            return
        # genexp runs the genweibull kernel at beta = 1, whatever beta it is given.
        for nu in (0.7, 2.0, 10.0):
            expected = handle_evaluations(make_handle("genweibull", nu=nu, beta=1.0))
            for beta in (1.0, 3.0):
                got = handle_evaluations(make_handle("genexp", nu=nu, beta=beta))
                for key in ("variance", "skewness"):  # genexp's own closed forms
                    assert got.pop(key) == pytest.approx(expected[key], rel=1e-13, nan_ok=True)
                for key, value in got.items():
                    np.testing.assert_array_equal(value, expected[key], err_msg=key)
        # Clean limits at x = inf, also where log(beta x^(beta-1)) is infinite.
        for beta in (0.7, 1.0, 1.5):
            for name in ("genexp", "genweibull"):
                got = handle_evaluations(make_handle(name, nu=2.0, beta=beta))
                at_inf = [got[m][-1] for m in ("pdf", "log_pdf", "hazard", "cdf", "survival")]
                assert at_inf == [0.0, -np.inf, 0.0, 1.0, 0.0], (name, beta)

    def test_body_closer_to_exponential_than_lomax(self):
        ge = make_handle("genexp", nu=1.0)
        lo = make_handle("lomax", nu=1.0)
        d_ge = adaptive_quadrature(lambda x: np.abs(ge.pdf(x) - np.exp(-x)), 0.0, 1.0, 1e-9)
        d_lo = adaptive_quadrature(lambda x: np.abs(lo.pdf(x) - np.exp(-x)), 0.0, 1.0, 1e-9)
        assert d_ge.value < d_lo.value


class TestGenWeibullReferenceVectors:
    """Cross-check against the straightforward textbook formulas, coded
    independently of the library's log-space implementation."""

    XS = np.array([0.05, 0.3, 1.0, 2.7, 9.0])
    CASES = [(1.0, 0.5), (2.0, 1.0), (1.5, 3.0), (0.8, 2.0)]

    @pytest.mark.parametrize("beta,nu", CASES)
    def test_cdf(self, beta, nu):
        h = make_handle("genweibull", nu=nu, beta=beta)
        ref = 1.0 - np.exp(-nu * np.arcsinh(self.XS ** beta / nu))
        assert h.cdf(self.XS) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("beta,nu", CASES)
    def test_pdf(self, beta, nu):
        h = make_handle("genweibull", nu=nu, beta=beta)
        xb = self.XS ** beta / nu
        ref = beta * self.XS ** (beta - 1.0) * np.exp(-nu * np.arcsinh(xb)) / np.sqrt(1.0 + xb ** 2)
        assert h.pdf(self.XS) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("beta,nu", CASES)
    def test_quantile(self, beta, nu):
        h = make_handle("genweibull", nu=nu, beta=beta)
        ps = np.array([0.05, 0.25, 0.5, 0.9, 0.99])
        ref = (nu * np.sinh(-np.log(1.0 - ps) / nu)) ** (1.0 / beta)
        assert h.quantile(ps) == pytest.approx(ref, rel=1e-13)

    def test_sampler_matches_inverse_transform(self):
        beta, nu = 2.0, 3.0
        h = make_handle("genweibull", nu=nu, beta=beta)
        draws = h.sample(5, make_stream(77))
        u = make_stream(77).standard_exponential(5)
        ref = (nu * np.sinh(u / nu)) ** (1.0 / beta)
        assert draws == pytest.approx(ref, rel=1e-13)


class TestLocationScale:
    def test_survival_wraps_exactly(self):
        std = make_handle("genexp", nu=1.5)
        wrapped = make_handle("genexp", nu=1.5, tau=2.5, eta=1.0)
        xs = np.array([1.0, 1.5, 2.0, 5.0, 40.0])
        assert np.all(wrapped.survival(xs) == std.survival((xs - 1.0) / 2.5))
        assert wrapped.pdf(xs) == pytest.approx(std.pdf((xs - 1.0) / 2.5) / 2.5, rel=1e-14)

    def test_below_location(self):
        wrapped = make_handle("genexp", nu=1.5, tau=2.0, eta=1.0)
        assert wrapped.survival(0.5) == 1.0
        assert wrapped.pdf(0.5) == 0.0
        assert wrapped.hazard(0.5) == 0.0

    def test_moments_shift_and_scale(self):
        std = make_handle("genexp", nu=3.0)
        wrapped = make_handle("genexp", nu=3.0, tau=2.0, eta=0.5)
        assert wrapped.moment_report().mean == pytest.approx(0.5 + 2.0 * std.moment(1.0), rel=1e-14)
        assert wrapped.moment_report().variance == pytest.approx(4.0 * std.moment_report().variance, rel=1e-14)
        assert wrapped.moment(2.0) == pytest.approx(
            0.25 + 2.0 * 0.5 * 2.0 * std.moment(1.0) + 4.0 * std.moment(2.0), rel=1e-13)

    def test_quantile_and_mode_wrap(self):
        std = make_handle("genweibull", nu=2.0, beta=3.0)
        wrapped = make_handle("genweibull", nu=2.0, beta=3.0, tau=3.0, eta=1.5)
        assert wrapped.quantile(0.3) == pytest.approx(1.5 + 3.0 * std.quantile(0.3), rel=1e-14)
        assert wrapped.mode() == pytest.approx(1.5 + 3.0 * std.mode(), rel=1e-14)

    def test_entropy_scale_shift(self):
        std = make_handle("genexp", nu=2.0)
        assert make_handle("genexp", nu=2.0, tau=3.0).entropy() == pytest.approx(
            std.entropy() + math.log(3.0), rel=1e-13)

    def test_fractional_moment_with_location_rejected(self):
        with pytest.raises(DomainError):
            make_handle("genexp", nu=5.0, eta=1.0).moment(1.5)

    def test_sample_support(self):
        h = make_handle("genexp", nu=2.0, tau=2.0, eta=3.0)
        x = h.sample(1000, make_stream(4))
        assert np.all(x >= 3.0)
