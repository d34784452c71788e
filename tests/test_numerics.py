import math
import warnings

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from asinhsurv import (
    ConvergenceError,
    DomainError,
    adaptive_quadrature,
    beta_fn,
    digamma,
    find_max_1d,
    find_root_1d,
    log_gamma,
    reg_inc_beta,
    stable_asinh_scaled,
)
from asinhsurv.numerics import (_log_inc_beta_far, _near_one_from_complement, _psi_remainder,
                                _psi_remainder_slopes, log_beta, reg_inc_beta_inv, trigamma)

EULER_GAMMA = 0.5772156649015328606


def _beta_integral(x, a, b):
    """int_0^x t^(a-1) (1-t)^(b-1) dt by quadrature, for b >= 1.

    t = s^(1/a) removes the t = 0 singularity when a < 1."""
    g = lambda s: (1.0 - s ** (1.0 / a)) ** (b - 1.0) / a
    return adaptive_quadrature(g, 0.0, x ** a, 1e-13).value


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_against_scipy_wide_range(self):
        grid = np.geomspace(1e-6, 1e6, 400)
        ours = log_gamma(grid)
        ref = sc.gammaln(grid)
        rel = np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(rel) < 1e-13

    @given(st.floats(min_value=0.05, max_value=500.0))
    def test_recurrence(self, a):
        assert log_gamma(a + 1.0) == pytest.approx(log_gamma(a) + math.log(a), rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)
        with pytest.raises(DomainError):
            log_gamma(float("nan"))


class TestBetaFn:
    def test_known_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert beta_fn(1.5, 3.0) == pytest.approx(16.0 / 105.0, rel=1e-13)

    def test_matches_quadrature(self):
        quad = adaptive_quadrature(lambda t: t ** 0.5 * (1.0 - t) ** 2, 0.0, 1.0, 1e-12)
        assert beta_fn(1.5, 3.0) == pytest.approx(quad.value, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(0.7, 2.0), (0.5, 2.5), (10.0, 3.0), (4.0, 8.0)])
    def test_matches_quadrature_grid(self, a, b):
        assert beta_fn(a, b) == pytest.approx(_beta_integral(1.0, a, b), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestLogBeta:
    def test_known_values(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_beta(1.5, 3.0) == pytest.approx(math.log(16.0 / 105.0), rel=1e-13)

    def test_array_and_scalar_contract(self):
        assert isinstance(log_beta(2.0, 3.0), float)
        vals = log_beta(np.array([1.0, 2.0]), 2.0)
        assert vals == pytest.approx([math.log(0.5), math.log(1.0 / 6.0)], rel=1e-13)

    def test_matches_mpmath(self):
        # Up to the fitter's nu cap 1e6 in either argument; scipy's betaln is
        # off by up to 2.6e-9 once the larger shape passes 100.
        import mpmath
        a, b = np.meshgrid(np.geomspace(1e-3, 1e6, 46), np.geomspace(0.05, 1100.0, 23))
        a, b = np.concatenate([a.ravel(), b.ravel()]), np.concatenate([b.ravel(), a.ravel()])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.beta(p, q))) for p, q in zip(a, b)])
        scalars = np.array([log_beta(p, q) for p, q in zip(a.tolist(), b.tolist())])
        assert np.array_equal(log_beta(a, b), scalars)
        err = np.abs(scalars - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 5e-14, (a[np.argmax(err)], b[np.argmax(err)])

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (2.0, -0.5),
                                     (float("nan"), 1.0), (1.0, float("nan")),
                                     (np.array([1.0, -1.0]), 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            log_beta(a, b)


class TestPsiRemainder:
    def test_matches_mpmath(self):
        # R(a, b) = b/a - (psi(a + b) - psi(a)) is about b (b - 1)/(2 a^2): its
        # error is measured on the scale b (b + 1)/a^2, where the two psi values
        # alone would leave eps psi(a) a^2 of it.
        import mpmath
        a, b = np.meshgrid(np.geomspace(1e-3, 1e6, 46), np.geomspace(0.05, 1100.0, 23))
        a = np.concatenate([a.ravel(), [50.0, 99.9, 100.0, 1e4]])
        b = np.concatenate([b.ravel(), [1.0 - 1e-9, 1.0 + 1e-6, 2.0, 0.999]])
        with mpmath.workdps(50):
            ref = np.array([float(q / p - (mpmath.digamma(p + q) - mpmath.digamma(p)))
                            for p, q in zip(map(mpmath.mpf, a), map(mpmath.mpf, b))])
        got = np.array([_psi_remainder(p, q) for p, q in zip(a.tolist(), b.tolist())])
        err = np.abs(got - ref) / (b * (b + 1.0) / (a * a))
        assert np.max(err) <= 1e-15, (a[np.argmax(err)], b[np.argmax(err)])

    def test_is_zero_at_b_one(self):
        assert all(_psi_remainder(a, 1.0) == 0.0 for a in (1e-3, 0.75, 99.5, 100.0, 1e6))

    def test_slopes_match_mpmath(self):
        # 2R + a dR/da = b/a - 2 (psi(a + b) - psi(a)) - a (psi'(a + b) - psi'(a))
        # is about b (b - 1)(2b - 1)/(6 a^3), and its error is measured on the
        # scale b (b + 1)(2b + 1)/a^3; dR/db = 1/a - psi'(a + b), about
        # (b - 1/2)/a^2, on the scale (b + 1)/a^2.  Both over R's own box.
        import mpmath
        a, b = np.meshgrid(np.geomspace(1e-3, 1e6, 46), np.geomspace(0.05, 1100.0, 23))
        a = np.concatenate([a.ravel(), [50.0, 99.9, 100.0, 1e4, 0.5, 99.0, 1e6]])
        b = np.concatenate([b.ravel(), [1.0 - 1e-9, 1.0 + 1e-6, 2.0, 0.999, 0.5, 0.5, 0.5]])
        with mpmath.workdps(50):
            ref = np.array([[float(q / p - 2 * (mpmath.digamma(p + q) - mpmath.digamma(p))
                                   - p * (mpmath.psi(1, p + q) - mpmath.psi(1, p))),
                             float(1 / p - mpmath.psi(1, p + q))]
                            for p, q in zip(map(mpmath.mpf, a), map(mpmath.mpf, b))])
        got = np.array([_psi_remainder_slopes(p, q) for p, q in zip(a.tolist(), b.tolist())])
        err = np.abs(got - ref) / np.stack([b * (b + 1.0) * (2.0 * b + 1.0) / a ** 3,
                                            (b + 1.0) / (a * a)], axis=1)
        assert np.max(err[:, 0]) <= 5e-15, (a[np.argmax(err[:, 0])], b[np.argmax(err[:, 0])])
        assert np.max(err[:, 1]) <= 1e-15, (a[np.argmax(err[:, 1])], b[np.argmax(err[:, 1])])

    def test_slope_in_a_is_zero_at_b_one(self):
        assert all(_psi_remainder_slopes(a, 1.0)[0] == 0.0 for a in (1e-3, 0.75, 99.5, 100.0, 1e6))


class TestRegIncBeta:
    def test_endpoints(self):
        for a, b in [(0.5, 0.5), (1.0, 3.0), (4.2, 0.7)]:
            assert reg_inc_beta(0.0, a, b) == 0.0
            assert reg_inc_beta(1.0, a, b) == 1.0

    def test_known_values(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert reg_inc_beta(0.25, 2.0, 1.0) == pytest.approx(0.0625, abs=1e-14)

    def test_symmetry_identity(self):
        xs = np.arange(0.1, 0.95, 0.1)
        for a in (0.5, 1.0, 2.0, 5.0):
            for b in (0.5, 1.0, 2.0, 5.0):
                left = reg_inc_beta(xs, a, b) + reg_inc_beta(1.0 - xs, b, a)
                assert np.max(np.abs(left - 1.0)) < 1e-12

    @given(st.floats(min_value=0.3, max_value=20.0),
           st.floats(min_value=0.3, max_value=20.0),
           st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=60)
    def test_symmetry_property(self, a, b, x):
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        for a, b in [(0.7, 2.0), (3.0, 0.5), (5.0, 5.0)]:
            vals = reg_inc_beta(xs, a, b)
            assert np.all(np.diff(vals) >= -1e-15)

    def test_against_scipy(self):
        xs = np.linspace(0.001, 0.999, 97)
        for a in (0.5, 1.0, 2.5, 10.0, 17.3):
            for b in (0.5, 1.0, 3.0, 8.0):
                err = np.abs(reg_inc_beta(xs, a, b) - sc.betainc(a, b, xs))
                assert np.max(err) < 1e-12

    @pytest.mark.parametrize("x,a,b", [(0.3, 0.7, 2.0), (0.2, 0.5, 2.5), (0.05, 10.0, 3.0),
                                       (0.6, 4.0, 8.0), (0.999, 1.5, 1.5), (0.07, 0.7, 50.0)])
    def test_against_quadrature(self, x, a, b):
        # scipy-free oracle: both integrals of the beta kernel by Gauss-Kronrod
        ratio = _beta_integral(x, a, b) / _beta_integral(1.0, a, b)
        assert reg_inc_beta(x, a, b) == pytest.approx(ratio, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(2.0, 0.5), (20.0, 0.01)])
    def test_complement_keeps_the_upper_tail(self, a, b):
        # x = 1 - 1e-20 rounds to 1; 1 - x still carries the tail
        expected = 1.0 - reg_inc_beta(1e-20, b, a)
        xs = np.array([1.0, 0.3, 0.9])
        values = reg_inc_beta(xs, a, b)
        assert values[0] == 1.0
        fixed = _near_one_from_complement(values, np.array([1e-20, 0.7, 0.1]), a, b)
        assert fixed[0] == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(fixed[1:], values[1:])

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)


def _log_inc_beta_reference(log_x, a, b):
    """log I_x(a, b) by DLMF 8.17.8: x^a (1-x)^b / (a B(a, b)) times
    2F1(a + b, 1; a + 1; x), a series of positive terms, summed at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        a, b, log_x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(log_x)
        x = mpmath.exp(log_x)
        total = term = mpmath.mpf(1)
        n = 0
        while True:
            ratio = x * (a + b + n) / (a + 1 + n)
            term *= ratio
            total += term
            n += 1
            if ratio < 1 and term < mpmath.mpf(10) ** -36 * total * (1 - ratio):
                break
        return float(a * log_x + b * mpmath.log(-mpmath.expm1(log_x)) - mpmath.log(a)
                     - mpmath.log(mpmath.beta(a, b)) + mpmath.log(total))


class TestIncompleteBetaFarTail:
    """``_log_inc_beta_far``: log I_x(a, b) from log x where betainc underflows."""

    @staticmethod
    def _far_point(log_i, a, b):
        """The log x at which the leading term x^a / (a B(a, b)) is exp(log_i)."""
        return (log_i + math.log(a) + log_beta(a, b)) / a

    def test_matches_mpmath(self):
        # At the kernels' switch I = 1e-200 and below it, past I = 1e-290;
        # for a < 1 the argument x itself underflows.  beta = 39 is where
        # betainc fails first.
        worst = 0.0
        for a in (1e-3, 0.05, 1.0, 2.5, 25.0, 500.0, 2.5e4):
            for b in (0.05, 0.5, 2.0, 39.0, 1100.0):
                for log_i in (-461.0, -700.0, -1e4):
                    log_x = self._far_point(log_i, a, b)
                    expected = _log_inc_beta_reference(log_x, a, b)
                    got = float(_log_inc_beta_far(log_x, a, b))
                    worst = max(worst, abs(got - expected) / abs(expected))
        assert worst <= 1e-13

    # a >= 2e5, where the reference series needs up to 9e4 terms: log x at
    # the leading term's log I = -461 and -700, and the 40-digit reference.
    @pytest.mark.parametrize("a, b, log_x, expected", [
        (2e5, 0.05, -0.0022321767583347225, -455.2015193830462),
        (2e5, 0.05, -0.0034271767583347224, -694.6075356595558),
        (2e5, 2.0, -0.0023660303882275884, -467.0456159415707),
        (2e5, 2.0, -0.0035610303882275883, -705.6380847267568),
        (2e5, 39.0, -0.00410933133338959, -669.8216808340754),
        (2e5, 39.0, -0.00530433133338959, -899.1551946271223),
        (2e5, 1100.0, -0.03638850539055667, -4122.313455466702),
        (2e5, 1100.0, -0.037583505390556673, -4326.460429555406),
        (5e5, 0.05, -0.0008911297510858282, -454.32983141731364),
        (5e5, 0.05, -0.0013691297510858283, -693.7368325929864),
        (5e5, 2.0, -0.0009482447307548046, -467.9592660820705),
        (5e5, 2.0, -0.0014262447307548044, -706.5520230884377),
        (5e5, 39.0, -0.0017133661833776282, -703.0204965850651),
        (5e5, 39.0, -0.0021913661833776283, -932.6891482212213),
        (5e5, 1100.0, -0.016565791760780345, -4976.305845884229),
        (5e5, 1100.0, -0.017043791760780348, -5184.3096872139195),
    ])
    def test_matches_mpmath_at_large_a(self, a, b, log_x, expected):
        assert float(_log_inc_beta_far(log_x, a, b)) == pytest.approx(expected, rel=1e-13)

    def test_is_minus_inf_at_zero_and_vectorized(self):
        log_x = np.array([-np.inf, -800.0, -1e5])
        got = _log_inc_beta_far(log_x, 2.5, 1.5)
        assert got[0] == -np.inf
        assert got[1:].tolist() == [float(_log_inc_beta_far(v, 2.5, 1.5)) for v in log_x[1:]]

    def test_raises_where_the_fraction_does_not_settle(self):
        # x = 0.99 lies far above the mean 1/1101: no far tail there.
        with pytest.raises(ConvergenceError):
            _log_inc_beta_far(math.log(0.99), 1.0, 1100.0)


class TestRegIncBetaInv:
    def test_endpoints(self):
        assert reg_inc_beta_inv(0.0, 0.7, 50.0) == 0.0
        assert reg_inc_beta_inv(1.0, 0.7, 50.0) == 1.0

    @pytest.mark.parametrize("a,b", [(0.7, 50.0), (25.0, 0.7), (1.5, 1.5), (0.5, 8.0)])
    def test_inverts_reg_inc_beta(self, a, b):
        ps = np.linspace(0.0, 0.999, 200)
        assert reg_inc_beta(reg_inc_beta_inv(ps, a, b), a, b) == pytest.approx(ps, abs=1e-12)

    def test_matches_root_finder(self):
        root = find_root_1d(lambda t: reg_inc_beta(t, 0.7, 50.0) - 0.98855,
                            0.0, 1.0 - 1e-16, 1e-15)
        assert reg_inc_beta_inv(0.98855, 0.7, 50.0) == pytest.approx(root, rel=1e-12)

    def test_domain(self):
        for p, a, b in [(-0.1, 1.0, 1.0), (1.1, 1.0, 1.0), (float("nan"), 1.0, 1.0),
                        (0.5, 0.0, 1.0), (0.5, 1.0, float("nan"))]:
            with pytest.raises(DomainError):
                reg_inc_beta_inv(p, a, b)


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_recurrence_grid(self):
        grid = np.geomspace(0.1, 100.0, 300)
        err = np.abs(digamma(grid + 1.0) - digamma(grid) - 1.0 / grid)
        assert np.max(err) < 1e-12

    def test_against_scipy(self):
        grid = np.geomspace(0.1, 1000.0, 200)
        assert np.max(np.abs(digamma(grid) - sc.digamma(grid))) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(float("nan"))


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)

    def test_domain(self):
        for a in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                trigamma(a)


_SHAPES = [0.3, 1.0, 2.5, 40.0, 99.0]


@pytest.mark.parametrize("a", _SHAPES)
def test_deferred_wrappers_are_the_scipy_functions(a):
    # Each wrapper imports its scipy.special function when called and returns
    # that function's value to the bit, on scalars and on arrays; both shapes
    # below 100 take log_beta's betaln branch.
    shapes = np.array(_SHAPES)
    x = np.array([0.0, 1e-6, 0.3, 0.7, 1.0])
    assert log_gamma(a) == sc.gammaln(a)
    assert digamma(a) == sc.psi(a)
    assert trigamma(a) == sc.polygamma(1, a)
    np.testing.assert_array_equal(trigamma(shapes), sc.polygamma(1, shapes))
    np.testing.assert_array_equal(log_gamma(shapes), sc.gammaln(shapes))
    for b in _SHAPES:
        assert log_beta(a, b) == sc.betaln(a, b)
        assert beta_fn(a, b) == sc.beta(a, b)
        np.testing.assert_array_equal(reg_inc_beta(x, a, b), sc.betainc(a, b, x))
        np.testing.assert_array_equal(reg_inc_beta_inv(x, a, b), sc.betaincinv(a, b, x))


class TestStableAsinhScaled:
    def test_known_values(self):
        assert stable_asinh_scaled(0.0, 2.0) == 0.0
        assert stable_asinh_scaled(1.0, 1.0) == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-15)

    def test_large_nu_small_x(self):
        # series: nu asinh(x/nu) = x - x^3/(6 nu^2) + ...
        val = stable_asinh_scaled(1e-8, 1e10)
        assert val == pytest.approx(1e-8, rel=1e-10)

    def test_extreme_ranges_no_overflow(self):
        assert np.isfinite(stable_asinh_scaled(1e15, 1.0))
        assert np.isfinite(stable_asinh_scaled(1e12, 1e12))
        assert stable_asinh_scaled(1e15, 1.0) == pytest.approx(math.log(2e15), rel=1e-12)

    @pytest.mark.parametrize("x, expected", [(1e308, 35.644254404814002),
                                             (1.7976931348623157e308, 35.673579617374899)])
    def test_finite_where_x_over_nu_overflows(self, x, expected):
        # 40-digit mpmath values of 0.05 asinh(x/0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert stable_asinh_scaled(x, 0.05) == pytest.approx(expected, rel=1e-14)

    def test_monotone(self):
        xs = np.geomspace(1e-6, 1e6, 200)
        vals = stable_asinh_scaled(xs, 3.7)
        assert np.all(np.diff(vals) > 0)

    @given(st.floats(min_value=1e-5, max_value=0.1),
           st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=80)
    def test_series_error_bound(self, z, nu):
        # for x/nu <= 0.1 the deviation from x is within 1.01 * x^3/(6 nu^2)
        x = z * nu
        diff = abs(stable_asinh_scaled(x, nu) - x)
        assert diff <= 1.01 * x ** 3 / (6.0 * nu * nu) + 4e-16 * x

    def test_domain(self):
        with pytest.raises(DomainError):
            stable_asinh_scaled(-1.0, 1.0)
        with pytest.raises(DomainError):
            stable_asinh_scaled(1.0, 0.0)
        with pytest.raises(DomainError):
            stable_asinh_scaled(float("nan"), 1.0)


class TestAdaptiveQuadrature:
    def test_exponential_tail(self):
        res = adaptive_quadrature(lambda x: np.exp(-x), 0.0, np.inf, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.evaluations >= 1
        assert res.abs_error_estimate >= 0.0

    def test_finite_beta_integral(self):
        res = adaptive_quadrature(lambda t: t ** 0.5 * (1.0 - t) ** 2, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(16.0 / 105.0, abs=1e-12)

    def test_heavy_tail_density_normalises(self):
        # pdf of the generalised exponential with nu = 2
        def f(x):
            c = np.sqrt(1.0 + (x / 2.0) ** 2)
            return (c + x / 2.0) ** -2.0 / c

        res = adaptive_quadrature(f, 0.0, np.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(ConvergenceError) as err:
            adaptive_quadrature(lambda x: np.abs(np.sin(1.0 / (x + 1e-9))), 0.0, 1.0,
                                1e-14, max_evals=600)
        assert err.value.partial is not None
        assert err.value.partial.evaluations <= 600

    def test_rejects_nan_integrand(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, -1e-8)


class TestFindMax1D:
    def test_parabola(self):
        argmax, val = find_max_1d(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 1e-9)
        assert argmax == pytest.approx(2.0, abs=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_hazard_peak_location(self):
        # generalised Weibull hazard with beta=2, nu=1 peaks at x=1
        def h(x):
            return 2.0 * x / math.sqrt(1.0 + x ** 4)

        argmax, _ = find_max_1d(h, 0.0, 5.0, 1e-9)
        assert argmax == pytest.approx(1.0, abs=1e-7)

    def test_rejection_envelope_peak(self):
        g = lambda x: (1.0 + x) / math.sqrt(1.0 + x * x)
        argmax, val = find_max_1d(g, 0.0, 10.0, 1e-10)
        assert argmax == pytest.approx(1.0, abs=1e-7)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_max_1d(lambda x: x, 1.0, 1.0, 1e-8)


class TestFindRoot1D:
    def test_sqrt_two(self):
        root = find_root_1d(lambda x: x * x - 2.0, 0.0, 2.0, 1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_type2_survival_at_zero(self):
        nu, p = 2.0, 0.0
        f = lambda q: nu * q ** (nu + 2.0) + (nu + 2.0) * q ** nu - 2.0 * (nu + 1.0) * (1.0 - p)
        root = find_root_1d(f, 1e-12, 1.0, 1e-13)
        assert root == pytest.approx(1.0, abs=1e-10)

    def test_generalised_gamma_median_via_beta(self):
        # beta=1 reduces to the generalised exponential, whose nu=2 median
        # is 2 sinh(ln2 / 2) = 1/sqrt(2)
        nu = 2.0

        def f(x):
            c = math.sqrt(1.0 + (x / nu) ** 2)
            q = (c + x / nu) ** -2.0
            return reg_inc_beta(q, nu / 2.0, 1.0) - 0.5

        root = find_root_1d(f, 0.0, 10.0, 1e-13)
        assert root == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(DomainError):
            find_root_1d(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_false_position_stall_case(self):
        # plain false position kept one end fixed here and ran out of steps
        f = lambda t: reg_inc_beta(t, 0.7, 50.0) - 0.98855
        root = find_root_1d(f, 0.0, 1.0 - 1e-16, 1e-15)
        assert abs(f(root)) <= 1e-15

    def test_exhausted_budget_raises_with_partial(self):
        # a step function has no |f| <= tol point, and tol is below the
        # float spacing at 0.3, so the bracket can never close
        step = lambda x: 1.0 if x > 0.3 else -1.0
        with pytest.raises(ConvergenceError) as err:
            find_root_1d(step, 0.0, 1.0, 1e-300)
        assert err.value.partial == pytest.approx(0.3, abs=1e-15)
