"""Property tests of the evaluation contract over wide parameter ranges.

For every family, at any (nu, beta, tau, eta) and any x from 0 up to
1e300: the cdf and the survival are probabilities, they add up to one,
and the cdf never decreases.  log_pdf, log_survival and hazard stay finite
without a warning for x from 1e-300 up to the float maximum, and the hazard
is pdf/survival.  The cdf inverts the quantile, wherever the quantile is
finite, for p from 0 up to 1 - 1e-12, and a quantile or a draw past the
float range is inf without a warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asinhsurv import Family, make_handle, make_stream

_POINTS = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=0.0, max_value=1e300),
              st.floats(min_value=-30.0, max_value=300.0).map(lambda e: 10.0 ** e)),
    min_size=1, max_size=30)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@given(nu=st.floats(min_value=0.01, max_value=1000.0),
       beta=st.floats(min_value=0.05, max_value=20.0),
       tau=st.floats(min_value=1e-3, max_value=1e3),
       eta=st.floats(min_value=0.0, max_value=100.0),
       points=_POINTS)
# genexp2's cdf once rounded to 1 + 2^-52 here; gengamma and cgamma lost
# one tail to an incomplete-beta argument rounded to 1.
@example(nu=0.2, beta=1.0, tau=1.0, eta=0.0, points=[1e3, 1e200, 1e300])
@example(nu=0.0473, beta=14.15, tau=1.0, eta=0.0, points=[1e-20, 4.45e6, 1e160])
@example(nu=0.449, beta=0.13, tau=1.0, eta=0.0, points=[2.35e-17, 1e-3, 1e24])
# The incomplete-beta argument underflows here while the survival is still
# 7.7e-11: the cdf must come from the far tail, not from betainc's 1.
@example(nu=0.0625, beta=1.0, tau=1.0, eta=0.0, points=[1.9882577825594556e160])
# genexp2's survival at 0 once rounded to 1 + 2^-51.
@example(nu=11.479388968116062, beta=1.0, tau=1.0, eta=0.0, points=[0.0])
@settings(max_examples=150, deadline=None)
def test_cdf_and_survival_are_complementary_probabilities(family, nu, beta, tau, eta, points):
    handle = make_handle(family, nu=nu, beta=beta, tau=tau, eta=eta)
    x = np.sort(np.array(points))
    cdf = handle.cdf(x)
    survival = handle.survival(x)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)), cdf
    assert np.all((survival >= 0.0) & (survival <= 1.0)), survival
    assert np.max(np.abs(cdf + survival - 1.0)) <= 1e-12
    assert np.all(np.diff(cdf) >= 0.0), cdf


_FLOAT_MAX = np.finfo(float).max
_WIDE_POINTS = st.lists(
    st.one_of(st.floats(min_value=1e-300, max_value=_FLOAT_MAX),
              st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0 ** e)),
    min_size=1, max_size=30)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@given(nu=st.floats(min_value=0.01, max_value=1000.0),
       beta=st.floats(min_value=0.05, max_value=20.0),
       points=_WIDE_POINTS)
@example(nu=3.0, beta=20.0, points=[1e-300, 20.0, 1e300])
@example(nu=0.01, beta=0.05, points=[1e-300, 1e300])
# gengamma and cgamma: betainc underflows (or turns subnormal) long before
# its argument does, and x/nu overflows below the float maximum at nu < 1.
@example(nu=50.0, beta=2.0, points=[1e8, 1e10, 1e100, 1e300])
@example(nu=0.05, beta=1.5, points=[1e-300, 1e308, _FLOAT_MAX])
@settings(max_examples=150, deadline=None)
def test_finite_at_extreme_x_and_hazard_is_pdf_over_survival(family, nu, beta, points):
    handle = make_handle(family, nu=nu, beta=beta)
    x = np.array(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log_pdf = handle.log_pdf(x)
        log_survival = handle.log_survival(x)
        hazard = handle.hazard(x)
    assert np.all(np.isfinite(log_pdf)), log_pdf
    assert np.all(np.isfinite(log_survival)), log_survival
    assert np.all(np.isfinite(hazard)), hazard
    # An underflowed (zero or subnormal) hazard has no accurate log to compare.
    normal = hazard >= np.finfo(float).tiny
    gap = np.abs(np.log(hazard[normal]) - (log_pdf - log_survival)[normal])
    assert np.all(gap <= 1e-12 * (1.0 + np.abs(log_survival[normal]))), gap


_PROBABILITIES = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=0.0, max_value=1.0 - 1e-12),
              st.floats(min_value=-300.0, max_value=-1.0).map(lambda e: 10.0 ** e),
              st.floats(min_value=-12.0, max_value=-1.0).map(lambda e: 1.0 - 10.0 ** e)),
    min_size=1, max_size=30)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@given(nu=st.floats(min_value=0.1, max_value=1000.0),
       beta=st.floats(min_value=0.05, max_value=20.0),
       probabilities=_PROBABILITIES)
# genexp2's bisection could not resolve its variable below 2^-64 (the cdf
# was 1.1e-4 off); gengamma's and cgamma's quantile returned 0 at p = 0.1;
# betaincinv returns NaN for cgamma's lower tail at nu = 5, beta = 2.
@example(nu=0.2, beta=1.0, probabilities=[1.0 - 1e-12])
@example(nu=5.0, beta=0.05, probabilities=[0.1])
@example(nu=5.0, beta=2.0, probabilities=[1e-300])
@settings(max_examples=150, deadline=None)
def test_cdf_inverts_quantile(family, nu, beta, probabilities):
    handle = make_handle(family, nu=nu, beta=beta)
    p = np.array(probabilities)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = handle.quantile(p)
    assert not np.any(np.isnan(x)), x
    finite = np.isfinite(x)
    assert np.all(np.abs(handle.cdf(x[finite]) - p[finite]) <= 1e-12), (x, handle.cdf(x) - p)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_quantile_and_draws_past_the_float_range_are_quietly_inf(family, beta):
    handle = make_handle(family, nu=0.01, beta=beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = handle.quantile(np.array([0.5, 1.0 - 1e-12]))
        draws = handle.sample(1000, make_stream(1))
    assert not np.any(np.isnan(x)) and not np.any(np.isnan(draws))
    assert np.all(draws >= 0.0)
    if family.value in ("genexp2", "genexp", "lomax", "genweibull", "burr12"):
        assert x[1] == np.inf
