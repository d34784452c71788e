import math
import warnings

import numpy as np
import pytest

from asinhsurv import (
    Params,
    gen_gamma_acceptance_probability,
    gen_gamma_acceptance_rate,
    gen_gamma_rejection,
    make_handle,
    make_stream,
)

KS_N = 100_000
KS_BOUND = 1.63 / math.sqrt(KS_N)  # alpha ~ 0.01


def ks_distance(x, handle):
    """Kolmogorov-Smirnov distance between the draws ``x`` and ``handle``'s cdf."""
    x = np.sort(x)
    cdf = handle.cdf(x)
    i = np.arange(x.size)
    return max(float(np.max(cdf - i / x.size)), float(np.max((i + 1) / x.size - cdf)))


def ks_statistic(handle, n, seed):
    return ks_distance(handle.sample(n, make_stream(seed)), handle)


class TestSamplers:
    def test_empty(self):
        out = make_handle("genexp", nu=1.0).sample(0, make_stream(0))
        assert out.shape == (0,)

    def test_negative_size_rejected(self):
        from asinhsurv import DomainError
        with pytest.raises(DomainError):
            make_handle("genexp", nu=1.0).sample(-1, make_stream(0))

    def test_reproducible(self):
        h = make_handle("genweibull", nu=2.0, beta=1.5)
        a = h.sample(1000, make_stream(123))
        b = h.sample(1000, make_stream(123))
        assert np.array_equal(a, b)

    def test_streams_split_independently(self):
        h = make_handle("genexp", nu=2.0)
        a = h.sample(100, make_stream(5, 0))
        b = h.sample(100, make_stream(5, 1))
        assert not np.array_equal(a, b)

    def test_genexp_sample_mean(self):
        # nu=3: mean 9/8, variance 2.334375
        h = make_handle("genexp", nu=3.0)
        x = h.sample(KS_N, make_stream(21))
        se = math.sqrt(2.334375 / KS_N)
        assert abs(float(np.mean(x)) - 9.0 / 8.0) < 4.0 * se

    @pytest.mark.parametrize("family,kw,seed", [
        ("genexp", dict(nu=2.0), 11),
        ("genweibull", dict(nu=3.0, beta=2.0), 12),
        ("genexp2", dict(nu=2.0), 13),
        ("gengamma", dict(nu=3.0, beta=2.0), 14),
        ("lomax", dict(nu=2.0), 15),
        ("burr12", dict(nu=1.5, beta=2.0), 16),
        ("cgamma", dict(nu=2.5, beta=1.5), 17),
        ("exp", {}, 18),
        ("gengamma", dict(nu=0.5, beta=0.7), 20),
        ("gengamma", dict(nu=20.0, beta=5.0), 21),
    ])
    def test_kolmogorov_smirnov(self, family, kw, seed):
        h = make_handle(family, **kw)
        assert ks_statistic(h, KS_N, seed) < KS_BOUND

    def test_location_scale_sampling(self):
        h = make_handle("lomax", nu=3.0, tau=2.0, eta=1.0)
        assert ks_statistic(h, 20_000, 19) < 1.63 / math.sqrt(20_000)


class TestGenGammaRejection:
    def test_acceptance_probability_at_zero(self):
        assert gen_gamma_acceptance_probability(0.0, 2.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("x", [1e308, 1.7976931348623157e308])
    def test_acceptance_probability_where_x_over_nu_overflows(self, x):
        # 40-digit mpmath value at nu = 0.05, beta = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = gen_gamma_acceptance_probability(x, 0.05, 1.5)
        assert p == pytest.approx(0.48296816446242277, rel=1e-14)

    def test_envelope_valid_on_wide_grid(self):
        xs = np.geomspace(1e-6, 1e8, 400)
        for nu in (0.8, 1.0, 2.0, 5.0):
            for beta in (0.8, 1.0, 2.0, 5.0):
                p = gen_gamma_acceptance_probability(xs, nu, beta)
                assert float(np.max(p)) <= 1.0 + 1e-12

    def test_long_run_acceptance_rate(self):
        rate = gen_gamma_acceptance_rate(2.0, 1.0, make_stream(99), 100_000)
        assert rate == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)

    def test_single_draw(self):
        rng = make_stream(7)
        x = gen_gamma_rejection(Params(nu=3.0, beta=2.0), rng)
        assert x >= 0.0
        rng2 = make_stream(7)
        assert gen_gamma_rejection(Params(nu=3.0, beta=2.0), rng2) == x

    def test_rejection_beta1_matches_genexp_ks(self):
        # beta = 1 collapses the target to the generalised exponential
        gg = make_handle("gengamma", nu=2.0, beta=1.0)
        ge = make_handle("genexp", nu=2.0)
        assert ks_distance(gg.sample(50_000, make_stream(31)), ge) < 1.63 / math.sqrt(50_000)

    def test_rejection_draws_ks(self):
        # The handle draws gengamma in closed form; the public rejection
        # sampler must draw from the same law.
        params = Params(nu=3.0, beta=2.0)
        rng = make_stream(32)
        n = 20_000
        x = np.array([gen_gamma_rejection(params, rng) for _ in range(n)])
        assert ks_distance(x, make_handle("gengamma", nu=3.0, beta=2.0)) < 1.63 / math.sqrt(n)
