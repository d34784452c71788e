import collections
import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.optimize

from asinhsurv import (
    DistributionHandle,
    DomainError,
    ExperimentConfig,
    Family,
    FitOptions,
    Params,
    Sample,
    fit_all,
    fit_mle,
    make_handle,
    make_stream,
    neg_log_likelihood,
    run_robustness_study,
)
from asinhsurv import fitting
from asinhsurv.baselines import _PowerTail


class TestSample:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            Sample([1.0, -0.5])
        with pytest.raises(DomainError):
            Sample([1.0, float("nan")])

    def test_values_read_only(self):
        s = Sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 3.0


class TestNegLogLikelihood:
    def test_exponential_two_ones(self):
        h = make_handle("exp", tau=1.0)
        assert neg_log_likelihood(h, Sample([1.0, 1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_genexp_at_origin(self):
        h = make_handle("genexp", nu=1.0)
        assert neg_log_likelihood(h, Sample([0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_lomax_single_point(self):
        h = make_handle("lomax", nu=1.0)
        assert neg_log_likelihood(h, Sample([1.0])) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_zero_density_gives_inf(self):
        h = make_handle("genexp", nu=1.0, eta=2.0)
        assert neg_log_likelihood(h, Sample([1.0])) == math.inf

    def test_empty_sample(self):
        with pytest.raises(DomainError):
            neg_log_likelihood(make_handle("exp"), Sample([]))

    def test_permutation_invariant(self):
        x = make_handle("genexp", nu=2.0).sample(500, make_stream(3))
        h = make_handle("genexp", nu=2.5, tau=0.9)
        a = neg_log_likelihood(h, Sample(x))
        b = neg_log_likelihood(h, Sample(x[::-1].copy()))
        assert a == pytest.approx(b, rel=1e-12)


class TestFitMLE:
    def test_exponential_closed_form_exact(self):
        x = make_handle("exp", tau=2.0).sample(5000, make_stream(1))
        res = fit_mle("exp", Sample(x))
        assert res.estimates.tau == float(np.mean(x))
        assert res.converged
        assert res.iterations == 0
        assert not res.at_nu_bound

    def test_genexp_recovery(self):
        x = make_handle("genexp", nu=3.0).sample(5000, make_stream(7))
        res = fit_mle("genexp", Sample(x))
        assert res.converged
        assert 0.9 <= res.estimates.tau <= 1.1
        assert 2.0 <= res.estimates.nu <= 4.5

    def test_exponential_data_hits_nu_bound(self):
        x = make_handle("exp").sample(3000, make_stream(8))
        res = fit_mle("genexp", Sample(x))
        assert res.at_nu_bound
        assert res.estimates.nu == pytest.approx(1e6)
        assert res.estimates.tau == pytest.approx(float(np.mean(x)), rel=0.02)

    def test_nu_cap_is_fixed(self):
        assert FitOptions().nu_cap == 1e6
        with pytest.raises(TypeError):
            FitOptions(nu_cap=100.0)

    def test_fit_never_worse_than_seed_points(self):
        x = np.concatenate([make_handle("exp").sample(200, make_stream(9)), [20.0]])
        s = Sample(x)
        res = fit_mle("genexp", s)
        mean, median = float(np.mean(x)), float(np.median(x))
        for tau0, nu0 in [(mean, 1000.0), (median / math.log(2.0), 2.0)]:
            seed_nll = neg_log_likelihood(make_handle("genexp", nu=nu0, tau=tau0), s)
            assert res.neg_log_lik <= seed_nll + 1e-9

    def test_scale_equivariance(self):
        x = np.concatenate([make_handle("exp").sample(300, make_stream(10)), [20.0]])
        base = fit_mle("genexp", Sample(x))
        for c in (0.1, 10.0):
            scaled = fit_mle("genexp", Sample(c * x))
            assert scaled.estimates.tau == pytest.approx(c * base.estimates.tau, rel=1e-6)
            assert scaled.estimates.nu == pytest.approx(base.estimates.nu, rel=1e-6)

    def test_genexp_nll_at_most_exponential(self):
        # the exponential is the nu -> infinity boundary of the family
        for seed in (11, 12, 13):
            x = np.concatenate([make_handle("exp").sample(150, make_stream(seed)), [10.0]])
            s = Sample(x)
            ge = fit_mle("genexp", s)
            ex = fit_mle("exp", s)
            assert ge.neg_log_lik <= ex.neg_log_lik + 1e-6

    def test_beta_family_fit_runs(self):
        x = make_handle("genweibull", nu=3.0, beta=2.0).sample(2000, make_stream(14))
        res = fit_mle("genweibull", Sample(x))
        assert res.converged
        assert 1.5 <= res.estimates.beta <= 2.6

    def test_too_small_sample(self):
        with pytest.raises(DomainError):
            fit_mle("genexp", Sample([1.0]))

    def test_free_eta_option(self):
        x = 2.0 + make_handle("exp").sample(500, make_stream(15))
        res = fit_mle("genexp", Sample(x), FitOptions(free_eta=True))
        fixed = fit_mle("genexp", Sample(x))
        assert res.estimates.eta <= float(np.min(x))
        assert res.neg_log_lik <= fixed.neg_log_lik + 1e-6


class TestFitAll:
    def test_length_and_order(self):
        x = np.concatenate([make_handle("exp").sample(100, make_stream(16)), [20.0]])
        results = fit_all(Sample(x))
        assert len(results) == 3
        nlls = [r.neg_log_lik for r in results]
        assert nlls == sorted(nlls)
        assert {r.family for r in results} == {Family.EXPONENTIAL, Family.LOMAX, Family.GEN_EXP}

    def test_heavy_tails_win_on_contaminated_data(self):
        wins = 0
        trials = 30
        for seed in range(trials):
            x = np.concatenate([make_handle("exp").sample(100, make_stream(100 + seed)),
                                [20.0, 10.0]])
            results = {r.family: r for r in fit_all(Sample(x))}
            if results[Family.GEN_EXP].neg_log_lik < results[Family.LOMAX].neg_log_lik:
                wins += 1
        assert wins > trials / 2


_BODY = np.concatenate([[0.0], make_handle("exp").sample(40, make_stream(17))])
_WITH_EXTREMES = np.concatenate([[1e6, 20.0, 10.0], _BODY])


def _decimal_nll(family, x, log_tau, theta, log_beta=Decimal(0)):
    """The genexp, Lomax, genweibull or Burr XII neg-log-likelihood in
    decimal arithmetic; genexp and Lomax take beta = 1."""
    tau, beta = log_tau.exp(), log_beta.exp()
    total = len(x) * (log_tau - log_beta)
    for value in x:
        y = Decimal(float(value)) / tau
        if log_beta:
            total -= (beta - 1) * y.ln()
            y = (beta * y.ln()).exp()
        z = theta * y
        if family in ("genexp", "genweibull"):
            total += (z + (1 + z * z).sqrt()).ln() / theta + (1 + z * z).ln() / 2
        else:
            total += (1 / theta + 1) * (1 + z).ln()
    return total


def _decimal_gradient(family, x, log_tau, theta, log_beta=None):
    """Central differences of :func:`_decimal_nll` at 50 digits: exact to
    far below double precision, so it also checks the small-z series.  In
    (log_tau, theta), and log_beta too unless it is None."""
    with localcontext() as ctx:
        ctx.prec = 50
        point = [Decimal(log_tau), Decimal(theta)]
        steps = [Decimal("1e-15"), point[1] * Decimal("1e-15")]
        if log_beta is not None:
            point.append(Decimal(log_beta))
            steps.append(Decimal("1e-15"))
        grad = []
        for i, h in enumerate(steps):
            up, down = list(point), list(point)
            up[i] += h
            down[i] -= h
            diff = _decimal_nll(family, x, *up) - _decimal_nll(family, x, *down)
            grad.append(float(diff / (2 * h)))
    return grad


@pytest.mark.parametrize("x", [_BODY, _WITH_EXTREMES], ids=["body", "with-0-and-1e6"])
@pytest.mark.parametrize("family", ["genexp", "lomax"])
@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 5.0, 1e3])
@pytest.mark.parametrize("log_tau", [-3.0, 0.0, 3.0])
def test_nll_score_matches_decimal_reference(x, family, theta, log_tau):
    kernel = fitting._KERNELS[Family.parse(family)]
    nll, grad = kernel.nll_score(x, log_tau, theta)
    handle = make_handle(family, nu=1.0 / theta, tau=math.exp(log_tau))
    assert nll == pytest.approx(neg_log_likelihood(handle, Sample(x)), rel=1e-12)
    # genexp and Lomax run the genweibull and Burr XII scores, whose log_beta
    # component is inf on a sample holding 0; the fitter drops it.
    assert list(grad[:2]) == pytest.approx(_decimal_gradient(family, x, log_tau, theta), rel=1e-10)


# At beta != 1 a point x = 0 has density 0 or +inf, so these samples leave it out.
_POSITIVE_BODY = _BODY[1:]
_POSITIVE_WITH_EXTREMES = np.concatenate([[1e6, 20.0, 10.0], _POSITIVE_BODY])


@pytest.mark.parametrize("x", [_POSITIVE_BODY, _POSITIVE_WITH_EXTREMES], ids=["body", "with-1e6"])
@pytest.mark.parametrize("family", ["genweibull", "burr12"])
@pytest.mark.parametrize("log_beta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 5.0, 1e3])
@pytest.mark.parametrize("log_tau", [-3.0, 0.0, 3.0])
def test_beta_nll_score_matches_decimal_reference(x, family, log_beta, theta, log_tau):
    kernel = fitting._KERNELS[Family.parse(family)]
    nll, grad = kernel.nll_score(x, log_tau, theta, log_beta)
    handle = make_handle(family, nu=1.0 / theta, beta=math.exp(log_beta), tau=math.exp(log_tau))
    assert nll == pytest.approx(neg_log_likelihood(handle, Sample(x)), rel=1e-12)
    reference = _decimal_gradient(family, x, log_tau, theta, log_beta)
    assert list(grad) == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("family", ["genweibull", "burr12"])
def test_beta_nll_score_at_far_points(family):
    # z = theta y^beta passes 1e150 at the first four points, and y^beta
    # overflows at the first two.
    x = np.concatenate([[1e300, 1e200, 1e120, 1e80], _POSITIVE_BODY])
    kernel = fitting._KERNELS[Family.parse(family)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nll, grad = kernel.nll_score(x, 0.5, 0.5, 1.0)
    handle = make_handle(family, nu=2.0, beta=math.e, tau=math.exp(0.5))
    assert nll == pytest.approx(neg_log_likelihood(handle, Sample(x)), rel=1e-12)
    reference = _decimal_gradient(family, x, 0.5, 0.5, 1.0)
    assert list(grad) == pytest.approx(reference, rel=1e-10)


def _mp_log_density(family, y, nu, beta):
    """The standard member's log density at the mpmath number y >= 0."""
    import mpmath as mp
    if family == "genexp2":
        return mp.log((nu + 2) / (nu + 1)) - (nu + 1) * mp.asinh(y / nu)
    if family == "gengamma":
        return (beta * mp.log(2 / nu) + (beta - 1) * mp.log(y) - (nu + beta - 1) * mp.asinh(y / nu)
                - mp.log(mp.hypot(1, y / nu)) - mp.log(mp.beta(nu / 2, beta)))
    if family == "cgamma":
        return ((beta - 1) * mp.log(y / nu) - (nu + beta) * mp.log1p(y / nu) - mp.log(nu)
                - mp.log(mp.beta(nu, beta)))
    z = y ** beta / nu
    shape = mp.log(beta) + (beta - 1) * mp.log(y) if y else 0
    if family in ("genexp", "genweibull"):
        return shape - nu * mp.asinh(z) - mp.log(mp.hypot(1, z))
    return shape - (nu + 1) * mp.log1p(z)  # lomax, burr12


def _mp_gradient(family, x, log_tau, theta, log_beta=0.0):
    """Central differences at 50 digits of the NLL of ``x`` in (log_tau, theta,
    log_beta); genexp, genexp2 and Lomax take beta = 1."""
    import mpmath as mp
    ignores_beta = family in ("genexp", "genexp2", "lomax")

    def nll(log_tau, theta, log_beta):
        tau, beta = mp.exp(log_tau), 1 if ignores_beta else mp.exp(log_beta)
        return len(x) * log_tau - mp.fsum(_mp_log_density(family, mp.mpf(float(v)) / tau,
                                                          1 / theta, beta) for v in x)

    with mp.workdps(50):
        point = [mp.mpf(log_tau), mp.mpf(theta), mp.mpf(log_beta)]
        grad = []
        for i in range(3):
            h = mp.mpf("1e-15") * (point[1] if i == 1 else max(1, abs(point[i])))
            up, down = list(point), list(point)
            up[i] += h
            down[i] -= h
            grad.append(float((nll(*up) - nll(*down)) / (2 * h)))
    return grad


def _mp_hessian(family, x, log_tau, theta, log_beta=None):
    """Central second differences at 50 digits of the NLL of ``x``: in
    (log_tau, theta) at beta = 1, the (log_tau, log_tau), (log_tau, theta)
    and (theta, theta) entries; with ``log_beta``, in (log_tau, theta,
    log_beta), the upper triangle by rows."""
    import mpmath as mp

    def nll(log_tau, theta, log_beta):
        tau, beta = mp.exp(log_tau), mp.exp(log_beta)
        return (len(x) * log_tau
                - mp.fsum(_mp_log_density(family, mp.mpf(float(v)) / tau, 1 / theta, beta)
                          for v in x))

    with mp.workdps(50):
        point = [mp.mpf(log_tau), mp.mpf(theta), mp.mpf(log_beta or 0.0)]
        h = [mp.mpf("1e-12"), point[1] * mp.mpf("1e-12"), mp.mpf("1e-12")]

        def at(step):
            return nll(*(p + s * d for p, s, d in zip(point, step, h)))

        def entry(i, j):
            if i == j:
                up, down = ([s if k == i else 0 for k in range(3)] for s in (1, -1))
                return (at(up) - 2 * at([0, 0, 0]) + at(down)) / h[i] ** 2
            corners = [[(si if k == i else sj if k == j else 0) for k in range(3)]
                       for si in (1, -1) for sj in (1, -1)]
            pp, pm, mp_, mm = (at(c) for c in corners)
            return (pp - pm - mp_ + mm) / (4 * h[i] * h[j])

        slots = 2 if log_beta is None else 3
        return [float(entry(i, j)) for i in range(slots) for j in range(i, slots)]


_WITH_0_AND_1E200 = np.concatenate([[1e200, 20.0, 10.0], _BODY])


@pytest.mark.parametrize("x", [_BODY, _WITH_0_AND_1E200], ids=["body", "with-0-and-1e200"])
@pytest.mark.parametrize("family", ["genexp", "lomax"])
@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 5.0, 1e3])
@pytest.mark.parametrize("log_tau", [-3.0, 0.0, 3.0])
def test_nll_hessian_matches_mpmath(x, family, theta, log_tau):
    # At theta = 1e-6, the nu cap, the Lomax theta-theta entry sums terms of
    # O(y^3), not differences of two terms of O(nu y^2).  The row kernel is
    # handed one row: the whole sample.
    kernel = fitting._KERNELS[Family.parse(family)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = kernel.nll_hessian_rows(x, [x.size], [log_tau], [theta])
    assert rows.shape == (6, 1)  # NLL, gradient (2) and Hessian (3) of each row
    (nll, *grad_hess), = rows.T.tolist()
    grad, hess = grad_hess[:2], grad_hess[2:]
    assert all(type(v) is float for v in (nll, *grad, *hess))
    score_nll, score_grad = kernel.nll_score(x, log_tau, theta)
    assert nll == pytest.approx(score_nll, rel=1e-12)
    assert list(grad) == pytest.approx(list(score_grad[:2]), rel=1e-10)
    assert list(hess) == pytest.approx(_mp_hessian(family, x, log_tau, theta), rel=1e-10)


_FAR_POSITIVE = np.concatenate([[1e300, 1e200, 1e120, 1e80], _POSITIVE_BODY])


@pytest.mark.parametrize("x", [_POSITIVE_BODY, _POSITIVE_WITH_EXTREMES, _FAR_POSITIVE],
                         ids=["body", "with-1e6", "far"])
@pytest.mark.parametrize("family", ["genweibull", "burr12"])
@pytest.mark.parametrize("beta", [0.3, 0.7, 1.5, 3.0])
@pytest.mark.parametrize("theta", [1e-6, 0.5, 1e3])
def test_three_slot_nll_hessian_matches_mpmath(x, family, beta, theta):
    # With log beta free the row kernel's gradient is the score's, and its
    # Hessian the 50-digit second differences of the NLL, far points included.
    kernel, log_tau, log_beta = fitting._KERNELS[Family.parse(family)], 0.5, math.log(beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = kernel.nll_hessian_rows(x, [x.size], [log_tau], [theta], [log_beta])
    assert rows.shape == (10, 1)  # NLL, gradient (3) and Hessian (6) of each row
    (nll, *grad_hess), = rows.T.tolist()
    score_nll, score_grad = kernel.nll_score(x, log_tau, theta, log_beta)
    assert nll == pytest.approx(score_nll, rel=1e-12)
    assert grad_hess[:3] == pytest.approx(list(score_grad), rel=1e-10)
    assert grad_hess[3:] == pytest.approx(_mp_hessian(family, x, log_tau, theta, log_beta),
                                          rel=1e-10)


@pytest.mark.parametrize("family", ["genexp", "lomax", "genweibull", "burr12"])
def test_row_kernel_rows_do_not_depend_on_their_neighbours(family):
    # Each row alone gives the bits it gives among others, far points included.
    # genweibull and Burr XII rows take log beta too, on positive samples.
    kernel = fitting._KERNELS[Family.parse(family)]
    samples = [_BODY, _WITH_0_AND_1E200, _BODY[:2], _WITH_0_AND_1E200[::-1]] * 3
    points = [(log_tau, theta) for log_tau in (-3.0, 0.0, 3.0) for theta in (1e-6, 0.5, 1e3, 5.0)]
    if kernel.uses_beta:
        samples = [_POSITIVE_BODY, _FAR_POSITIVE, _POSITIVE_BODY[:2], _FAR_POSITIVE[::-1]] * 3
        points = [(*point, log_beta) for point, log_beta in zip(points, [-1.2, 0.0, 0.4, 1.1] * 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = kernel.nll_hessian_rows(np.concatenate(samples), [x.size for x in samples],
                                       *zip(*points))
        for i, (x, point) in enumerate(zip(samples, points)):
            alone = kernel.nll_hessian_rows(x, [x.size], *zip(point))
            assert [v[i].tolist() for v in rows] == [v[0].tolist() for v in alone], i


@pytest.mark.parametrize("x", [_POSITIVE_BODY, _POSITIVE_WITH_EXTREMES], ids=["body", "with-1e6"])
@pytest.mark.parametrize("family", ["genexp2", "gengamma", "cgamma"])
@pytest.mark.parametrize("log_beta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 5.0, 1e3])
@pytest.mark.parametrize("log_tau", [-3.0, 0.0, 3.0])
def test_new_nll_scores_match_decimal_reference(x, family, log_beta, theta, log_tau):
    # genexp2 ignores beta: its log_beta component is 0.
    kernel = fitting._KERNELS[Family.parse(family)]
    nll, grad = kernel.nll_score(x, log_tau, theta, log_beta)
    handle = make_handle(family, nu=1.0 / theta, beta=math.exp(log_beta), tau=math.exp(log_tau))
    assert nll == pytest.approx(neg_log_likelihood(handle, Sample(x)), rel=1e-12)
    reference = _mp_gradient(family, x, log_tau, theta, log_beta)
    assert list(grad) == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("family", ["genexp2", "gengamma", "cgamma"])
def test_new_nll_scores_at_far_points(family):
    # z = theta y passes 1e150 at the first three points, where these scores
    # take genexp's or the Lomax's far forms of the link and its ratio.
    x = np.concatenate([[1e300, 1e200, 1e160, 1e80], _POSITIVE_BODY])
    kernel = fitting._KERNELS[Family.parse(family)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nll, grad = kernel.nll_score(x, 0.5, 0.5, 1.0)
    handle = make_handle(family, nu=2.0, beta=math.e, tau=math.exp(0.5))
    assert nll == pytest.approx(neg_log_likelihood(handle, Sample(x)), rel=1e-12)
    assert list(grad) == pytest.approx(_mp_gradient(family, x, 0.5, 0.5, 1.0), rel=1e-10)


@pytest.mark.parametrize("x", [_BODY, _WITH_EXTREMES], ids=["body", "with-0-and-1e6"])
@pytest.mark.parametrize("family, beta_one", [("gengamma", "genexp"), ("cgamma", "lomax")])
@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 5.0, 1e3])
@pytest.mark.parametrize("log_tau", [-3.0, 0.0, 3.0])
def test_beta_score_at_beta_one_is_its_nested_score(x, family, beta_one, theta, log_tau):
    # At beta = 1 the psi remainder R(a, 1) is 0 and each term reduces exactly.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nll, grad = fitting._KERNELS[Family.parse(family)].nll_score(x, log_tau, theta)
    nested_nll, nested = fitting._KERNELS[Family.parse(beta_one)].nll_score(x, log_tau, theta)
    assert nll == pytest.approx(nested_nll, rel=1e-13)
    assert list(grad[:2]) == pytest.approx(list(nested[:2]), rel=1e-13)


def _study_like(n, outliers, rep):
    x = make_handle("exp").sample(n, make_stream(1000 * n + 10 * outliers + rep))
    return np.concatenate([x, [20.0, 10.0][:outliers]])


def _box4(family, opts, sample):
    """The fitter's box at location 0 with a fourth slot, eta: free with a free
    location, on [least - 100 (mean + 1), least (1 - 1e-12) - 1e-300], from 0
    clipped to that range, and pinned at 0 otherwise.  The oracles search
    eta alongside the other slots, independently of the fitter's profile."""
    free, (lo, hi), starts = fitting._box(family, opts, sample)
    if opts.free_eta:
        least, mean = float(np.min(sample.values)), float(np.mean(sample.values))
        lo, hi = lo + [least - 100.0 * (mean + 1.0)], hi + [least * (1.0 - 1e-12) - 1e-300]
        starts = [start + [min(max(0.0, lo[-1]), hi[-1])] for start in starts]
    return np.append(free, opts.free_eta), (lo, hi), starts


def _slots4(free, vec):
    """The slots (log_tau, theta, log_beta, eta) of a ``_box4`` point."""
    slots = np.array([0.0, 1.0, 0.0, 0.0])
    slots[free] = vec
    return slots


def _params4(free, vec):
    log_tau, theta, log_beta, eta = _slots4(free, vec)
    return Params(nu=1.0 / theta, beta=math.exp(log_beta), tau=math.exp(log_tau), eta=eta)


def _nelder_mead_oracle(family, x, opts=FitOptions()):
    """The lowest NLL scipy's Nelder-Mead reaches from each of the fitter's
    two starts, each run restarted once from where it stopped."""
    family = Family.parse(family)
    sample = Sample(x)
    free, (lo, hi), starts = _box4(family, opts, sample)

    def objective(vec):
        handle = DistributionHandle(family, _params4(free, vec))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return neg_log_likelihood(handle, sample)

    options = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000}
    best = math.inf
    for point in starts:
        for _ in range(2):
            res = scipy.optimize.minimize(objective, point, method="Nelder-Mead",
                                          bounds=scipy.optimize.Bounds(lo, hi), options=options)
            point, best = res.x, min(best, res.fun)
    return best


def _no_worse(nll, reference):
    return nll <= reference + 1e-10 * (1.0 + abs(reference))


@pytest.mark.parametrize("family", [Family.GEN_EXP, Family.LOMAX])
def test_quasi_newton_no_worse_than_nelder_mead(family):
    for n in (10, 100, 1000):
        for outliers in range(3):
            for rep in range(10):
                x = _study_like(n, outliers, rep)
                result = fit_mle(family, Sample(x))
                # the exponential limit as far as the nu <= 1e6 cap reaches it
                limit = make_handle(family, nu=1e6, tau=float(np.mean(x)))
                limit_nll = neg_log_likelihood(limit, Sample(x))
                assert result.converged, (n, outliers, rep)
                assert _no_worse(result.neg_log_lik, _nelder_mead_oracle(family, x))
                assert _no_worse(result.neg_log_lik, limit_nll)


def _record_methods(monkeypatch, lbfgsb_maxiter=None):
    """The optimiser of each run the fitter makes: "Newton", or the method it
    hands scipy's ``minimize``, whose iterations ``lbfgsb_maxiter`` can cap."""
    methods = []
    minimize, fit_newton = fitting.minimize, fitting._fit_newton

    def recording_minimize(fun, x0, method=None, options=None, **kwargs):
        methods.append(method)
        if lbfgsb_maxiter is not None:
            options = dict(options, maxiter=lbfgsb_maxiter)
        return minimize(fun, x0, method=method, options=options, **kwargs)

    def recording_newton(*args):
        runs = fit_newton(*args)
        methods.extend(["Newton"] * sum(map(len, runs)))  # one per run of each sample
        return runs

    monkeypatch.setattr(fitting, "minimize", recording_minimize)
    monkeypatch.setattr(fitting, "_fit_newton", recording_newton)
    return methods


def test_score_families_take_newton(monkeypatch):
    x = _study_like(100, 2, 0)
    methods = _record_methods(monkeypatch)
    for family in ("genexp", "lomax"):
        assert fit_mle(family, Sample(x)).converged
        assert methods == ["Newton"], family
        methods.clear()


def _genexp_located_score(x):
    """The genexp NLL of ``x`` and its gradient in (log_tau, theta, eta): the
    kernel's score of x - eta, and the eta component sum (log f)'(y)/tau at
    y = (x - eta)/tau, z = theta y, where (log f)'(y) = -1/hypot(1, z) -
    theta z/(1 + z^2)."""
    kernel = fitting._KERNELS[Family.GEN_EXP]

    def score(vec):
        log_tau, theta, eta = vec
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nll, grad = kernel.nll_score(x - eta, log_tau, theta)
            z = theta * ((x - eta) / math.exp(log_tau))
            d_eta = -np.sum(1.0 / np.hypot(1.0, z) + theta * z / (1.0 + z * z))
        return nll, np.array([grad[0], grad[1], d_eta / math.exp(log_tau)])
    return score


def _two_start_runs(family, x, opts=FitOptions()):
    """(nll, converged, at_nu_bound) of L-BFGS-B on the kernel's score from each
    of the fitter's two starts, without the fitter's start rule; a run that
    stops with log beta at its bound or theta at its upper bound 1e3 is
    unconverged.  A free location is searched as a third slot of genexp."""
    family = Family.parse(family)
    free, (lo, hi), starts = _box4(family, opts, Sample(x))
    if opts.free_eta:
        assert family is Family.GEN_EXP
        score = _genexp_located_score(np.asarray(x, dtype=float))
    else:
        score = fitting._score(fitting._KERNELS[family], free[:3], x)
    runs = []
    for start in starts:
        res = scipy.optimize.minimize(
            score, start, method="L-BFGS-B", jac=True, bounds=scipy.optimize.Bounds(lo, hi),
            options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": 4000})
        projected = np.clip(res.x - res.jac, lo, hi) - res.x
        _, theta, log_beta, _ = _slots4(free, res.x)
        converged = (np.max(np.abs(projected)) <= 1e-6 * (1.0 + abs(res.fun))
                     and abs(log_beta) < 7.0 * (1.0 - 1e-9) and theta < 1e3 * (1.0 - 1e-9))
        runs.append((res.fun, bool(converged), bool(theta <= 1e-6 * (1.0 + 1e-9))))
    return runs


# Samples where genexp has two optima, each with the runs the fitter makes:
# the study's replication 168 at seed 1, n = 10, with the outlier 20 (L-BFGS-B
# from the base start stops at an interior point), and replication 1 at seed
# 74, n = 10, clean (the base fit stops at the nu cap), both fitted by Newton
# from the base start and the two lowest minima of the likelihood grid, as
# samples of fewer than 20 points; and replication 82 at seed 74, n = 20,
# clean, where Newton's base run stops at the nu cap too.
_TWO_OPTIMA = [
    (np.append(make_stream(1, 0, 168).standard_exponential(10), 20.0),
     15.694647793696062, 16.410054169010216, ["Newton"] * 3),
    (make_stream(74, 0, 1).standard_exponential(10), 7.4568448920074655, 7.598083973393223,
     ["Newton"] * 3),
    (make_stream(74, 20, 82).standard_exponential(20), 23.743265601850485, 23.779096006101796,
     ["Newton", "Newton"]),
]


@pytest.mark.parametrize("x, nll, base_only_nll, runs", _TWO_OPTIMA,
                         ids=["interior", "at-nu-cap", "at-nu-cap-newton"])
def test_genexp_keeps_the_lower_of_two_optima(monkeypatch, x, nll, base_only_nll, runs):
    base, heavy = _two_start_runs("genexp", x)
    assert base[0] == pytest.approx(base_only_nll, rel=1e-12)
    assert heavy[0] == pytest.approx(nll, rel=1e-12)
    methods = _record_methods(monkeypatch)
    result = fit_mle("genexp", Sample(x))
    assert methods == runs
    assert result.neg_log_lik == pytest.approx(nll, rel=1e-12)
    assert result.converged and not result.at_nu_bound


def _oracle_samples():
    for n in (10, 100):
        for rep in range(50):
            clean = make_stream(5, n, rep).standard_exponential(n)
            for outliers in range(3):
                yield np.concatenate([clean, [20.0, 10.0][:outliers]])
        for family in ("lomax", "genexp"):
            for nu in (0.5, 1.0, 2.0, 5.0):
                for rep in range(5):
                    stream = make_stream(6, n, rep, int(10 * nu))
                    yield make_handle(family, nu=nu).sample(n, stream)


def test_one_start_rule_matches_a_two_start_oracle():
    for x in _oracle_samples():
        for family in ("genexp", "lomax"):
            result = fit_mle(family, Sample(x))
            nll, converged, at_bound = min(_two_start_runs(family, x), key=lambda run: run[0])
            assert result.neg_log_lik <= nll + 1e-10 * abs(nll), (family, x)
            assert (result.converged, result.at_nu_bound) == (converged, at_bound), (family, x)


def _model(grad, hess, step):
    (g0, g1), (a, b, c), (s0, s1) = grad, hess, step
    return g0 * s0 + g1 * s1 + 0.5 * (a * s0 * s0 + 2.0 * b * s0 * s1 + c * s1 * s1)


# (grad, H = (a, b, c), radius) with an indefinite H: the hard case, where the
# gradient has no component along the least eigenvector and no shift of H
# makes the step radius long, then a zero gradient, then an ordinary case.
_INDEFINITE = [((0.0, 1.0), (-1.0, 0.0, 2.0), 1.0), ((0.0, 0.0), (-1.0, 0.0, 2.0), 0.5),
               ((1.0, 1.0), (-1.0, 0.5, 2.0), 0.3)]


@pytest.mark.parametrize("grad, hess, radius", _INDEFINITE, ids=["hard", "zero-grad", "indefinite"])
def test_trust_step_minimises_the_model_on_the_boundary(grad, hess, radius):
    # With an indefinite Hessian the model's minimum over |s| <= radius lies on
    # the boundary; the step must be no higher than any of a dense sample there.
    step = fitting._trust_step(grad, hess, radius)
    assert math.hypot(*step) == pytest.approx(radius, rel=1e-9)
    angle = np.linspace(0.0, 2.0 * math.pi, 200_001)
    boundary = _model(grad, hess, (radius * np.cos(angle), radius * np.sin(angle)))
    assert _model(grad, hess, step) <= boundary.min() + 1e-12


# (grad, upper triangle of H, radius): the hard case, where the gradient has
# no component along the least eigenvector of an indefinite H and no shift
# makes the step radius long, then a zero gradient, an indefinite H and a
# positive definite H whose Newton step is too long.
_INDEFINITE3 = [((0.0, 1.0, 1.0), (-1.0, 0.0, 0.0, 2.0, 0.0, 3.0), 1.0),
                ((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 2.0, 0.0, 3.0), 0.5),
                ((1.0, 1.0, 1.0), (-1.0, 0.5, 0.2, 2.0, 0.1, 3.0), 0.3),
                ((10.0, -5.0, 3.0), (2.0, 0.3, 0.1, 1.0, 0.2, 1.5), 0.5)]


@pytest.mark.parametrize("grad, hess, radius", _INDEFINITE3,
                         ids=["hard", "zero-grad", "indefinite", "long-newton"])
def test_three_slot_trust_step_minimises_the_model_on_the_boundary(grad, hess, radius):
    # The model's minimum over |s| <= radius lies on the boundary; the step
    # must be no higher than any of a dense Fibonacci lattice there.
    a, b, c, d, e, f = hess
    matrix = np.array([[a, b, c], [b, d, e], [c, e, f]])

    def model(step):
        return np.asarray(grad) @ step + 0.5 * np.einsum("i...,ij,j...->...", step, matrix, step)

    step = np.array(fitting._trust_step3(grad, hess, radius))
    assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-9)
    k = np.arange(400_001) + 0.5
    height, angle = 1.0 - 2.0 * k / k.size, math.pi * (1.0 + 5.0 ** 0.5) * k
    ring = np.sqrt(1.0 - height ** 2)
    sphere = radius * np.array([ring * np.cos(angle), ring * np.sin(angle), height])
    assert model(step) <= model(sphere).min() + 1e-12
    # A short Newton step is taken as it is.
    newton = fitting._trust_step3(grad, (2.0, 0.3, 0.1, 1.0, 0.2, 1.5), 1e3)
    solved = np.linalg.solve([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]], -np.array(grad))
    assert newton == pytest.approx(solved.tolist(), rel=1e-12, abs=1e-15)


def _newton_oracle_samples():
    """555 samples: the study grid (n = 10, 100 and 1000 with 0-2 outliers), Lomax
    and genexp draws at nu 0.5-5 (n = 10, 20, 100 and 1000), and the samples
    with two genexp optima."""
    for n in (10, 100, 1000):
        for rep in range(40):
            clean = make_stream(12, n, rep).standard_exponential(n)
            for outliers in range(3):
                yield np.concatenate([clean, [20.0, 10.0][:outliers]])
    for n in (10, 20, 100, 1000):
        for family in ("lomax", "genexp"):
            for nu in (0.5, 1.0, 2.0, 5.0):
                for rep in range(6):
                    yield make_handle(family, nu=nu).sample(n, make_stream(13, n, rep, int(10 * nu)))
    for x, *_ in _TWO_OPTIMA:
        yield x


def _assert_matches_lbfgsb(family, x, result, case):
    """``result`` is no worse than the lower of L-BFGS-B's runs from both starts
    on the kernel's score, beyond 1e-12 relative, with the same flags unless
    its NLL is lower by more than 1e-9 relative."""
    nll, converged, at_bound = min(_two_start_runs(family, x), key=lambda run: run[0])
    assert result.neg_log_lik <= nll + 1e-12 * abs(nll), case
    if result.neg_log_lik >= nll - 1e-9 * abs(nll):
        assert (result.converged, result.at_nu_bound) == (converged, at_bound), case


def test_newton_matches_lbfgsb_from_both_starts(monkeypatch):
    # Every size runs only Newton, and no fit reaches the cap of one run
    # (iterations sums every run).
    methods = _record_methods(monkeypatch)
    fits = 0
    for x in _newton_oracle_samples():
        for family in ("genexp", "lomax"):
            methods.clear()
            result = fit_mle(family, Sample(x))
            case = (family, len(x), fits)
            fits += 1
            assert methods and set(methods) == {"Newton"}, case
            assert result.iterations < fitting._NEWTON_MAX_ITER, case
            _assert_matches_lbfgsb(family, x, result, case)
    assert fits >= 1000


def _batch_samples():
    """130 samples: the study's draws at 3-100 points with 0-2 outliers (four
    or more of each length, which the likelihood grid takes in one pass), Lomax
    and genexp draws at nu 0.3-3, and samples that stop at tau's bound or
    whose fitted handle's NLL overflows."""
    for n in (3, 10, 12, 19, 20, 100):
        for rep in range(4):
            clean = make_stream(31, n, rep).standard_exponential(n)
            for outliers in range(3):
                yield np.concatenate([clean, [20.0, 10.0][:outliers]])
    for family in ("lomax", "genexp"):
        for nu in (0.3, 1.0, 3.0):
            for n in (10, 15, 40):
                for rep in range(3):
                    yield make_handle(family, nu=nu).sample(n, make_stream(32, n, rep, int(10 * nu)))
    yield from ([0.0, 0.0, 3.0], [0.0, 1e300], _WITH_ZERO, [1e-300, 2e-300, 1.0, 1e200])


@pytest.mark.parametrize("family", ["genexp", "lomax", "genweibull"])
def test_batched_fits_do_not_depend_on_the_batch(monkeypatch, family):
    # The same samples fitted together, permuted, split, under a point cap
    # that cuts every batch into chunks, and one at a time through fit_mle
    # give identical results to the last bit.  genweibull fits Newton on two
    # slots on the samples holding 0 and on three on every fifth of the others.
    samples = [Sample(x) for x in _batch_samples()]
    if family == "genweibull":
        samples = samples[:-4:5] + samples[-4:]
    family, opts = Family.parse(family), FitOptions()

    def fits(batch):
        return [repr(r) for r in fitting._fit_samples(family, batch, opts)]

    together = fits(samples)
    assert len(together) in (130, 30)
    order = np.random.default_rng(5).permutation(len(samples))
    permuted = fits([samples[i] for i in order])
    assert [permuted[k] for k in np.argsort(order)] == together
    assert fits(samples[:50]) + fits(samples[50:51]) + fits(samples[51:]) == together
    assert [repr(fit_mle(family, sample)) for sample in samples] == together
    monkeypatch.setattr(fitting, "_POINT_CAP", 64)
    monkeypatch.setattr(fitting, "_GRID_CAP", 5000)
    rows, points = _PowerTail.nll_hessian_rows.__func__, []
    fit_newton, widest = fitting._fit_newton, [0]

    def recording(cls, x, *args):
        points.append(x.size)
        return rows(cls, x, *args)

    def recording_newton(kernel, xs, starts, *args):
        widest[0] = max([widest[0]] + [x.size * len(s) for x, s in zip(xs, starts)])
        return fit_newton(kernel, xs, starts, *args)

    monkeypatch.setattr(_PowerTail, "nll_hessian_rows", classmethod(recording))
    monkeypatch.setattr(fitting, "_fit_newton", recording_newton)
    assert fits(samples) == together
    # No kernel call holds more than the cap, or one sample's starts where those exceed it.
    assert 0 < max(points) <= max(64, widest[0])
    assert widest[0] == max(map(len, samples)) * (2 if family is Family.GEN_WEIBULL else 1)


# Ten-point samples (seed, nu, replication, drawn family, fitted family),
# drawn as make_handle(drawn, nu=nu).sample(10, make_stream(seed, 10, rep,
# int(10 nu))).  On the first eleven, Newton from both fixed starts stops at a
# higher optimum than a start from the likelihood grid reaches.  On the last
# five, the base and grid runs stop at the nu cap, and only the heavy start
# reaches the shallow interior optimum.
_GRID_WINS = [(41, 0.3, 602, "lomax", "lomax"), (41, 1.0, 497, "lomax", "genexp"),
              (43, 0.3, 352, "lomax", "genexp"), (43, 0.3, 420, "lomax", "genexp"),
              (43, 0.3, 563, "lomax", "genexp"), (43, 0.3, 762, "lomax", "genexp"),
              (43, 0.3, 563, "genexp", "genexp"), (43, 0.3, 610, "genexp", "genexp"),
              (43, 0.3, 980, "genexp", "genexp"), (43, 0.5, 103, "genexp", "genexp"),
              (43, 0.7, 871, "lomax", "lomax")]
_HEAVY_WINS = [(41, 0.5, 699, "lomax", "genexp"), (41, 0.7, 887, "genexp", "genexp"),
               (41, 1.0, 959, "genexp", "genexp"), (43, 0.5, 93, "genexp", "genexp"),
               (43, 0.5, 955, "genexp", "genexp")]


@pytest.mark.parametrize("seed, nu, rep, drawn, family", _GRID_WINS + _HEAVY_WINS)
def test_small_samples_start_from_the_likelihood_grid(monkeypatch, seed, nu, rep, drawn, family):
    x = make_handle(drawn, nu=nu).sample(10, make_stream(seed, 10, rep, int(10 * nu)))
    family = Family.parse(family)
    kernel = fitting._KERNELS[family]
    _, (lo, hi), (base, heavy) = fitting._box(family, FitOptions(), Sample(x))
    fit_newton, runs = fitting._fit_newton, []

    def recording(kernel, xs, starts, heavies, lo, hi):
        ends = fit_newton(kernel, xs, starts, heavies, lo, hi)
        for sample_starts, sample_heavy, sample_ends in zip(starts, heavies, ends):
            runs.extend(zip(sample_starts + [sample_heavy], sample_ends))
        return ends

    monkeypatch.setattr(fitting, "_fit_newton", recording)
    result = fit_mle(family, Sample(x))
    case = (seed, nu, rep, drawn, family.value)
    _assert_matches_lbfgsb(family, x, result, case)
    assert result.converged and not result.at_nu_bound, case
    starts = [start for start, _ in runs]
    assert starts[0] == base and 2 <= len(runs) <= 4, case
    lower = result.neg_log_lik * (1.0 - 1e-9)
    if case in _HEAVY_WINS:
        assert starts[-1] == heavy, case
        assert all(vec[1] < fitting._THETA_NEAR_EXP and nll > lower
                   for _, (vec, nll, _, _) in runs[:-1]), case
    else:
        assert heavy not in starts, case
        # Both fixed starts run as starts; a heavy-tail run that joins repeats the second.
        (ends,) = fit_newton(kernel, [x], [[base, heavy]], [heavy], lo, hi)
        assert all(end[1] > lower for end in ends), case


@pytest.mark.parametrize("family", ["genexp", "lomax"])
def test_heavy_starts_join_the_running_batch(monkeypatch, family):
    # A heavy-tail run joins a running batch as soon as every other run of its
    # sample has stopped, and only when those runs call for it; it takes the
    # steps, iterations and end it takes alone, and so do the runs beside it.
    family = Family.parse(family)
    samples = [Sample(x) for x in _batch_samples()]
    samples += [Sample(make_handle(drawn, nu=nu).sample(10, make_stream(seed, 10, rep, int(10 * nu))))
                for seed, nu, rep, drawn, fitted in _HEAVY_WINS if fitted == family.value]
    fit_newton, calls = fitting._fit_newton, []

    def recording(*args):
        calls.append((args, fit_newton(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fitting, "_fit_newton", recording)
    fitting._fit_samples(family, samples, FitOptions())
    (((kernel, xs, starts, heavies, lo, hi), runs),) = calls
    joined = 0
    for x, sample_starts, heavy, sample_runs in zip(xs, starts, heavies, runs):
        ran = len(sample_starts)
        assert len(sample_runs) == ran + fitting._needs_heavy(sample_runs[:ran], lo, hi)
        for start, run in zip(sample_starts + [heavy], sample_runs):
            assert run == fit_newton(kernel, [x], [[start]], [start], lo, hi)[0][0]
        joined += len(sample_runs) > ran
    assert joined >= 20


@pytest.mark.parametrize("family", ["exp", "genexp", "lomax", "genweibull", "burr12"])
def test_reported_nll_is_the_handle_nll(family):
    # One batch mixes samples of the log-density pass with samples that take
    # the handle's: past z = 1e150 at the fit lie the points 1e200 and 1e300,
    # [0, 1e300] and [0, 1e-310, 1e308] stop at tau's bound e^-40 with an
    # infinite NLL, and genweibull and Burr XII fit beta on samples without 0.
    # Every reported NLL is the fitted handle's to the bit.
    family = Family.parse(family)
    samples = [Sample(x) for x in ([0, 0.5, 1, 2, 3, 7, 0.2, 1.4], [0.0, 0.0, 3.0], _BODY,
                                    _WITH_EXTREMES, [1e-300, 2e-300, 1.0, 1e200],
                                    [1e200, 1e200, 3e200], [0.0, 1e300], [0.0, 1e-310, 1e308])]
    samples += [Sample(_study_like(n, k, rep)) for n in (10, 100) for k in range(3) for rep in range(2)]
    results = fitting._fit_samples(family, samples, FitOptions())
    for sample, result in zip(samples, results):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nll = neg_log_likelihood(DistributionHandle(family, result.estimates), sample)
        assert repr(result.neg_log_lik) == repr(nll), (family, sample.values)
    infinite = [r for r in results if r.neg_log_lik == math.inf]
    assert len(infinite) == (0 if family is Family.EXPONENTIAL else 2)
    assert not any(r.converged for r in infinite)


def test_work_counters_match_outside_counts(monkeypatch):
    # The counters of a fixed study config against wrappers around the row
    # kernel, the likelihood grid, the Newton batches and the NLL passes; every
    # study fit takes the batched pass, so no fit takes its handle's NLL.
    outside = collections.Counter()
    rows, grid = _PowerTail.nll_hessian_rows.__func__, _PowerTail.nll_grid.__func__
    fit_newton, passes, handle_nll = (fitting._fit_newton, fitting._neg_log_likelihoods,
                                      fitting.neg_log_likelihood)

    def counted_rows(cls, x, lengths, *args):
        outside["kernel_calls"] += 1
        outside["kernel_rows"] += len(lengths)
        return rows(cls, x, lengths, *args)

    def counted_grid(cls, *args):
        outside["grid_passes"] += 1
        return grid(cls, *args)

    def counted_newton(*args):
        runs = fit_newton(*args)
        outside["runs"] += sum(map(len, runs))
        return runs

    def counted_passes(*args):
        outside["nll_passes"] += 1
        return passes(*args)

    def counted_handle_nll(*args):
        outside["handle_nlls"] += 1
        return handle_nll(*args)

    config = ExperimentConfig(sample_sizes=(10, 100), replications=3)
    report = run_robustness_study(config)
    monkeypatch.setattr(_PowerTail, "nll_hessian_rows", classmethod(counted_rows))
    monkeypatch.setattr(_PowerTail, "nll_grid", classmethod(counted_grid))
    monkeypatch.setattr(fitting, "_fit_newton", counted_newton)
    monkeypatch.setattr(fitting, "_neg_log_likelihoods", counted_passes)
    monkeypatch.setattr(fitting, "neg_log_likelihood", counted_handle_nll)
    assert fitting._WORK.get() is None
    with fitting._counting() as counts:
        assert repr(run_robustness_study(config)) == repr(report)
    assert fitting._WORK.get() is None
    # three samples of each of three lengths at n = 10, for Lomax and genexp
    assert outside["grid_passes"] == 6 and outside["handle_nlls"] == 0
    assert outside["nll_passes"] == 3 * len(config.sample_sizes)
    assert counts == {"kernel_calls": outside["kernel_calls"],
                      "kernel_rows": outside["kernel_rows"],
                      "newton_steps": outside["kernel_rows"] - outside["runs"],
                      "grid_passes": 6, "nll_passes": outside["nll_passes"]}
    run_robustness_study(config)
    assert counts["kernel_calls"] == outside["kernel_calls"] / 2  # not counted outside
    # The fits that run L-BFGS-B count each evaluation of the score and the
    # iterations, and the study, which runs none, counted neither.
    minimize, score = fitting.minimize, fitting._score

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        outside["lbfgsb_iterations"] += res.nit
        return res

    def counted_score(*args):
        evaluate = score(*args)

        def counted(vec):
            outside["score_calls"] += 1
            return evaluate(vec)
        return counted

    monkeypatch.setattr(fitting, "minimize", counted_minimize)
    monkeypatch.setattr(fitting, "_score", counted_score)
    x = Sample(_study_like(100, 2, 1))
    with fitting._counting() as counts:
        for family, free_eta in (("genexp2", False), ("cgamma", False), ("genexp2", True)):
            fit_mle(family, x, FitOptions(free_eta=free_eta))
    assert counts["score_calls"] == outside["score_calls"] > 0
    assert counts["lbfgsb_iterations"] == outside["lbfgsb_iterations"] > 0
    # A free location's profile counts each fixed-location fit of x - eta it runs:
    # the edge alone for genexp, and for Burr XII the grid and the scalar search too.
    fit_fixed = fitting._fit_fixed

    def counted_fixed(family, samples, opts):
        outside["location_fits"] += len(samples)
        return fit_fixed(family, samples, opts)

    monkeypatch.setattr(fitting, "_fit_fixed", counted_fixed)
    for family, least in (("genexp", 1), ("burr12", 16)):
        outside["location_fits"] = 0
        with fitting._counting() as counts:
            fit_mle(family, x, FitOptions(free_eta=True))
        assert counts["location_fits"] == outside["location_fits"] >= least, family


@pytest.mark.parametrize("family", ["genexp", "lomax", "genweibull", "burr12"])
def test_two_slot_fits_never_call_minimize(monkeypatch, family):
    # genweibull and Burr XII fit (log_tau, theta) alone on a sample holding 0.
    # At n = 2, 3 and 5 the point at 0 outweighs the rest: the NLL falls
    # without bound as tau -> 0, and the fit stops flagged at tau's bound.
    def forbidden(*args, **kwargs):
        raise AssertionError("minimize called")

    methods = _record_methods(monkeypatch)
    monkeypatch.setattr(fitting, "minimize", forbidden)
    for n in (2, 3, 5, 10, 15, 19, 20, 30, 100, 1000):
        x = np.append(0.0, make_handle("lomax", nu=0.7).sample(n - 1, make_stream(23, n)))
        methods.clear()
        result = fit_mle(family, Sample(x))
        assert methods and set(methods) == {"Newton"}, (family, n)
        assert math.isfinite(result.neg_log_lik), (family, n)
        at_tau_bound = result.estimates.tau == pytest.approx(math.exp(-40.0), rel=1e-9)
        assert (result.converged, at_tau_bound) == (n > 5, n <= 5), (family, n)


def _exponential_samples():
    """Draws of exp, Lomax and genexp at n = 2 to 1000, each also with its first
    point set to 0, and two samples of zeros."""
    for k, (family, nu) in enumerate([("exp", 1.0), ("lomax", 2.0), ("genexp", 0.7)]):
        for n in (2, 3, 5, 10, 30, 100, 1000):
            x = make_handle(family, nu=nu).sample(n, make_stream(29, n, k))
            yield x
            yield np.append(0.0, x[1:])
    yield np.zeros(2)
    yield np.zeros(5)


def test_exponential_fits_never_call_an_optimiser(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("optimiser called")

    monkeypatch.setattr(fitting, "minimize", forbidden)
    monkeypatch.setattr(fitting, "_fit_newton", forbidden)
    for free_eta in (False, True):
        for x in _exponential_samples():
            result = fit_mle("exp", Sample(x), FitOptions(free_eta=free_eta))
            assert result.iterations == 0 and math.isfinite(result.neg_log_lik), (free_eta, x)


def test_free_location_exponential_is_the_closed_form():
    # eta at the box's upper edge just below the least point, tau = the mean of x - eta.
    opts = FitOptions(free_eta=True)
    for x in _exponential_samples():
        result = fit_mle("exp", Sample(x), opts)
        eta = float(np.min(x)) * (1.0 - 1e-12) - 1e-300
        assert result.estimates.eta == eta, x
        if np.any(x > 0.0):
            assert result.estimates.tau == float(np.mean(x - eta)), x
            assert result.converged, x
        assert _no_worse(result.neg_log_lik, _nelder_mead_oracle("exp", x, opts)), x


@pytest.mark.parametrize("free_eta", [False, True], ids=["fixed", "free_eta"])
@pytest.mark.parametrize("n", [2, 5])
def test_exponential_fit_of_zeros_is_flagged_at_the_tau_bound(n, free_eta):
    # The likelihood tau^-n of n points at 0 grows without bound as tau -> 0, so
    # the fit stops at tau's bound e^-40, flagged, as Lomax and genexp do.
    result = fit_mle("exp", Sample(np.zeros(n)), FitOptions(free_eta=free_eta))
    assert result.estimates.tau == math.exp(-40.0)
    assert not result.converged and result.iterations == 0
    assert result.neg_log_lik == -40.0 * n
    for family in ("lomax", "genexp"):
        heavy = fit_mle(family, Sample(np.zeros(n)))
        assert not heavy.converged and heavy.neg_log_lik == result.neg_log_lik, family


def _very_heavy_samples():
    """The first three samples of genexp draws at nu = 0.004 and 0.005, n = 20
    and 50, that are finite in double precision: the MLE of theta = 1/nu is
    150-240, a long way from both starts."""
    for nu in (0.004, 0.005):
        for n in (20, 50):
            draws = (make_handle("genexp", nu=nu).sample(n, make_stream(17, n, rep))
                     for rep in range(100))
            finite = [x for x in draws if np.all(np.isfinite(x))]
            assert len(finite) >= 3
            yield from finite[:3]


def test_newton_reaches_very_heavy_tails(monkeypatch):
    methods = _record_methods(monkeypatch)
    for x in _very_heavy_samples():
        for family in ("genexp", "lomax"):
            methods.clear()
            result = fit_mle(family, Sample(x))
            case = (family, len(x), result.estimates.nu)
            assert set(methods) == {"Newton"} and result.iterations < fitting._NEWTON_MAX_ITER, case
            assert result.converged and 1.0 / result.estimates.nu > 100.0, case
            _assert_matches_lbfgsb(family, x, result, case)


def _new_score_samples():
    """(family, sample, free_eta): 1,008 fits on the four paths that took finite
    differences before, on draws of the family and on exponential data with
    outliers."""
    for n in (10, 30, 100):
        for rep in range(12):
            clean = make_stream(8, n, rep).standard_exponential(n)
            for outliers in range(3):
                x = np.concatenate([clean, [20.0, 10.0][:outliers]])
                yield "genexp", 0.5 + x, True
                yield "genexp2", x, False
        for nu in (0.5, 1.5, 5.0, 50.0):
            for rep in range(12):
                stream = make_stream(9, n, rep, int(10 * nu))
                yield "genexp", make_handle("genexp", nu=nu, eta=0.5).sample(n, stream), True
                yield "genexp2", make_handle("genexp2", nu=nu).sample(n, stream), False
    for n in (30, 100):
        for family in ("gengamma", "cgamma"):
            for nu in (1.5, 5.0, 50.0):
                for beta in (0.5, 2.0):
                    for rep in range(21):
                        stream = make_stream(10, n, rep, int(10 * nu), int(10 * beta))
                        yield family, make_handle(family, nu=nu, beta=beta).sample(n, stream), False


# The free-location genexp fits of ``_new_score_samples`` that end lower than
# L-BFGS-B from both starts and converged, as (oracle NLL, fit NLL): ten draws
# at nu = 1.5, rep 9, where the fixed-location fit of x - eta reaches an
# interior optimum at tau = 0.59 that the three-slot runs stop short of.
_LOWER_CONVERGED = [(8.441421382811226, 8.285757901466535)]


def test_one_start_rule_matches_a_two_start_oracle_on_the_new_scores():
    # The genexp2 fits run L-BFGS-B, which runs both starts: each must match
    # the lower of the two runs.  A free-location genexp fit puts eta at the
    # box's edge and fits x - eta by Newton: no fit may end higher than the
    # L-BFGS-B oracle on (log tau, theta, eta), and each lower fit must be
    # unconverged or listed.  25 are at a mode below 20 points that exists
    # only because of the box's margin, with tau a few times the gap between
    # eta and the least point; these are flagged.
    fits, lower = 0, []
    for family, x, free_eta in _new_score_samples():
        opts = FitOptions(free_eta=free_eta)
        result = fit_mle(family, Sample(x), opts)
        nll, converged, at_bound = min(_two_start_runs(family, x, opts), key=lambda run: run[0])
        case = (family, len(x), fits)
        fits += 1
        if free_eta and result.neg_log_lik < nll - 1e-10 * abs(nll):
            lower.append(result.converged)
            if result.converged:
                assert any(result.neg_log_lik == pytest.approx(new, rel=1e-10)
                           and nll == pytest.approx(old, rel=1e-10)
                           for old, new in _LOWER_CONVERGED), case
            continue
        assert abs(result.neg_log_lik - nll) <= 1e-10 * abs(nll), case
        assert (result.converged, result.at_nu_bound) == (converged, at_bound), case
    assert fits >= 1000
    assert (len(lower), sum(lower)) == (26, len(_LOWER_CONVERGED))


def test_genexp2_runs_both_starts(monkeypatch):
    # A fixed-location genexp2 fit runs L-BFGS-B from both starts.  On these
    # four points the base run converges at an interior optimum, 7.953033, and
    # only the heavy start reaches the lower one.
    x = [0.42876688614745884, 1.0788207567159664, 0.0037985108067621763, 20.0]
    methods = _record_methods(monkeypatch)
    result = fit_mle("genexp2", Sample(x))
    assert methods == ["L-BFGS-B", "L-BFGS-B"]
    assert result.converged
    assert result.neg_log_lik == pytest.approx(7.7805835202089755, rel=1e-12)


def _power_tail_samples():
    """(family, sample): 792 genweibull and Burr XII fits at a fixed location,
    on exponential data with outliers and on draws at nu 0.5-50, beta 0.5/2."""
    for family in ("genweibull", "burr12"):
        for n in (10, 30, 100):
            for rep in range(12):
                clean = make_stream(8, n, rep).standard_exponential(n)
                for outliers in range(3):
                    yield family, np.concatenate([clean, [20.0, 10.0][:outliers]])
                for nu in (0.5, 1.5, 5.0, 50.0):
                    for beta in (0.5, 2.0):
                        stream = make_stream(11, n, rep, int(10 * nu), int(10 * beta))
                        yield family, make_handle(family, nu=nu, beta=beta).sample(n, stream)


def test_beta_fits_match_a_two_start_oracle():
    # No Newton fit ends higher than L-BFGS-B from both starts, and where it
    # ends no lower the flags agree.  On four draws of ten at nu = beta = 0.5
    # and one of thirty here, only L-BFGS-B's heavy start reached a lower NLL
    # at theta's upper bound; Newton reaches it from the edge start.  On
    # fifteen samples, all but one of ten points, the edge start, or a ridge
    # to it, ends lower than both L-BFGS-B runs, unconverged at an edge.
    lower = 0
    for family, x in _power_tail_samples():
        result = fit_mle(family, Sample(x))
        nll, converged, at_bound = min(_two_start_runs(family, x), key=lambda run: run[0])
        assert result.neg_log_lik <= nll + 1e-10 * abs(nll), (family, x)
        if result.neg_log_lik < nll - 1e-10 * abs(nll):
            lower += 1
            assert not result.converged, (family, x)
        else:
            assert (result.converged, result.at_nu_bound) == (converged, at_bound), (family, x)
    assert lower == 15


def test_unconverged_fit_is_returned_flagged(monkeypatch):
    # Cut short after one iteration, the base fit is unconverged, so the
    # heavy-tail start runs too; there is no other optimiser to fall back to.
    x = _study_like(100, 2, 1)
    monkeypatch.setattr(fitting, "_NEWTON_MAX_ITER", 1)
    methods = _record_methods(monkeypatch)
    result = fit_mle("genexp", Sample(x))
    assert methods == ["Newton", "Newton"]
    assert not result.converged
    assert result.iterations == 2


def test_unconverged_three_slot_fit_is_returned_flagged(monkeypatch):
    # log beta is free, so the fit runs Newton from both fixed starts at once;
    # cut short after one iteration each, both are unconverged, so the edge
    # start runs too, and the fit fails the projected-gradient test.
    x = _study_like(100, 2, 1)
    monkeypatch.setattr(fitting, "_NEWTON_MAX_ITER", 1)
    fit_newton, calls = fitting._fit_newton, []

    def recording(kernel, xs, starts, late, lo, hi):
        calls.append((starts, late, fit_newton(kernel, xs, starts, late, lo, hi)))
        return calls[-1][2]

    monkeypatch.setattr(fitting, "_fit_newton", recording)
    result = fit_mle("genweibull", Sample(x))
    (([starts], [edge], [runs]),) = calls
    _, _, (base, heavy) = fitting._box(Family.GEN_WEIBULL, FitOptions(), Sample(x))
    assert starts == [base, heavy] and edge == [heavy[0], 1e3, 0.0]
    assert [run[3] for run in runs] == [1, 1, 1]
    assert not result.converged
    assert result.iterations == 3


def test_unconverged_lbfgsb_fit_is_returned_flagged(monkeypatch):
    # genexp2 runs L-BFGS-B from both starts; cut short after one iteration
    # each, it fails the projected-gradient test.
    x = _study_like(100, 2, 1)
    methods = _record_methods(monkeypatch, lbfgsb_maxiter=1)
    result = fit_mle("genexp2", Sample(x))
    assert methods == ["L-BFGS-B", "L-BFGS-B"]
    assert not result.converged
    assert result.iterations == 2


_WITH_ZERO = [0, 0.5, 1, 2, 3, 7, 0.2, 1.4]


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_fits_a_sample_containing_zero(family):
    result = fit_mle(family, Sample(_WITH_ZERO))
    assert result.converged and math.isfinite(result.neg_log_lik)


# Each beta family with its beta = 1 member: gengamma and genweibull at
# beta = 1 are genexp, cgamma and Burr XII at beta = 1 are the Lomax.
_NESTED = [("genweibull", "genexp"), ("gengamma", "genexp"),
           ("burr12", "lomax"), ("cgamma", "lomax")]


@pytest.mark.parametrize("family, beta_one", _NESTED)
def test_zero_in_the_sample_pins_beta_at_one(family, beta_one):
    # At eta = 0 a point x = 0 has density 0 for beta > 1 and +inf for beta < 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit_mle(family, Sample(_WITH_ZERO))
    nested = fit_mle(beta_one, Sample(_WITH_ZERO))
    assert result.converged and result.estimates.beta == 1.0
    if family in ("genweibull", "burr12"):
        # Pinned at beta = 1, each runs the same kernel and score as its beta = 1 member.
        assert (result.estimates, result.neg_log_lik) == (nested.estimates, nested.neg_log_lik)
    else:
        assert result.neg_log_lik == pytest.approx(nested.neg_log_lik, rel=1e-10)
    for free_eta in (False, True):
        free, _, _ = fitting._box(Family.parse(family), FitOptions(free_eta=free_eta),
                                  Sample(_WITH_ZERO))
        assert free[fitting._LOG_BETA] == free_eta


def _nesting_sample(kind, n):
    if kind == "with-zero":
        return np.array(_WITH_ZERO, dtype=float)
    if kind == "weibull":
        return make_stream(n).weibull(1.5, n)
    return make_handle(kind, nu=3.0).sample(n, make_stream(n + 1))


_NESTING_SAMPLES = [(kind, n) for kind in ("weibull", "genexp", "lomax")
                    for n in (10, 100, 1000)] + [("with-zero", 8)]


@pytest.mark.parametrize("kind, n", _NESTING_SAMPLES,
                         ids=[f"{kind}-{n}" for kind, n in _NESTING_SAMPLES])
@pytest.mark.parametrize("family, beta_one", [("genweibull", "genexp"), ("burr12", "lomax")])
def test_beta_fit_no_worse_than_its_beta_one_member(family, beta_one, kind, n):
    x = Sample(_nesting_sample(kind, n))
    result = fit_mle(family, x)
    nested = fit_mle(beta_one, x)
    assert result.converged
    assert result.neg_log_lik <= nested.neg_log_lik + 1e-10 * abs(nested.neg_log_lik)


def test_fits_without_an_interior_maximum_are_flagged():
    # Ten gengamma (nu = 50, beta = 2) draws, as the earlier rejection sampler
    # gave them: the likelihood keeps rising as beta runs to its bound e^7.
    x = np.array([2.556671971408851, 1.0364627546774947, 5.158863179016862, 1.2735018316917888,
                  1.5044516084229809, 3.4307097098362522, 1.1744105508735625, 2.315249890327525,
                  2.5648401294525685, 1.7441348942617036])
    result = fit_mle("gengamma", Sample(x))
    assert not result.converged
    assert result.estimates.beta == pytest.approx(math.exp(7.0), rel=1e-9)
    assert result.neg_log_lik < 13.67
    # With a free location and beta < 1 the likelihood has no maximum as eta
    # reaches the smallest point (Smith 1985, Biometrika 72:67).
    x = make_handle("burr12", nu=50.0, beta=1.5, eta=0.5).sample(10, make_stream(2, 10, 500, 7))
    result = fit_mle("burr12", Sample(x), FitOptions(free_eta=True))
    assert not result.converged
    assert result.estimates.beta < 1.0
    assert result.estimates.eta == pytest.approx(float(np.min(x)), rel=1e-11)
    # A point at 0 makes the likelihood grow without bound as tau -> 0.  With a
    # point at 1e300 the fit stops at tau's bound e^-40, where the kernel's NLL
    # is finite but x/tau overflows in the fitted handle's.
    for x in ([0.0, 1e300], np.r_[0.0, np.linspace(0.1, 1.0, 18), 1e300]):
        for family in ("genexp", "lomax"):
            result = fit_mle(family, Sample(x))
            assert result.neg_log_lik == math.inf and not result.converged, (family, len(x))
    # Without such a point the fit stops at tau's bound with a finite NLL, which
    # still falls without bound there.
    for x in ([0.0, 0.0, 3.0], [0.0, 0.0]):
        for family in ("genexp", "lomax"):
            result = fit_mle(family, Sample(x))
            assert result.estimates.tau == pytest.approx(math.exp(-40.0), rel=1e-9), (family, x)
            assert math.isfinite(result.neg_log_lik) and not result.converged, (family, x)


@pytest.mark.parametrize("family", ["genweibull", "burr12"])
def test_fit_at_the_theta_bound_is_flagged(family):
    # On ten draws with tail index 1/4 the likelihood rises along a ridge,
    # nu -> 0 and beta -> infinity, to theta's upper bound 1e3: an edge of
    # the box, not an optimum.
    x = make_handle("genweibull", nu=0.5, beta=0.5).sample(10, make_stream(11, 10, 8, 5, 5))
    result = fit_mle(family, Sample(x))
    assert result.estimates.nu == pytest.approx(1e-3, rel=1e-9)
    assert not result.converged and not result.at_nu_bound


# Each family with the number of its free slots, at a fixed and a free location.
_FREE_SLOTS = {"exp": (1, 2), "genexp": (2, 3), "lomax": (2, 3), "genexp2": (2, 3),
               "genweibull": (3, 4), "gengamma": (3, 4), "burr12": (3, 4), "cgamma": (3, 4)}


@pytest.mark.parametrize("free_eta", [False, True], ids=["fixed", "free_eta"])
@pytest.mark.parametrize("family", sorted(_FREE_SLOTS))
def test_too_few_observations_raise_domain_error(family, free_eta):
    k = _FREE_SLOTS[family][free_eta]
    opts = FitOptions(free_eta=free_eta)
    for size in {0, k - 1}:
        with pytest.raises(DomainError, match=f"need at least {k} observations"):
            fit_mle(family, Sample([1.0, 2.0, 3.0][:size]), opts)
    assert math.isfinite(fit_mle(family, Sample([1.0, 2.0, 3.0, 5.0][:k]), opts).neg_log_lik)


def test_gengamma_and_cgamma_grid():
    # 72 fits to draws of each family at beta = 2.  Every fit that stops short
    # of an interior optimum does so at the beta bound e^7, and a fit there is
    # flagged unconverged.
    unconverged = 0
    for family, beta_one in (("gengamma", "genexp"), ("cgamma", "lomax")):
        for n in (10, 100, 1000):
            for nu in (1.5, 5.0, 50.0):
                for seed in range(4):
                    stream = make_stream(seed, n, int(10 * nu))
                    x = make_handle(family, nu=nu, beta=2.0).sample(n, stream)
                    result = fit_mle(family, Sample(x))
                    case, nll = (family, n, nu, seed), result.neg_log_lik
                    assert _no_worse(nll, fit_mle(beta_one, Sample(x)).neg_log_lik), case
                    beta_at_bound = math.log(result.estimates.beta) >= 7.0 - 1e-9
                    assert result.converged != beta_at_bound, case
                    unconverged += not result.converged
    assert unconverged <= 6


# The fits that took finite differences before every kernel had a score, on
# draws of the family itself as the benchmark's fit-shapes requests make
# them: (family, beta, free_eta).
_FD_FITS = [("genweibull", 1.5, False), ("burr12", 1.5, False), ("genexp2", 1.0, False),
            ("gengamma", 2.0, False), ("cgamma", 2.0, False),
            ("genexp", 1.0, True), ("lomax", 1.0, True)]
_FD_IDS = [family + ("-free_eta" if free_eta else "") for family, _, free_eta in _FD_FITS]


def _workload_like(family, beta, free_eta, n, nu, seed):
    handle = make_handle(family, nu=nu, beta=beta, eta=0.5 if free_eta else 0.0)
    return handle.sample(n, make_stream(seed))


@pytest.mark.parametrize("family, beta, free_eta", _FD_FITS, ids=_FD_IDS)
def test_finite_difference_fits_no_worse_than_nelder_mead(family, beta, free_eta):
    opts = FitOptions(free_eta=free_eta)
    # gengamma and cgamma fits can end at the beta bound at n = 10 (see the
    # grid test), so they are checked at n = 100 and 1000 only.
    grid = [(1000, 1.5), (1000, 5.0), (100, 50.0)] if family in ("gengamma", "cgamma") else [
        (n, nu) for n in (100, 1000) for nu in (1.5, 5.0, 50.0)]
    for n, nu in grid:
        x = _workload_like(family, beta, free_eta, n, nu, seed=n)
        result = fit_mle(family, Sample(x), opts)
        assert result.converged, (n, nu)
        assert _no_worse(result.neg_log_lik, _nelder_mead_oracle(family, x, opts)), (n, nu)


@pytest.mark.parametrize("family, beta, free_eta", _FD_FITS, ids=_FD_IDS)
def test_every_fit_takes_quasi_newton(monkeypatch, family, beta, free_eta):
    # genweibull and Burr XII at a fixed location run Newton on three slots,
    # and free-location genexp and Lomax on two, on x less the closed-form eta;
    # the other fits that took finite differences run L-BFGS-B.
    x = _workload_like(family, beta, free_eta, 1000, 1.5, seed=2)
    methods = _record_methods(monkeypatch)
    assert fit_mle(family, Sample(x), FitOptions(free_eta=free_eta)).converged
    newton = family in ("genweibull", "burr12", "genexp", "lomax")
    assert methods and set(methods) == {"Newton" if newton else "L-BFGS-B"}


_POWER_TAIL_FAMILIES = (Family.GEN_EXP, Family.LOMAX, Family.GEN_WEIBULL, Family.BURR_XII)
_BETA = ("genweibull", "burr12", "gengamma", "cgamma")  # the families with a shape beta


@pytest.mark.parametrize("free_eta", [False, True], ids=["fixed", "free_eta"])
def test_every_fit_runs_on_a_closed_form_score(monkeypatch, free_eta):
    # The exponential has a closed form at either location.  A free location
    # is a profile over fixed-location fits of x - eta, so at either location
    # genexp, Lomax, genweibull and Burr XII run Newton on the kernel's
    # closed-form Hessian, and every other fit runs L-BFGS-B on its
    # closed-form score.  No optimiser sees eta: no Newton box and no
    # L-BFGS-B start has more than three slots.
    calls, widths = [], []
    minimize, fit_newton = fitting.minimize, fitting._fit_newton

    def recording(fun, x0, **kwargs):
        calls.append(kwargs.get("jac"))
        widths.append(len(x0))
        return minimize(fun, x0, **kwargs)

    def recording_newton(kernel, xs, starts, late, lo, hi):
        runs = fit_newton(kernel, xs, starts, late, lo, hi)
        calls.extend(["Newton"] * sum(map(len, runs)))
        widths.extend([len(lo), len(hi)] + [len(start) for start in late]
                      + [len(start) for sample_starts in starts for start in sample_starts])
        return runs

    monkeypatch.setattr(fitting, "minimize", recording)
    monkeypatch.setattr(fitting, "_fit_newton", recording_newton)
    x = make_handle("genexp", nu=3.0, eta=0.5 if free_eta else 0.0).sample(200, make_stream(3))
    for family in Family:
        calls.clear()
        fit_mle(family, Sample(x), FitOptions(free_eta=free_eta))
        if family is Family.EXPONENTIAL:
            assert not calls
            continue
        newton = family in _POWER_TAIL_FAMILIES
        assert calls and all(call == ("Newton" if newton else True) for call in calls), family
    assert widths and max(widths) <= 3


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_free_location_fits_a_sample_containing_zero(family):
    # eta stays below the point 0, so log y is finite; beta is free.  Every
    # family with beta ends with beta < 1 and eta at its edge, where the
    # likelihood has no maximum (Smith 1985), and genexp and Lomax reach tau's
    # bound e^-40, at the NLL of the fixed-location fits with tau there:
    # each of these is flagged.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit_mle(family, Sample(_WITH_ZERO), FitOptions(free_eta=True))
    assert math.isfinite(result.neg_log_lik) and result.estimates.eta < 0.0
    assert result.converged == (family in ("exp", "genexp2")), family
    if family in _BETA:
        assert result.estimates.beta < 1.0 and result.estimates.eta == -1e-300
    if family in ("genexp", "lomax"):
        assert result.estimates.tau == pytest.approx(math.exp(-40.0), rel=1e-9)
        want = {"genexp": -4.623048212110845, "lomax": -4.734927530948781}[family]
        assert result.neg_log_lik == pytest.approx(want, rel=1e-10)


def _free_location_draws():
    """(family, sample): six draws at n = 30, 100 and 1000 of each family
    without beta, at location 0.5."""
    for family in ("exp", "genexp", "lomax", "genexp2"):
        for n in (30, 100, 1000):
            for nu in (0.5, 1.5, 5.0):
                for rep in range(2):
                    handle = make_handle(family, nu=nu, eta=0.5)
                    yield family, handle.sample(n, make_stream(31, n, rep, int(10 * nu)))


def _beta_location_draws():
    """(family, sample): a draw at n = 30, 100 and 1000 and nu = 1.5 and 5 of
    each family with beta, at beta 1.5 and location 0.5."""
    for family in _BETA:
        for n in (30, 100, 1000):
            for nu in (1.5, 5.0):
                handle = make_handle(family, nu=nu, beta=1.5, eta=0.5)
                yield family, handle.sample(n, make_stream(31, n, 0, int(10 * nu)))


def test_free_location_fits_are_scale_equivariant():
    # eta's profile runs in log(least - eta), from the edge and a grid that
    # scale with the data, so the fit of c x has the NLL of the fit of x
    # plus n log c, with the same flags.  The edge's gap, 1e-12 of the least
    # point, carries the least point's rounding, 2e-4 of the gap; an edge
    # fit with beta < 1, whose NLL moves with (1 - beta) n log(gap), is
    # flagged, and its NLL is not compared.
    opts = FitOptions(free_eta=True)
    for family, x in [*_free_location_draws(), *_beta_location_draws()]:
        result = fit_mle(family, Sample(x), opts)
        for c in (1e-6, 1e6):
            scaled = fit_mle(family, Sample(c * x), opts)
            case = (family, x.size, c)
            want = result.neg_log_lik + x.size * math.log(c)
            if scaled.converged or family not in _BETA:
                assert scaled.neg_log_lik == pytest.approx(want, rel=1e-10), case
            assert ((scaled.converged, scaled.at_nu_bound)
                    == (result.converged, result.at_nu_bound)), case


def test_free_location_reaches_the_unbounded_edge():
    # On these ten Burr XII draws a four-slot L-BFGS-B search stopped
    # converged at an interior optimum, NLL 1.898, while the likelihood grows
    # without bound as eta nears the least point with beta < 1 (Smith 1985).
    # The profile's edge fit lies below -6.72 there, flagged.
    x = make_handle("burr12", nu=1.5, beta=1.5, eta=0.5).sample(10, make_stream(6, 10, 15, 7))
    result = fit_mle("burr12", Sample(x), FitOptions(free_eta=True))
    assert not result.converged and result.neg_log_lik <= -6.72
    assert result.estimates.beta < 1.0
    assert result.estimates.eta == float(np.min(x)) * (1.0 - 1e-12) - 1e-300


# Degenerate samples, each with the free-location NLLs of genweibull, Burr XII,
# gengamma and cgamma that a four-slot L-BFGS-B search reached on it.
_DEGENERATE = [
    (np.zeros(5), [-3414.938498587469, -3414.9381772935067, -3416.490321541882,
                   -3416.4903214329515]),
    (np.full(5, 2.5), [-83.26304417466577, -83.05206052396366, -137.90216584419142,
                       -135.96018848656686]),
    (1e-300 * np.array([1.0, 2.0, 3.0, 5.0, 8.0]),
     [-3409.4662774896383, -3409.4659550072033, -3411.0181133025285, -3411.0181132120874]),
    (1e300 * np.array([1.0, 2.0, 3.0, 5.0, 8.0]),
     [3496.795521403896, 3496.792055667993, 3496.783446613699, 3496.7490870972397]),
]


@pytest.mark.parametrize("x, nlls", _DEGENERATE, ids=["zeros", "equal", "near-1e-300", "near-1e300"])
def test_free_location_fits_of_degenerate_samples(x, nlls):
    # No grid point lies below the edge of an all-zero sample, and the edge's
    # 1e-300 margin is wider than the grid's first gaps near 1e-300.  No
    # likelihood here has a maximum, so every fit is flagged.
    for family, reached in zip(_BETA, nlls):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit_mle(family, Sample(x), FitOptions(free_eta=True))
        assert result.neg_log_lik <= reached + 1e-10 * abs(reached), family
        assert not result.converged, family


def test_free_location_grid_keeps_x_less_eta_finite():
    # Near the float maximum the sample's mean overflows, and with it the
    # grid's widest gaps: the grid keeps only the gaps that leave x - eta
    # finite.  Each NLL is no higher than a four-slot L-BFGS-B search reached.
    # The mean's overflow warns at any location (numpy's sum), so it is muted.
    x = np.array([1e308, 1.5e308, 1.7e308, 1.2e308, 1.1e308])
    reached = [3584.7649727138423, 3584.7615069779404, 3584.7524161792826, 3584.7189592726063]
    for family, nll in zip(_BETA, reached):
        with np.errstate(over="ignore"):
            result = fit_mle(family, Sample(x), FitOptions(free_eta=True))
        assert result.neg_log_lik <= nll and not result.converged, family


def test_free_location_is_the_box_edge():
    # A free-location fit of a family without beta puts eta at the box's edge
    # below the least point, and its other slots are the fixed-location fit of
    # x - eta; its NLL is the fitted handle's on x.  Samples of ten, and those
    # holding 0, take the likelihood grid too.
    opts = FitOptions(free_eta=True)
    samples = [x for _, x in _free_location_draws() if x.size < 1000]
    samples += [_WITH_ZERO, _study_like(10, 1, 3), _study_like(10, 2, 4) + 0.25]
    for family in ("exp", "genexp", "lomax", "genexp2"):
        for x in samples:
            x = np.asarray(x, dtype=float)
            result = fit_mle(family, Sample(x), opts)
            eta = float(np.min(x)) * (1.0 - 1e-12) - 1e-300
            shifted = fit_mle(family, Sample(x - eta))
            case = (family, x.size)
            assert result.estimates == replace(shifted.estimates, eta=eta), case
            assert (result.iterations, result.at_nu_bound) == (
                shifted.iterations, shifted.at_nu_bound), case
            handle = DistributionHandle(family, result.estimates)
            assert repr(result.neg_log_lik) == repr(neg_log_likelihood(handle, Sample(x))), case
            gap = float(np.min(x - eta))
            assert result.converged == (shifted.converged
                                        and result.estimates.tau >= 1e6 * gap), case


def test_gengamma_fit_leaves_the_nu_cap_on_genweibull_data():
    # The maximum is near nu = 6.5 (nll 425.36); Nelder-Mead from the same
    # starts stops at the nu cap with nll 428.08 and reports convergence.
    x = make_handle("genweibull", nu=3.0, beta=1.5).sample(500, make_stream(1))
    res = fit_mle("gengamma", Sample(x))
    assert res.converged
    assert res.neg_log_lik < 426.0
    assert not res.at_nu_bound
