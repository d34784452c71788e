import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.optimize

from asinhsurv import (
    DomainError,
    Family,
    FitOptions,
    Sample,
    fit_all,
    fit_mle,
    make_handle,
    make_stream,
    neg_log_likelihood,
)
from asinhsurv import fitting


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


def _study_like(n, outliers, rep):
    x = make_handle("exp").sample(n, make_stream(1000 * n + 10 * outliers + rep))
    return np.concatenate([x, [20.0, 10.0][:outliers]])


def _nelder_mead_oracle(family, x, opts=FitOptions()):
    """The lowest NLL scipy's Nelder-Mead reaches from each of the fitter's
    two starts, each run restarted once from where it stopped."""
    family = Family.parse(family)
    names = fitting._free_parameter_names(family, opts, x)
    objective = fitting._objective(fitting._KERNELS[family], names, x)
    bounds = fitting._bounds(names, x)
    options = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000}
    best = math.inf
    for start in fitting._starts(names, x):
        point = np.clip(start, bounds.lb, bounds.ub)
        for _ in range(2):
            res = scipy.optimize.minimize(objective, point, method="Nelder-Mead",
                                          bounds=bounds, options=options)
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
    methods = []
    original = fitting.minimize

    def recording(fun, x0, method=None, options=None, **kwargs):
        methods.append(method)
        if method == "L-BFGS-B" and lbfgsb_maxiter is not None:
            options = dict(options, maxiter=lbfgsb_maxiter)
        return original(fun, x0, method=method, options=options, **kwargs)

    monkeypatch.setattr(fitting, "minimize", recording)
    return methods


def test_score_families_take_quasi_newton(monkeypatch):
    x = _study_like(100, 2, 0)
    methods = _record_methods(monkeypatch)
    for family in ("genexp", "lomax"):
        assert fit_mle(family, Sample(x)).converged
        assert methods == ["L-BFGS-B"], family
        methods.clear()


def _two_start_oracle(family, x):
    """(nll, converged, at_nu_bound) of L-BFGS-B on the genexp or Lomax score
    from each of the fitter's two starts, without the fitter's start rule."""
    family = Family.parse(family)
    kernel = fitting._KERNELS[family]
    names = fitting._free_parameter_names(family, FitOptions(), x)
    bounds = fitting._bounds(names, x)

    def score(vec):
        # The genweibull and Burr XII scores at beta = 1: drop the log_beta component.
        nll, grad = kernel.nll_score(x, *vec)
        return nll, grad[:2]

    runs = []
    for start in fitting._starts(names, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = scipy.optimize.minimize(
                score, np.clip(start, bounds.lb, bounds.ub), method="L-BFGS-B", jac=True,
                bounds=bounds, options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": 4000})
        projected = np.clip(res.x - res.jac, bounds.lb, bounds.ub) - res.x
        runs.append((res.fun, bool(np.max(np.abs(projected)) <= 1e-6 * (1.0 + abs(res.fun))),
                     bool(res.x[1] <= 1e-6 * (1.0 + 1e-9))))
    return runs


# Samples where genexp has two optima: the study's replication 168 at seed 1,
# n = 10, with the outlier 20 (the base fit stops at an interior point), and
# replication 1 at seed 74, n = 10, clean (the base fit stops at the nu cap).
_TWO_OPTIMA = [
    (np.append(make_stream(1, 0, 168).standard_exponential(10), 20.0),
     15.694647793696062, 16.410054169010216),
    (make_stream(74, 0, 1).standard_exponential(10), 7.4568448920074655, 7.598083973393223),
]


@pytest.mark.parametrize("x, nll, base_only_nll", _TWO_OPTIMA, ids=["interior", "at-nu-cap"])
def test_genexp_keeps_the_lower_of_two_optima(monkeypatch, x, nll, base_only_nll):
    base, heavy = _two_start_oracle("genexp", x)
    assert base[0] == pytest.approx(base_only_nll, rel=1e-12)
    assert heavy[0] == pytest.approx(nll, rel=1e-12)
    methods = _record_methods(monkeypatch)
    result = fit_mle("genexp", Sample(x))
    assert methods == ["L-BFGS-B", "L-BFGS-B"]
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
            nll, converged, at_bound = min(_two_start_oracle(family, x), key=lambda run: run[0])
            assert result.neg_log_lik <= nll + 1e-10 * abs(nll), (family, x)
            assert (result.converged, result.at_nu_bound) == (converged, at_bound), (family, x)


def test_unconverged_fit_is_returned_flagged(monkeypatch):
    # Cut short after one iteration, the base fit is unconverged, so the
    # heavy-tail start runs too; there is no other optimiser to fall back to.
    x = _study_like(100, 2, 1)
    methods = _record_methods(monkeypatch, lbfgsb_maxiter=1)
    result = fit_mle("genexp", Sample(x))
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
    free = fitting._free_parameter_names(Family.parse(family), FitOptions(free_eta=True),
                                         np.array(_WITH_ZERO))
    assert "log_beta" in free


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


def test_gengamma_and_cgamma_grid():
    # 72 fits on finite differences to draws of each family at beta = 2: they
    # need a log_beta free of noise up to the nu cap, where betaln has it.
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
                    if result.converged:
                        continue
                    unconverged += 1
                    beta_at_bound = abs(math.log(result.estimates.beta)) >= 7.0 - 1e-9
                    if not (result.at_nu_bound or beta_at_bound):
                        assert _no_worse(nll, _nelder_mead_oracle(family, x)), case
    assert unconverged <= 6


# The fits that take finite differences, on draws of the family itself as
# the benchmark's fit-shapes requests make them: (family, beta, free_eta).
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
    # gengamma and cgamma fits can end unconverged at n = 10 or at nu = 50
    # (see the grid test), so they are checked at n = 1000, nu <= 5 only.
    grid = [(1000, 1.5), (1000, 5.0)] if family in ("gengamma", "cgamma") else [
        (n, nu) for n in (100, 1000) for nu in (1.5, 5.0, 50.0)]
    for n, nu in grid:
        x = _workload_like(family, beta, free_eta, n, nu, seed=n)
        result = fit_mle(family, Sample(x), opts)
        assert result.converged, (n, nu)
        assert _no_worse(result.neg_log_lik, _nelder_mead_oracle(family, x, opts)), (n, nu)


@pytest.mark.parametrize("family, beta, free_eta", _FD_FITS, ids=_FD_IDS)
def test_every_fit_takes_quasi_newton(monkeypatch, family, beta, free_eta):
    x = _workload_like(family, beta, free_eta, 1000, 1.5, seed=2)
    methods = _record_methods(monkeypatch)
    assert fit_mle(family, Sample(x), FitOptions(free_eta=free_eta)).converged
    assert methods and set(methods) == {"L-BFGS-B"}


def test_gengamma_fit_leaves_the_nu_cap_on_genweibull_data():
    # The maximum is near nu = 6.5 (nll 425.36); Nelder-Mead from the same
    # starts stops at the nu cap with nll 428.08 and reports convergence.
    x = make_handle("genweibull", nu=3.0, beta=1.5).sample(500, make_stream(1))
    res = fit_mle("gengamma", Sample(x))
    assert res.converged
    assert res.neg_log_lik < 426.0
    assert not res.at_nu_bound
