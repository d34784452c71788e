"""Maximum-likelihood fitting of any family member to a univariate sample.

The optimiser works in transformed coordinates: log tau and log beta are
free, while the tail index is handled as theta = 1/nu on [1e-6, 1e3] so
that the exponential limit nu -> infinity is a reachable boundary point
(theta -> 1e-6, i.e. nu capped at ``FitOptions.nu_cap`` = 1e6).
Light-tailed data drives theta to that bound; ``FitResult.at_nu_bound``
flags it.

Every fit but the closed-form exponential is made by the bounded
quasi-Newton method L-BFGS-B on the kernel's closed-form score:
``nll_score`` gives the NLL and its gradient in (log_tau, theta, log_beta),
with an eta component when the location is free.  genexp and Lomax run the
genweibull and Burr XII scores at log_beta = 0, a pinned log_beta's
component is dropped, and the exponential's and genexp2's scores ignore
what they do not use.  The reported NLL is taken from the kernel's
``log_pdf``, as ``neg_log_likelihood`` takes it.  A fit is ``converged`` when
the infinity norm of its projected gradient is at most 1e-6 (1 + |nll|) and
beta is not at its bound e^7 or e^-7: that bound is the edge of the box,
not an optimum.  The optimiser's own status is not used, because its line
search can stop at the optimum with an "abnormal termination" when the
likelihood is flat.

A fit starts from the base start (the sample mean as scale, nu = 1e3).
The heavy-tail start (median-matched scale, nu = 2) runs as well wherever
the base fit leaves room for a lower NLL elsewhere.  With log beta or eta
free it always does: the NLL's infimum can lie on an edge of the box (log
beta at its bound, or eta at the smallest point) even when the base fit is
a converged interior optimum, and no test of the base fit rules that out.
Otherwise (genexp, Lomax and genexp2 at a fixed location) it runs when the
base fit is unconverged, stops with theta below 1e-4 (at or beside the nu
cap: the genexp log-survival is even in theta to second order, so a base
fit can stop at a stationary point beside the exponential limit), or the
score's NLL, taken at t = 0, 1/4, 1/2 and 3/4 along the segment from the
heavy start to the base fit and at the fit itself, does not fall strictly.
Samples of ten with one outlier can hold two genexp optima, one of them
interior.  Of the starts that ran, the lower negative log likelihood wins,
with its own ``converged`` flag.  There is no second optimiser: a fit that
fails the convergence test from every start it ran is returned with
``converged`` False.  Then there is no interior maximum to find: beta runs to its bound e^7 on a small sample, or,
with a free location and beta < 1, the likelihood grows without bound as
eta approaches the smallest observation (Smith 1985, Biometrika 72:67).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, minimize

from .distributions import _KERNELS, DistributionHandle, Family, Params
from .errors import DomainError

__all__ = ["Sample", "FitOptions", "FitResult", "neg_log_likelihood", "fit_mle", "fit_all"]

_THETA_MIN = 1e-6
_THETA_MAX = 1e3
_LOG_TAU_BOUND = 40.0
_LOG_BETA_BOUND = 7.0
_MAX_ITER = 4000  # per L-BFGS-B run
_THETA_NEAR_EXP = 1e-4  # a base fit below this theta also runs the heavy-tail start
_COMPONENTS = ("log_tau", "theta", "log_beta", "eta")  # the order of every score's gradient


@dataclass(frozen=True)
class Sample:
    """A univariate sample of nonnegative reals."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).reshape(-1)
        if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < 0.0)):
            raise DomainError("sample values must be finite and >= 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit_mle`; the defaults match the robustness study.

    ``free_eta`` also fits the location eta (below the smallest
    observation); by default it is fixed at 0.  ``nu_cap`` is the fixed cap
    on the tail index, 1e6 (theta = 1/nu is bounded below by 1e-6); it can
    be read but not set.  The optimiser's tolerances and iteration limit
    are fixed module constants.
    """

    free_eta: bool = False
    nu_cap: float = field(default=1.0 / _THETA_MIN, init=False)


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics from one maximum-likelihood fit.

    ``iterations`` counts the L-BFGS-B iterations over the starts that ran.
    """

    family: Family
    estimates: Params
    neg_log_lik: float
    converged: bool
    iterations: int
    at_nu_bound: bool


def neg_log_likelihood(handle: DistributionHandle, sample: Sample) -> float:
    """Minus the log likelihood; +inf if any point has zero density."""
    if len(sample) == 0:
        raise DomainError("cannot evaluate the likelihood of an empty sample")
    total = np.sum(handle.log_pdf(sample.values))
    if np.isnan(total):
        return math.inf
    return float(-total)


def _free_parameter_names(family: Family, opts: FitOptions, x: np.ndarray) -> list[str]:
    kernel = _KERNELS[family]
    names = ["log_tau"]
    if kernel.uses_nu:
        names.append("theta")
    # At a fixed location a point x = 0 makes the likelihood 0 for beta > 1 and
    # unbounded for beta < 1, so beta is pinned at 1.
    if kernel.uses_beta and (opts.free_eta or not np.any(x == 0.0)):
        names.append("log_beta")
    if opts.free_eta:
        names.append("eta")
    return names


def _unpack(names: list[str], vec: np.ndarray) -> tuple[float, float, float, float]:
    """(nu, beta, tau, eta) as plain floats from an optimiser vector."""
    values = dict(zip(names, vec))
    nu = 1.0 / values["theta"] if "theta" in values else 1.0
    beta = math.exp(values["log_beta"]) if "log_beta" in values else 1.0
    return float(nu), float(beta), math.exp(values["log_tau"]), float(values.get("eta", 0.0))


def _bounds(names: list[str], x: np.ndarray) -> Bounds:
    lo, hi = [], []
    for name in names:
        if name == "log_tau":
            lo.append(-_LOG_TAU_BOUND)
            hi.append(_LOG_TAU_BOUND)
        elif name == "theta":
            lo.append(_THETA_MIN)
            hi.append(_THETA_MAX)
        elif name == "log_beta":
            lo.append(-_LOG_BETA_BOUND)
            hi.append(_LOG_BETA_BOUND)
        else:  # eta must stay below the smallest observation
            lo.append(float(np.min(x)) - 100.0 * (float(np.mean(x)) + 1.0))
            hi.append(float(np.min(x)) * (1.0 - 1e-12) - 1e-300)
    return Bounds(np.array(lo), np.array(hi))


def _starts(names: list[str], x: np.ndarray) -> list[np.ndarray]:
    mean = float(np.mean(x))
    median = float(np.median(x))
    scale_exp = max(mean, 1e-12)
    scale_mom = max(median / math.log(2.0), 1e-12) if median > 0.0 else scale_exp
    base = {
        "log_tau": math.log(scale_exp), "theta": 1e-3, "log_beta": 0.0, "eta": 0.0,
    }
    heavy = {
        "log_tau": math.log(scale_mom), "theta": 0.5, "log_beta": 0.0, "eta": 0.0,
    }
    return [np.array([cfg[name] for name in names]) for cfg in (base, heavy)]


def _objective(kernel, names: list[str], x: np.ndarray):
    """Negative log likelihood of ``x`` as a function of the optimiser vector."""

    def objective(vec: np.ndarray) -> float:
        nu, beta, tau, eta = _unpack(names, vec)
        y = (x - eta) / tau
        if np.any(y < 0.0):
            return math.inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lp = kernel.log_pdf(y, nu, beta) - math.log(tau)
        total = np.sum(lp)
        if np.isnan(total):
            return math.inf
        return float(-total)

    return objective


def _at_nu_bound(names: list[str], vec: np.ndarray) -> bool:
    """Whether theta sits at its lower bound, i.e. nu at the cap."""
    return "theta" in names and bool(vec[names.index("theta")] <= _THETA_MIN * (1.0 + 1e-9))


def _near_exponential(names: list[str], vec: np.ndarray) -> bool:
    """Whether theta is below 1e-4, at or beside the nu cap."""
    return "theta" in names and bool(vec[names.index("theta")] < _THETA_NEAR_EXP)


def _at_beta_bound(names: list[str], vec: np.ndarray) -> bool:
    """Whether log beta sits at either end of its box."""
    return "log_beta" in names and bool(
        abs(vec[names.index("log_beta")]) >= _LOG_BETA_BOUND * (1.0 - 1e-9))


def _score(kernel, names: list[str], x: np.ndarray):
    """The kernel's NLL and gradient as a function of the optimiser vector."""
    if "eta" not in names:
        def score(vec: np.ndarray):
            # The names are a prefix of (log_tau, theta, log_beta); a pinned
            # log_beta takes the score's default 0 and its component is dropped.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                nll, grad = kernel.nll_score(x, *vec)
            return nll, grad[:vec.size]
        return score
    # The score's gradient runs over (log_tau, theta, log_beta, eta).
    pick = [_COMPONENTS.index(name) for name in names]

    def score_with_eta(vec: np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nll, grad = kernel.nll_score(x, *vec[:-1], eta=vec[-1])
        return nll, grad[pick]
    return score_with_eta


def _descends_to(fun, start: np.ndarray, res) -> bool:
    """Whether the score's NLL falls strictly along the segment from ``start``
    to the fit ``res``, sampled at t = 0, 1/4, 1/2 and 3/4 and at the fit."""
    path = [fun(start + t * (res.x - start))[0] for t in (0.0, 0.25, 0.5, 0.75)]
    return bool(np.all(np.diff(path + [res.fun]) < 0.0))


def _result(family: Family, names: list[str], vec: np.ndarray, nll: float,
            converged: bool, iterations: int) -> FitResult:
    nu, beta, tau, eta = _unpack(names, vec)
    return FitResult(family, Params(nu=nu, beta=beta, tau=tau, eta=eta), nll,
                     converged=bool(converged), iterations=int(iterations),
                     at_nu_bound=_at_nu_bound(names, vec))


def _fit_quasi_newton(family: Family, x: np.ndarray, names: list[str]) -> FitResult:
    """L-BFGS-B on the kernel's score from the base start and, if that fit
    leaves room for a second optimum, from the heavy-tail start."""
    kernel = _KERNELS[family]
    bounds = _bounds(names, x)
    fun = _score(kernel, names, x)
    options = {"ftol": 1e-15, "gtol": 1e-9, "maxiter": _MAX_ITER}
    base, heavy = (np.clip(start, bounds.lb, bounds.ub) for start in _starts(names, x))

    def run(start: np.ndarray):
        res = minimize(fun, start, method="L-BFGS-B", jac=True, bounds=bounds, options=options)
        projected = np.clip(res.x - res.jac, bounds.lb, bounds.ub) - res.x
        # log beta at its bound is the edge of the box, not an optimum.
        converged = (np.max(np.abs(projected)) <= 1e-6 * (1.0 + abs(res.fun))
                     and not _at_beta_bound(names, res.x))
        return res, converged

    best, converged = run(base)
    iterations = best.nit
    # With log beta or eta free the NLL's infimum can lie on an edge of the box,
    # which no test of the base fit rules out.  Otherwise a second optimum is
    # possible when the base fit is unconverged, stops at or beside the nu cap,
    # or the NLL rises somewhere on the way from the heavy start.
    if ("log_beta" in names or "eta" in names or not converged
            or _near_exponential(names, best.x) or not _descends_to(fun, heavy, best)):
        res, res_converged = run(heavy)
        iterations += res.nit
        if res.fun < best.fun:
            best, converged = res, res_converged
    # Report the likelihood from the kernel's log_pdf, as neg_log_likelihood does.
    return _result(family, names, best.x, _objective(kernel, names, x)(best.x), converged,
                   iterations)


def fit_mle(family, sample: Sample, options: FitOptions | None = None) -> FitResult:
    """Fit one family to ``sample`` by minimising the negative log likelihood.

    The exponential with fixed location has a closed form.  Every other fit
    runs L-BFGS-B on the kernel's closed-form score from the base start, and
    from the heavy-tail start too if log beta or eta is free, or unless the
    base fit converges with theta at least 1e-4, on a slope that falls all
    the way from the heavy start.
    A fit that fails the convergence test, or stops with beta at its bound,
    is returned with ``converged`` False (see the module docstring).

    With the location fixed, a sample holding an exact 0 has no maximum in
    beta: its likelihood is 0 for beta > 1 and unbounded for beta < 1.  The
    families with a shape beta (genweibull, gengamma, Burr XII, cgamma) are
    then fitted at beta = 1, where they are genexp or the Lomax.
    """
    family = Family.parse(family)
    opts = options or FitOptions()
    x = sample.values
    names = _free_parameter_names(family, opts, x)
    if len(sample) < len(names):
        raise DomainError(
            f"need at least {len(names)} observations to fit {family.value}, got {len(sample)}")

    if family is Family.EXPONENTIAL and not opts.free_eta:
        # Closed-form MLE: tau-hat is the sample mean, exactly.
        tau_hat = float(np.mean(x))
        if tau_hat <= 0.0:
            tau_hat = 1e-300
        params = Params(nu=1.0, tau=tau_hat)
        nll = neg_log_likelihood(DistributionHandle(family, params), sample)
        return FitResult(family, params, nll, converged=True, iterations=0,
                         at_nu_bound=False)

    return _fit_quasi_newton(family, x, names)


_DEFAULT_FAMILIES = (Family.EXPONENTIAL, Family.LOMAX, Family.GEN_EXP)


def fit_all(sample: Sample, options: FitOptions | None = None,
            families=_DEFAULT_FAMILIES) -> list[FitResult]:
    """Fit several families and return the results sorted by neg_log_lik.

    A failure in one family does not abort the others; the failed family is
    reported as an unconverged placeholder with infinite neg_log_lik.
    """
    results = []
    for family in families:
        family = Family.parse(family)
        try:
            results.append(fit_mle(family, sample, options))
        except DomainError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            warnings.warn(f"fit of {family.value} failed: {exc}")
            fallback = Params(nu=1.0, tau=max(float(np.mean(sample.values)), 1e-300))
            results.append(FitResult(family, fallback, math.inf, converged=False,
                                     iterations=0, at_nu_bound=False))
    return sorted(results, key=lambda r: r.neg_log_lik)
