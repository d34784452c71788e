"""Maximum-likelihood fitting of any family member to a univariate sample.

Every fit works on four fixed slots, (log tau, theta, log beta, eta), the
order of every kernel's score gradient.  A free mask marks the slots the
family fits; a slot that is not free holds its pinned value, theta = 1,
log beta = 0 or eta = 0, which gives nu = beta = 1 where a family ignores
them.  The tail index is fitted as theta = 1/nu on [1e-6, 1e3], so that
the exponential limit nu -> infinity is a reachable boundary point (theta
-> 1e-6, i.e. nu capped at ``FitOptions.nu_cap`` = 1e6).  Light-tailed
data drives theta to that bound; ``FitResult.at_nu_bound`` flags it.

Every fit but the closed-form exponential is made by the bounded
quasi-Newton method L-BFGS-B on the kernel's closed-form score:
``nll_score`` gives the NLL and its gradient in (log_tau, theta, log_beta),
with an eta component when the location is free, and the fit keeps the
components of its free slots.  genexp and Lomax run the genweibull and
Burr XII scores at log_beta = 0, and the exponential's and genexp2's
scores ignore what they do not use.  The reported NLL is
``neg_log_likelihood`` of the fitted handle.  A fit is ``converged`` when
the infinity norm of its projected gradient is at most 1e-6 (1 + |nll|),
beta is not at its bound e^7 or e^-7 and theta is not at its upper bound
1e3 (nu = 1e-3): those are edges of the box, not optima.  The optimiser's
own status is not used, because its line search can stop at the optimum
with an "abnormal termination" when the likelihood is flat.

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
``converged`` False.  Then there is no interior maximum to find: beta runs
to its bound e^7 on a small sample; on ten draws with a tail index near
1/4 the likelihood rises along a ridge, nu -> 0 and beta -> infinity, to
theta's bound; or, with a free location and beta < 1, the likelihood grows
without bound as eta approaches the smallest observation (Smith 1985,
Biometrika 72:67).
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
# The slots of every fit, in the order of every score's gradient, and the
# values of the slots a family does not fit: nu = beta = 1, eta = 0.
_LOG_TAU, _THETA, _LOG_BETA, _ETA = range(4)
_PINNED = np.array([0.0, 1.0, 0.0, 0.0])


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


def _box(family: Family, opts: FitOptions, x: np.ndarray):
    """The free mask over the slots (log_tau, theta, log_beta, eta), the
    bounds of the free slots, and the base and heavy starts clipped to them."""
    kernel = _KERNELS[family]
    # At a fixed location a point x = 0 makes the likelihood 0 for beta > 1 and
    # unbounded for beta < 1, so beta is pinned at 1.
    flags = [True, kernel.uses_nu, kernel.uses_beta and (opts.free_eta or not np.any(x == 0.0)),
             opts.free_eta]
    k = sum(flags)
    if x.size < k:  # before np.min, which an empty sample would fail
        raise DomainError(f"need at least {k} observations to fit {family.value}, got {x.size}")
    least, mean, median = float(np.min(x)), float(np.mean(x)), float(np.median(x))
    # eta must stay below the smallest observation
    lo = np.array([-_LOG_TAU_BOUND, _THETA_MIN, -_LOG_BETA_BOUND, least - 100.0 * (mean + 1.0)])
    hi = np.array([_LOG_TAU_BOUND, _THETA_MAX, _LOG_BETA_BOUND, least * (1.0 - 1e-12) - 1e-300])
    free = np.array(flags)
    bounds = Bounds(lo[free], hi[free])
    scale_exp = max(mean, 1e-12)
    scale_mom = max(median / math.log(2.0), 1e-12) if median > 0.0 else scale_exp
    starts = [np.clip(np.array([math.log(scale), theta, 0.0, 0.0])[free], bounds.lb, bounds.ub)
              for scale, theta in ((scale_exp, 1e-3), (scale_mom, 0.5))]
    return free, bounds, starts


def _slots(free: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The slots (log_tau, theta, log_beta, eta), ``vec`` in the free ones."""
    slots = _PINNED.copy()
    slots[free] = vec
    return slots


def _params(slots: np.ndarray) -> Params:
    log_tau, theta, log_beta, eta = slots
    return Params(nu=1.0 / theta, beta=math.exp(log_beta), tau=math.exp(log_tau), eta=eta)


def _score(kernel, free: np.ndarray, x: np.ndarray):
    """The kernel's NLL and its gradient in the free slots, as a function of
    the free slots' values."""
    slots = _PINNED.copy()
    pick = np.flatnonzero(free)  # the gradient has an eta component only if eta is free
    free_eta = bool(free[_ETA])

    def score(vec: np.ndarray):
        slots[pick] = vec
        log_tau, theta, log_beta, eta = slots.tolist()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nll, grad = kernel.nll_score(x, log_tau, theta, log_beta,
                                         eta=eta if free_eta else None)
        return nll, grad[pick]
    return score


def _descends_to(fun, start: np.ndarray, res) -> bool:
    """Whether the score's NLL falls strictly along the segment from ``start``
    to the fit ``res``, sampled at t = 0, 1/4, 1/2 and 3/4 and at the fit."""
    path = [fun(start + t * (res.x - start))[0] for t in (0.0, 0.25, 0.5, 0.75)]
    return bool(np.all(np.diff(path + [res.fun]) < 0.0))


def _fit_quasi_newton(family: Family, sample: Sample, free: np.ndarray, bounds: Bounds,
                      starts: list[np.ndarray]) -> FitResult:
    """L-BFGS-B on the kernel's score from the base start and, if that fit
    leaves room for a second optimum, from the heavy-tail start."""
    fun = _score(_KERNELS[family], free, sample.values)
    options = {"ftol": 1e-15, "gtol": 1e-9, "maxiter": _MAX_ITER}
    base, heavy = starts

    def run(start: np.ndarray):
        res = minimize(fun, start, method="L-BFGS-B", jac=True, bounds=bounds, options=options)
        projected = np.clip(res.x - res.jac, bounds.lb, bounds.ub) - res.x
        slots = _slots(free, res.x)
        # log beta at its bound, or theta at its upper bound, is the edge of
        # the box, not an optimum.
        converged = (np.max(np.abs(projected)) <= 1e-6 * (1.0 + abs(res.fun))
                     and abs(slots[_LOG_BETA]) < _LOG_BETA_BOUND * (1.0 - 1e-9)
                     and slots[_THETA] < _THETA_MAX * (1.0 - 1e-9))
        return res, slots, converged

    first, slots, converged = run(base)
    iterations = first.nit
    # With log beta or eta free the NLL's infimum can lie on an edge of the box,
    # which no test of the base fit rules out.  Otherwise a second optimum is
    # possible when the base fit is unconverged, stops at or beside the nu cap,
    # or the NLL rises somewhere on the way from the heavy start.
    if (free[_LOG_BETA] or free[_ETA] or not converged
            or slots[_THETA] < _THETA_NEAR_EXP or not _descends_to(fun, heavy, first)):
        second, second_slots, second_converged = run(heavy)
        iterations += second.nit
        if second.fun < first.fun:
            slots, converged = second_slots, second_converged
    params = _params(slots)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nll = neg_log_likelihood(DistributionHandle(family, params), sample)
    return FitResult(family, params, nll, converged=bool(converged), iterations=int(iterations),
                     at_nu_bound=bool(slots[_THETA] <= _THETA_MIN * (1.0 + 1e-9)))


def fit_mle(family, sample: Sample, options: FitOptions | None = None) -> FitResult:
    """Fit one family to ``sample`` by minimising the negative log likelihood.

    The exponential with fixed location has a closed form.  Every other fit
    runs L-BFGS-B over the free slots of (log_tau, theta, log_beta, eta),
    the others pinned at theta = 1, log_beta = 0 and eta = 0, on the
    kernel's closed-form score from the base start, and from the heavy-tail
    start too if log beta or eta is free, or unless the base fit converges
    with theta at least 1e-4, on a slope that falls all the way from the
    heavy start.  A fit that fails the convergence test, or stops with beta
    at its bound or theta at its upper bound 1e3, is returned with
    ``converged`` False (see the module docstring).

    With the location fixed, a sample holding an exact 0 has no maximum in
    beta: its likelihood is 0 for beta > 1 and unbounded for beta < 1.  The
    families with a shape beta (genweibull, gengamma, Burr XII, cgamma) are
    then fitted at beta = 1, where they are genexp or the Lomax.  A sample
    with fewer points than free slots raises ``DomainError``.
    """
    family = Family.parse(family)
    opts = options or FitOptions()
    # An empty sample falls through to the size check in _box.
    if family is Family.EXPONENTIAL and not opts.free_eta and len(sample):
        # Closed-form MLE: tau-hat is the sample mean, exactly.
        tau_hat = float(np.mean(sample.values))
        if tau_hat <= 0.0:
            tau_hat = 1e-300
        params = Params(nu=1.0, tau=tau_hat)
        nll = neg_log_likelihood(DistributionHandle(family, params), sample)
        return FitResult(family, params, nll, converged=True, iterations=0,
                         at_nu_bound=False)

    return _fit_quasi_newton(family, sample, *_box(family, opts, sample.values))


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
