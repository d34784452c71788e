"""Maximum-likelihood fitting of any family member to a univariate sample.

Every fit works on four fixed slots, (log tau, theta, log beta, eta), the
order of every kernel's score gradient.  A free mask marks the slots the
family fits; a slot that is not free holds its pinned value, theta = 1,
log beta = 0 or eta = 0, which gives nu = beta = 1 where a family ignores
them.  The tail index is fitted as theta = 1/nu on [1e-6, 1e3], so that
the exponential limit nu -> infinity is a reachable boundary point (theta
-> 1e-6, i.e. nu capped at ``FitOptions.nu_cap`` = 1e6).  Light-tailed
data drives theta to that bound; ``FitResult.at_nu_bound`` flags it.

Every fit but the closed-form exponential runs one of two bounded
optimisers, chosen by the free mask and the kernel.  A fit whose free
slots are exactly (log_tau, theta), on a kernel with ``nll_hessian_rows``
(the power-tail kernel at beta = 1 and a fixed location), runs projected Newton
(Bertsekas 1982) in a trust region on the closed-form NLL, gradient and
Hessian: genexp and the Lomax, and genweibull and Burr XII on a sample
holding 0, where beta is pinned and each fit is its beta = 1 member's.
Every other fit (log beta free, eta free, genexp2, gengamma and cgamma)
falls back to the bounded quasi-Newton method L-BFGS-B on the kernel's
closed-form score:
``nll_score`` gives the NLL and its gradient in (log_tau, theta, log_beta),
with an eta component when the location is free, and the fit keeps the
components of its free slots.  genexp and Lomax run the genweibull and
Burr XII kernels at log_beta = 0, and the exponential's and genexp2's
scores ignore what they do not use.  The reported NLL is
``neg_log_likelihood`` of the fitted handle.  A fit is ``converged`` when
the infinity norm of its projected gradient is at most 1e-6 (1 + |nll|),
beta is not at its bound e^7 or e^-7, theta is not at its upper bound
1e3 (nu = 1e-3), tau is not at its lower bound e^-40 and the reported NLL
is finite.  Those bounds are edges of the box, not optima: a point at 0
has density 1/tau, so a sample holding 0 can drive the NLL down without
bound as tau -> 0.  The kernel's NLL stays finite where x/tau overflows,
while the handle's does not.  The optimiser's own status is not used,
because its line search can stop at the optimum with an "abnormal
termination" when the likelihood is flat.  Newton runs further, to a
projected gradient of at most 1e-10 (1 + |nll|).

A fit starts from the base start (the sample mean as scale, nu = 1e3) and
the heavy-tail start (median-matched scale, nu = 2).  L-BFGS-B always runs
both: with log beta or eta free the NLL's infimum can lie on an edge of
the box (log beta at its bound, or eta at the smallest point) even when
the base fit is a converged interior optimum, and a genexp2 sample can
hold a second, lower optimum.  Newton adds the heavy start only when its
best run is unconverged or stops with theta below 1e-4, at or beside the
nu cap: the genexp log-survival is even in theta to second order, so a
fit can stop at a stationary point beside the exponential limit, and a
shallow interior optimum can lie where only the heavy start reaches it.
Samples of ten with one outlier can hold two genexp optima, one of them
interior.

Below ``_NEWTON_MIN_SIZE`` = 20 points the genexp and Lomax likelihoods
often hold several local optima, and two local runs from the fixed starts
can both stop in a higher one: on ten heavy-tailed draws, Newton from the
base and heavy starts stopped higher than L-BFGS-B from both starts on 11
of 32,000 fits.  So a Newton fit to a small sample also starts from the two
lowest 8-neighbour local minima of the NLL on a coarse grid, taken by the
kernel's ``nll_grid`` in one numpy pass for all samples of one length (as
many as fit in ``_GRID_CAP`` = 2^18 grid points): theta at 37 points a quarter
decade apart over its box, by log tau at 24 even steps from 3 below the log
of the least positive point to 1 above the log of the largest.  The rule
for the heavy start is the same at every size.  Over 64,000 fits to 10-15
heavy-tailed draws, no fit stopped higher than L-BFGS-B from both starts.
The grid's cost grows with n, and from 20 points on Newton without it
stopped higher on none of 36,800 fits.

Newton fits of many samples run as one batch, whose rows are the (sample,
start) runs: the base and grid starts of every sample first, then the
heavy starts of the samples whose best run needs one.  The rows run in
lockstep, in chunks of at most ``_POINT_CAP`` = 2^14 sample points, which
bounds the memory a batch takes.  Each iteration makes one call of the
kernel's ``nll_hessian_rows`` for the rows that propose a trial point, on
their samples concatenated; each row computes its own step on Python floats,
as a fit alone does, and accepts it and stops on its own test.  The kernel
sums each row's points by one ``np.add.reduceat``, and a segment's sum does
not depend on the segments beside it, so a fit is the same to the last bit
whichever samples share its batch; ``fit_mle`` is a batch of one sample.

Of the starts that ran, the lowest negative log likelihood wins,
with its own ``converged`` flag.  There is no refit by another optimiser: a
fit that fails the convergence test from every start it ran is returned with
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
_NEWTON_MAX_ITER = 200  # per Newton run
_NEWTON_RADIUS = 0.1  # the first trust radius of a Newton run
_NEWTON_MIN_SIZE = 20  # smaller samples also start from a likelihood grid (module docstring)
_THETA_GRID = np.logspace(-6.0, 3.0, 37)  # that grid's theta, a quarter decade apart
_THETA_NEAR_EXP = 1e-4  # a Newton fit stopping below this theta also runs the heavy-tail start
_POINT_CAP = 2 ** 14  # sample points per lockstep Newton chunk (module docstring)
_GRID_CAP = 2 ** 18  # grid points, samples x theta x log tau x n, per nll_grid pass
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

    ``iterations`` counts the Newton or L-BFGS-B iterations over every start
    that ran: the base start, the grid starts of a small sample and the
    heavy-tail start.
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
    bounds (lo, hi) of the free slots, and the base and heavy starts clipped
    to them; bounds and starts are lists of floats."""
    kernel = _KERNELS[family]
    least = float(x.min()) if x.size else math.inf
    # At a fixed location a point x = 0 (the least, as x >= 0) makes the likelihood
    # 0 for beta > 1 and unbounded for beta < 1, so beta is pinned at 1.
    free = np.array([True, kernel.uses_nu,
                     kernel.uses_beta and (opts.free_eta or least != 0.0), opts.free_eta])
    k = int(free.sum())
    if x.size < k:
        raise DomainError(f"need at least {k} observations to fit {family.value}, got {x.size}")
    mean, half = float(x.sum()) / x.size, x.size // 2
    middle = np.partition(x, [(x.size - 1) // 2, half])
    median = float(middle[half]) if x.size % 2 else float(middle[half - 1] + middle[half]) / 2.0
    pick = np.flatnonzero(free).tolist()
    # eta must stay below the smallest observation
    lo = [(-_LOG_TAU_BOUND, _THETA_MIN, -_LOG_BETA_BOUND, least - 100.0 * (mean + 1.0))[i]
          for i in pick]
    hi = [(_LOG_TAU_BOUND, _THETA_MAX, _LOG_BETA_BOUND, least * (1.0 - 1e-12) - 1e-300)[i]
          for i in pick]
    scale_exp = max(mean, 1e-12)
    scale_mom = max(median / math.log(2.0), 1e-12) if median > 0.0 else scale_exp
    starts = [[min(max((math.log(scale), theta, 0.0, 0.0)[i], lo_i), hi_i)
               for i, lo_i, hi_i in zip(pick, lo, hi)]
              for scale, theta in ((scale_exp, 1e-3), (scale_mom, 0.5))]
    return free, (lo, hi), starts


def _slots(free: np.ndarray, vec) -> np.ndarray:
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

    def score(vec):
        slots[pick] = vec
        log_tau, theta, log_beta, eta = slots.tolist()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nll, grad = kernel.nll_score(x, log_tau, theta, log_beta,
                                         eta=eta if free_eta else None)
        return nll, grad[pick]
    return score


def _projected_gradient(vec, grad, lo, hi) -> float:
    """The infinity norm of the projected gradient clip(vec - grad, lo, hi) - vec."""
    return max(abs(min(max(v - g, l), h) - v) for v, g, l, h in zip(vec, grad, lo, hi))


def _fit_quasi_newton(score, start, bounds: Bounds):
    """L-BFGS-B on ``score`` from ``start``: (the end point, its NLL, its
    gradient, the iterations)."""
    res = minimize(score, start, method="L-BFGS-B", jac=True, bounds=bounds,
                   options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": _MAX_ITER})
    return res.x.tolist(), res.fun, res.jac.tolist(), res.nit


def _trust_step(grad, hess, radius) -> list[float]:
    """The minimiser of the model g.s + s.H.s/2 over |s| <= radius (Moré and
    Sorensen 1983), for the 2x2 Hessian H = (a, b, c) = [[a, b], [b, c]], on
    Python floats.

    It is the Newton step if H is positive definite and the step is short
    enough; otherwise the step -(H + lam I)^-1 g that is ``radius`` long, with
    lam above the least eigenvalue's negative, found by Newton's method on
    1/radius - 1/|s(lam)| in H's eigenbasis.
    """
    (g0, g1), (a, b, c) = grad, hess
    half = math.hypot(0.5 * (a - c), b)
    l1, l2 = 0.5 * (a + c) - half, 0.5 * (a + c) + half
    # (u, v) is the unit eigenvector of l1, (-v, u) that of l2
    u, v = (b, l1 - a) if abs(l1 - a) >= abs(l1 - c) else (l1 - c, b)
    norm = math.hypot(u, v)
    u, v = (u / norm, v / norm) if norm > 0.0 else (1.0, 0.0)
    y1, y2 = g0 * u + g1 * v, g1 * u - g0 * v
    if l1 > 0.0 and math.hypot(y1 / l1, y2 / l2) <= radius:
        lam = 0.0
    elif y1 == 0.0:
        # g has no component along the least eigenvector: if no lam above
        # max(0, -l1) makes the step radius long (the hard case), the step at
        # lam = -l1 is completed along that eigenvector.
        lam = max(-l1, abs(y2) / radius - l2, 0.0)
        s2 = -y2 / (l2 + lam) if l2 + lam > 0.0 else 0.0
        s1 = math.sqrt(max(radius * radius - s2 * s2, 0.0)) if lam == -l1 else 0.0
        return [s1 * u - s2 * v, s1 * v + s2 * u]
    else:
        # From the left of the root, where |s| >= radius, Newton's method on
        # the concave 1/radius - 1/|s(lam)| rises to it monotonically.
        lam = 0.0 if l1 > 0.0 else abs(y1) / radius - l1
        for _ in range(50):
            d1, d2 = l1 + lam, l2 + lam
            length = math.hypot(y1 / d1, y2 / d2)
            if length <= radius * (1.0 + 1e-9):
                break
            slope = (y1 * y1 / d1 ** 3 + y2 * y2 / d2 ** 3) / length ** 3
            lam += (1.0 / radius - 1.0 / length) / slope
    s1, s2 = -y1 / (l1 + lam), -y2 / (l2 + lam)
    return [s1 * u - s2 * v, s1 * v + s2 * u]


def _newton_step(vec, grad, hess, lo, hi, radius) -> list[float]:
    """The trust-region step of projected Newton in (log_tau, theta).

    A slot at a bound whose gradient points out of the box stays there, and so
    does one at a bound that the two-slot step would push out of it; the
    other slot then takes the one-slot step, at most ``radius`` long.
    """
    held = [(v <= lo_i and g > 0.0) or (v >= hi_i and g < 0.0)
            for v, g, lo_i, hi_i in zip(vec, grad, lo, hi)]
    if not any(held):
        step = _trust_step(grad, hess, radius)
        held = [(v <= lo_i and s < 0.0) or (v >= hi_i and s > 0.0)
                for v, s, lo_i, hi_i in zip(vec, step, lo, hi)]
        if not any(held):
            return step
    step = [0.0, 0.0]
    if not all(held):
        i = held.index(False)
        curvature = hess[0] if i == 0 else hess[2]
        one = -grad[i] / curvature if curvature > 0.0 else -math.copysign(radius, grad[i])
        step[i] = min(max(one, -radius), radius)
    return step


def _propose(vec, nll, grad, hess, lo, hi, radius):
    """One row's trial point of projected Newton, with the model's predicted
    fall to it, the step's length and the NLL's rounding level; None where
    the run stops."""
    if _projected_gradient(vec, grad, lo, hi) <= 1e-10 * (1.0 + abs(nll)):
        return None
    step = _newton_step(vec, grad, hess, lo, hi, radius)
    # the fraction t of the step inside the box, and the slot that meets its edge
    t, edge = 1.0, None
    for i, (v, s) in enumerate(zip(vec, step)):
        if s != 0.0 and ((hi[i] if s > 0.0 else lo[i]) - v) / s < t:
            t, edge = ((hi[i] if s > 0.0 else lo[i]) - v) / s, i
    trial = [min(max(v + t * s, lo_i), hi_i) for v, s, lo_i, hi_i in zip(vec, step, lo, hi)]
    if edge is not None:
        trial[edge] = hi[edge] if step[edge] > 0.0 else lo[edge]
    if trial == vec:
        return None
    (p0, p1), (a, b, c) = [u - v for u, v in zip(trial, vec)], hess
    predicted = -(grad[0] * p0 + grad[1] * p1 + 0.5 * (a * p0 * p0 + 2.0 * b * p0 * p1 + c * p1 * p1))
    rounding = 1e-15 * (1.0 + abs(nll))
    if edge is None and predicted <= rounding:
        return None
    return trial, predicted, math.hypot(p0, p1), rounding


def _row_kernel(kernel, xs):
    """``evaluate(rows, points)``: the NLL, gradient and Hessian of each sample
    ``xs[row]`` at its (log_tau, theta) point, as lists of Python floats, from
    one ``kernel.nll_hessian_rows`` call.  The rows' samples are concatenated
    once per set of rows: a Newton run's rows only ever shrink to a subset."""
    joined, x, lengths = None, None, None  # the rows last joined, their samples and sizes

    def evaluate(rows, points):
        nonlocal joined, x, lengths
        if rows != joined:
            joined, x = rows, np.concatenate([xs[i] for i in rows])
            lengths = np.array([xs[i].size for i in rows])
        nll, grad, hess = kernel.nll_hessian_rows(x, lengths, *zip(*points))
        return nll.tolist(), grad.tolist(), hess.tolist()
    return evaluate


def _chunks(sizes, cap):
    """Consecutive slices of ``sizes`` each summing to at most ``cap``, or of one item."""
    begin, total = 0, 0
    for end, size in enumerate(sizes):
        if end > begin and total + size > cap:
            yield slice(begin, end)
            begin, total = end, 0
        total += size
    if begin < len(sizes):
        yield slice(begin, len(sizes))


def _fit_newton(kernel, rows, lo, hi):
    """Projected Newton (Bertsekas 1982, SIAM J. Control Optim. 20:221) in a
    trust region, on ``kernel.nll_hessian_rows`` over the box [lo, hi] of
    (log_tau, theta), for each row (sample, start) of ``rows``: a list of
    (the end point, its NLL, its gradient, the iterations), one per row.

    The rows run in lockstep, in chunks of at most ``_POINT_CAP`` sample
    points: each iteration makes one kernel call for the rows that propose a
    trial point, and each row takes its own step, acceptance and stop.  A
    step that would leave the box stops at its edge, and the slot it stops on
    is set to its bound.  The trust radius starts at ``_NEWTON_RADIUS``; it
    shrinks to a quarter of the step when the NLL falls by less than a quarter
    of the quadratic model's prediction, and doubles, up to ``_THETA_MAX``,
    when a full-length step falls by more than three quarters of it.  A step
    is taken when the NLL falls by at least 1e-4 of the prediction, less the
    NLL's rounding level, 1e-15 (1 + |nll|).  A row stops when the projected
    gradient is at most 1e-10 (1 + |nll|), when a step inside the box predicts
    a decrease at rounding level, when a step no longer moves the point, or
    after ``_NEWTON_MAX_ITER`` steps, rejected ones included.
    """
    ends = []
    for chunk in _chunks([x.size for x, _ in rows], _POINT_CAP):
        evaluate = _row_kernel(kernel, [x for x, _ in rows[chunk]])
        vecs = [list(start) for _, start in rows[chunk]]
        active = list(range(len(vecs)))
        nlls, grads, hesses = evaluate(active, vecs)
        radii = [_NEWTON_RADIUS] * len(vecs)
        stops = [_NEWTON_MAX_ITER] * len(vecs)
        for iteration in range(_NEWTON_MAX_ITER):
            proposals = []
            for i in active:
                proposal = _propose(vecs[i], nlls[i], grads[i], hesses[i], lo, hi, radii[i])
                if proposal is None:
                    stops[i] = iteration
                else:
                    proposals.append((i, *proposal))
            active = [i for i, *_ in proposals]
            if not active:
                break
            trial_nlls, trial_grads, trial_hesses = evaluate(active, [p[1] for p in proposals])
            for (i, trial, predicted, length, rounding), trial_nll, trial_grad, trial_hess in zip(
                    proposals, trial_nlls, trial_grads, trial_hesses):
                fall = nlls[i] - trial_nll
                if fall < 0.25 * predicted:
                    radii[i] = 0.25 * length
                elif fall > 0.75 * predicted and length >= 0.9 * radii[i]:
                    radii[i] = min(2.0 * radii[i], _THETA_MAX)
                if fall >= 1e-4 * predicted - rounding:
                    vecs[i], nlls[i], grads[i], hesses[i] = trial, trial_nll, trial_grad, trial_hess
        ends += zip(vecs, nlls, grads, stops)
    return ends


def _grid_starts(kernel, xs, lo, hi) -> list[list[list[float]]]:
    """For each of the equal-length samples ``xs``, the two lowest 8-neighbour
    local minima of its NLL on a coarse grid of (log_tau, theta): theta at a
    quarter decade over its box, and log tau at 24 even steps from 3 below
    log min(x > 0) to 1 above log max(x) (from -3 to 1 if no point is
    positive), clipped to its box.  One ``nll_grid`` pass takes as many
    samples as fit in ``_GRID_CAP`` grid points."""
    xs = np.array(xs)
    samples, n = xs.shape
    positive = xs > 0.0
    least = np.min(xs, axis=1, where=positive, initial=math.inf).tolist()
    most = np.max(xs, axis=1, where=positive, initial=-math.inf).tolist()
    ends = [(math.log(low) - 3.0, math.log(high) + 1.0) if math.isfinite(low) else (-3.0, 1.0)
            for low, high in zip(least, most)]
    log_tau = np.clip(np.linspace(*zip(*ends), 24, axis=1), lo[0], hi[0])
    starts = []
    for chunk in _chunks([_THETA_GRID.size * 24 * n] * samples, _GRID_CAP):
        nll = kernel.nll_grid(xs[chunk], log_tau[chunk], _THETA_GRID)
        # a finite point no higher than any of its 8 neighbours (+inf off the
        # grid): the least of its 3 x 3 block, taken along each axis in turn
        size, rows, cols = nll.shape
        block = np.full((size, rows + 2, cols + 2), math.inf)
        block[:, 1:-1, 1:-1] = nll
        block = np.minimum(np.minimum(block[:, :, :-2], block[:, :, 1:-1]), block[:, :, 2:])
        block = np.minimum(np.minimum(block[:, :-2], block[:, 1:-1]), block[:, 2:])
        lowest = (nll <= block) & np.isfinite(nll)
        for grid, taus, minima in zip(nll, log_tau[chunk], lowest):
            minima = np.flatnonzero(minima)
            minima = minima[np.argsort(grid.flat[minima], kind="stable")[:2]]
            starts.append([[float(taus[k % cols]), float(_THETA_GRID[k // cols])] for k in minima])
    return starts


def _converged_at(free, lo, hi, vec, nll, grad) -> bool:
    """The convergence test of the module docstring: a small projected
    gradient, and log beta not at its bound, theta not at its upper bound
    and log tau not at its lower bound, which are edges of the box, not
    optima."""
    slots = _slots(free, vec)
    return (_projected_gradient(vec, grad, lo, hi) <= 1e-6 * (1.0 + abs(nll))
            and abs(slots[_LOG_BETA]) < _LOG_BETA_BOUND * (1.0 - 1e-9)
            and slots[_THETA] < _THETA_MAX * (1.0 - 1e-9)
            and slots[_LOG_TAU] > -_LOG_TAU_BOUND * (1.0 - 1e-9))


def _result(family: Family, sample: Sample, free, bounds, runs) -> FitResult:
    """The fit of the run with the lowest NLL (the earliest on a tie), with
    ``iterations`` summed over every run."""
    vec, nll, grad, _ = min(runs, key=lambda r: r[1])
    converged = _converged_at(free, *bounds, vec, nll, grad)
    slots = _slots(free, vec)
    params = _params(slots)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nll = neg_log_likelihood(DistributionHandle(family, params), sample)
    # The kernel's NLL stays finite where x/tau overflows; the handle's need not.
    return FitResult(family, params, nll, converged=bool(converged and math.isfinite(nll)),
                     iterations=sum(r[3] for r in runs),
                     at_nu_bound=bool(slots[_THETA] <= _THETA_MIN * (1.0 + 1e-9)))


def _fit_by_newton(family: Family, samples, boxes) -> list[FitResult]:
    """Newton fits of ``samples``, every run of every sample in lockstep: the
    base start and, below ``_NEWTON_MIN_SIZE`` points, the grid starts first,
    then the heavy-tail start of each sample whose best run is unconverged or
    stops with theta below ``_THETA_NEAR_EXP``."""
    kernel = _KERNELS[family]
    free, (lo, hi), _ = boxes[0]  # the (log_tau, theta) box is the same for every sample
    xs = [sample.values for sample in samples]
    grid = [[] for _ in samples]
    by_size = {}
    for i, x in enumerate(xs):
        if x.size < _NEWTON_MIN_SIZE:
            by_size.setdefault(x.size, []).append(i)
    for same in by_size.values():
        for i, starts in zip(same, _grid_starts(kernel, [xs[i] for i in same], lo, hi)):
            grid[i] = starts
    rows = [(i, start) for i, (_, _, (base, _)) in enumerate(boxes) for start in [base] + grid[i]]
    runs = [[] for _ in samples]
    for (i, _), end in zip(rows, _fit_newton(kernel, [(xs[i], start) for i, start in rows], lo, hi)):
        runs[i].append(end)

    def needs_heavy(i):
        vec, nll, grad, _ = min(runs[i], key=lambda r: r[1])
        return not _converged_at(free, lo, hi, vec, nll, grad) or vec[1] < _THETA_NEAR_EXP

    heavy = [i for i in range(len(samples)) if needs_heavy(i)]
    for i, end in zip(heavy, _fit_newton(kernel, [(xs[i], boxes[i][2][1]) for i in heavy], lo, hi)):
        runs[i].append(end)
    return [_result(family, sample, free, (lo, hi), sample_runs)
            for sample, sample_runs in zip(samples, runs)]


def _fit_samples(family: Family, samples, opts: FitOptions) -> list[FitResult]:
    """The fit of ``family`` to each of ``samples`` that ``fit_mle`` gives.
    Fits whose free slots are exactly (log_tau, theta), on a kernel with
    ``nll_hessian_rows``, run Newton together; every other fit runs L-BFGS-B
    from the base and heavy-tail starts, one at a time."""
    kernel = _KERNELS[family]
    boxes = [_box(family, opts, sample.values) for sample in samples]
    results = [None] * len(samples)
    newton = [i for i, (free, _, _) in enumerate(boxes)
              if free[_THETA] and not (free[_LOG_BETA] or free[_ETA])
              and hasattr(kernel, "nll_hessian_rows")]
    if newton:
        for i, result in zip(newton, _fit_by_newton(family, [samples[i] for i in newton],
                                                    [boxes[i] for i in newton])):
            results[i] = result
    for i, (sample, (free, bounds, starts)) in enumerate(zip(samples, boxes)):
        if results[i] is None:
            score, box = _score(kernel, free, sample.values), Bounds(*bounds)
            runs = [_fit_quasi_newton(score, start, box) for start in starts]
            results[i] = _result(family, sample, free, bounds, runs)
    return results


def fit_mle(family, sample: Sample, options: FitOptions | None = None) -> FitResult:
    """Fit one family to ``sample`` by minimising the negative log likelihood.

    The exponential with fixed location has a closed form.  Every other fit
    works on the free slots of (log_tau, theta, log_beta, eta), the others
    pinned at theta = 1, log_beta = 0 and eta = 0.  Where the free slots are
    exactly (log_tau, theta) and the kernel has a closed-form Hessian (genexp
    and Lomax, and genweibull and Burr XII on a sample holding 0), it runs
    projected Newton; every other fit (log beta or eta free, genexp2,
    gengamma or cgamma) runs L-BFGS-B on the kernel's closed-form score.
    L-BFGS-B runs from the base and heavy-tail starts.  Newton runs from the
    base start, from the two lowest local minima of a coarse likelihood grid
    too below 20 points, and from the heavy start only if the best of those
    is unconverged or stops with theta below 1e-4.  A fit that fails the
    convergence test, stops with beta at its bound, theta at its upper bound
    1e3 or tau at its lower bound e^-40, or has no finite NLL, is returned
    with ``converged`` False (see the module docstring).

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

    return _fit_samples(family, [sample], opts)[0]


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
