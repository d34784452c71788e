"""Maximum-likelihood fitting of any family member to a univariate sample.

Every fit at a fixed location works on three slots, (log tau, theta, log
beta), the order of every kernel's gradient and Hessian rows.  A free mask
marks the slots the family fits; a slot that is not free holds its pinned
value, theta = 1 or log beta = 0, which gives nu = beta = 1 where a family
ignores them.  The tail index is fitted as theta = 1/nu on [1e-6, 1e3], so that
the exponential limit nu -> infinity is a reachable boundary point (theta
-> 1e-6, i.e. nu capped at ``FitOptions.nu_cap`` = 1e6).  Light-tailed
data drives theta to that bound; ``FitResult.at_nu_bound`` flags it.

A free location eta is fitted one way for every family, and no optimiser
or kernel sees it: eta-hat minimises the profile NLL, the NLL of the
fixed-location fit of x - eta, over eta below the least point.  The
densities of the families without beta (the exponential, genexp, Lomax and
genexp2) do not increase on [0, inf), so at every (tau, nu) their
likelihood rises with eta, and their profile falls all the way to the edge
just below the least point, least (1 - 1e-12) - 1e-300: eta is put there.
For a family with beta the search runs in log(least - eta): the edge, a
grid of gaps least - eta a decade apart from 1e-12 to 100 times the mean,
fitted as one batch, and a bounded scalar search between the grid points
either side of the lowest: scipy's ``minimize_scalar``, the only part of
``scipy.optimize`` a fit uses, imported there so that no other fit loads
it.  Each scale in it is the data's, so the fit of c x has the NLL of the
fit of x plus n log c.  A fit with eta at the edge is unconverged if
beta < 1, where the likelihood grows without bound as eta approaches the
least point (Smith 1985, Biometrika 72:67), or if tau is below
``_GAP_FACTOR`` = 1e6 times the gap: below 20 points the fit of x - eta can
stop at a mode with tau a few times the gap, which exists only because of
the edge's margin.

The exponential's MLE at a fixed location is closed-form, tau = mean, held
to tau's lower bound e^-40, where it is flagged as every other fit is.
Every other fit runs one optimiser, projected Newton (Bertsekas 1982) in a
trust region, on the kernel's closed-form NLL, gradient and Hessian,
``nll_hessian_rows``: on two slots, (log_tau, theta), for genexp, the
Lomax and genexp2, and for every family with beta on a sample holding 0,
where beta is pinned and each fit is its beta = 1 member's (gengamma and
cgamma run the rows of genexp and the Lomax); on three slots, (log_tau,
theta, log_beta), for every other genweibull, Burr XII, gengamma and
cgamma fit.  genexp and Lomax run the genweibull and Burr XII kernels at
log_beta = 0.  The reported NLL is ``neg_log_likelihood`` of the fitted
handle on the sample, to the bit, but a gengamma or cgamma fit at beta = 1
reports its member's (``_MEMBERS``), the same likelihood, which its own
handle gives a few ulps apart; the fits at location 0 of the exponential,
genexp and Lomax in a batch take it from one log-density pass over their
samples (``_neg_log_likelihoods``).
A fit is ``converged`` when the infinity norm of its projected gradient is
at most 1e-6 (1 + |nll|), beta is not at its bound e^7 or e^-7, theta is
not at its upper bound 1e3 (nu = 1e-3), tau is not at either of its bounds
e^-40 and e^40, and the reported NLL is finite.  Those bounds are edges of
the box, not optima: a point at 0 has density 1/tau, so a sample holding 0
can drive the NLL down without bound as tau -> 0, and on data of scale
1e308 genexp, the Lomax and genexp2 stop at tau = e^40, above the
exponential's NLL.  The kernel's NLL stays finite where x/tau overflows,
while the handle's does not.  Newton runs further than that test, to a
projected gradient of at most 1e-10 (1 + |nll|).

A fit starts from the base start (the sample mean as scale, nu = 1e3) and
the heavy-tail start (median-matched scale, nu = 2).  Three-slot Newton
runs both from the outset: with log beta free the NLL's infimum can lie on
an edge of the box (log beta at its bound) even when the base fit is a
converged interior optimum.  Two-slot
Newton adds the heavy start only when its best run is unconverged or stops
with theta below 1e-4, at or beside the nu cap: the genexp log-survival is
even in theta to second order, so a fit can stop at a stationary point
beside the exponential limit, and a shallow interior optimum can lie where
only the heavy start reaches it.  Samples of ten with one outlier can hold
two genexp optima, one of them interior.  Three-slot Newton adds the edge
start (the heavy start's scale, theta at its upper bound 1e3, log beta 0)
when its best run is unconverged, stops with theta above 3 or, below 20
points, stops with theta below 1e-4: on heavy-tailed samples the
likelihood can rise along a ridge, nu -> 0 and beta -> infinity, to
theta's bound past an interior optimum that every other start reaches.
Without the edge start, Newton stopped higher than L-BFGS-B from both
starts on five of 792 genweibull and Burr XII fits to 10-100 points: four
inside, below such a ridge, and one at the nu cap.  From 20 to 99 points
(``_HIGH_BETA_MAX_SIZE``) three-slot Newton also runs the high-beta start,
the heavy start at log beta = 2, from the outset: a lower optimum, or a
descent to beta's bound, can lie at a larger beta than the point both
fixed starts reach.  On 7,680 draws of 20 to 60 points of the four beta
families, Newton stopped higher than L-BFGS-B from both starts on ten fits
without it and on three with it; on 1,920 of 100 points, on none without
it.  Below 20 points a converged high-beta run can win before the edge
start's test and keep a fit from the lower edge that start reaches.

Below ``_NEWTON_MIN_SIZE`` = 20 points the genexp and Lomax likelihoods
often hold several local optima, and two local runs from the fixed starts
can both stop in a higher one: on ten heavy-tailed draws, Newton from the
base and heavy starts stopped higher than L-BFGS-B from both starts on 11
of 32,000 fits.  So a Newton fit to a small sample also starts from the two
lowest 8-neighbour local minima of the NLL on a coarse grid, taken by the
kernel's ``nll_grid`` at beta = 1 in one numpy pass for all samples of one
length (as many as fit in ``_GRID_CAP`` = 2^18 grid points): theta at 37
points a quarter decade apart over its box, by log tau at 24 even steps
from 3 below the log of the least positive point to 1 above the log of the
largest; a three-slot fit starts from them at log beta = 0.  The rule for
the heavy start is the same at every size.  Over 64,000 fits to 10-15
heavy-tailed draws, no fit stopped higher than L-BFGS-B from both starts.
The grid's cost grows with n, and from 20 points on Newton without it
stopped higher on none of 36,800 fits.

Newton fits of many samples on the same slots run as one batch, whose rows
are the (sample, start) runs: the starts of every sample, and the late
start (heavy or edge) of a sample whose best run needs one, which joins
the running batch as soon as every other run of its sample has stopped.
The rows run in lockstep.  Samples join in order while the points in all
their rows fit in ``_POINT_CAP`` = 2^14, which bounds the memory a batch
takes, and a waiting sample joins as soon as the samples that finish make
room for it.  Each iteration makes one call of the kernel's
``nll_hessian_rows``, on the samples concatenated, for the rows that
propose a trial point and the rows that join; each row computes its own
step on Python floats (``_propose`` on two slots, ``_propose3`` on three),
as a fit alone does, and accepts it and stops on its own test.  The kernel
sums each row's points by one ``np.add.reduceat``, and a segment's sum does
not depend on the segments beside it, so a fit is the same to the last bit
whichever samples share its batch and whenever its rows join it;
``fit_mle`` is a batch of one sample.  ``_counting`` counts that work for a
caller who asks.

Of the starts that ran, the lowest negative log likelihood wins,
with its own ``converged`` flag.  There is no refit by another optimiser: a
fit that fails the convergence test from every start it ran is returned with
``converged`` False.  Then there is no interior maximum to find: beta runs
to its bound e^7 on a small sample; on ten draws with a tail index near
1/4 the likelihood rises along a ridge, nu -> 0 and beta -> infinity, to
theta's bound; or, with a free location and beta < 1, the profile falls
without bound toward the edge, where the fit stops.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import _PowerTail
from .distributions import _KERNELS, DistributionHandle, Family, Params
from .errors import DomainError

__all__ = ["Sample", "FitOptions", "FitResult", "neg_log_likelihood", "fit_mle", "fit_all"]

_THETA_MIN = 1e-6
_THETA_MAX = 1e3
_LOG_TAU_BOUND = 40.0
_LOG_BETA_BOUND = 7.0
_NEWTON_MAX_ITER = 200  # per Newton run
_NEWTON_RADIUS = 0.1  # the first trust radius of a Newton run
_NEWTON_MIN_SIZE = 20  # smaller samples also start from a likelihood grid (module docstring)
_THETA_GRID = np.logspace(-6.0, 3.0, 37)  # that grid's theta, a quarter decade apart
# A two-slot Newton fit stopping below this theta also runs the heavy-tail start,
# and a small three-slot one the edge start, which a three-slot fit stopping
# above _THETA_NEAR_EDGE runs at any size.
_THETA_NEAR_EXP = 1e-4
_THETA_NEAR_EDGE = 3.0
_HIGH_BETA_MAX_SIZE = 100  # a three-slot fit of 20 points up to this size
_LOG_BETA_HIGH = 2.0  # also starts from the heavy start at this log beta
_POINT_CAP = 2 ** 14  # sample points in the rows of a lockstep Newton batch (module docstring)
_GRID_CAP = 2 ** 18  # grid points, samples x theta x log tau x n, per nll_grid pass
# A free-location fit with eta at the edge is unconverged if tau is below this
# many times the gap between eta and the least point.
_GAP_FACTOR = 1e6
# The slots of every fit, in the order of every kernel's rows, and the
# values of the slots a family does not fit: nu = beta = 1.
_LOG_TAU, _THETA, _LOG_BETA = range(3)
_PINNED = np.array([0.0, 1.0, 0.0])
_NEWTON_FREE = np.array([True, True, False])  # the slots a two-slot Newton fit runs on
_BETA_FREE = np.array([True, True, True])  # and a three-slot one


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, which this imports when called.  No fit
    calls it: it stays a module attribute because ``bench/tracing.py`` wraps
    it by name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


# The work counts of the fits made inside ``_counting``; None outside one.
_WORK = contextvars.ContextVar("asinhsurv_fitting_work", default=None)


@contextlib.contextmanager
def _counting():
    """Count the work of the fits made inside the block into the
    ``collections.Counter`` it yields: ``kernel_calls`` and ``kernel_rows``
    of ``nll_hessian_rows``, ``newton_steps`` (trial points, one kernel row
    each; the other rows are the runs' starts), ``grid_passes`` of
    ``nll_grid``, ``nll_passes``, the log-density passes that give the
    reported NLLs (one per batch and one per fit that takes its handle), and
    ``location_fits``, the fixed-location fits of x - eta that a free
    location's profile runs.  Outside such a block each count costs one
    branch."""
    counts = collections.Counter()
    token = _WORK.set(counts)
    try:
        yield counts
    finally:
        _WORK.reset(token)


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

    @cached_property
    def _summary(self) -> tuple[float, float, float]:
        """The least value, the mean and the median, computed once for every
        fit of the sample (inf and NaN if it is empty)."""
        x = self.values
        if not x.size:
            return math.inf, math.nan, math.nan
        half = x.size // 2
        middle = np.partition(x, [(x.size - 1) // 2, half])
        median = (float(middle[half]) if x.size % 2
                  else float(middle[half - 1] + middle[half]) / 2.0)
        with np.errstate(over="ignore"):  # the sum can overflow where the mean does not
            mean = float(x.sum()) / x.size
        if not math.isfinite(mean):
            mean = float((x / x.size).sum())
        return float(x.min()), mean, median


@dataclass(frozen=True)
class FitOptions:
    """Knobs for :func:`fit_mle`; the defaults match the robustness study.

    ``free_eta`` also fits the location eta (below the smallest
    observation), by a profile over fixed-location fits of x - eta; by
    default it is fixed at 0.  ``nu_cap`` is the fixed cap
    on the tail index, 1e6 (theta = 1/nu is bounded below by 1e-6); it can
    be read but not set.  The optimiser's tolerances and iteration limit
    are fixed module constants.
    """

    free_eta: bool = False
    nu_cap: float = field(default=1.0 / _THETA_MIN, init=False)


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics from one maximum-likelihood fit.

    ``iterations`` counts the Newton iterations over every start that ran,
    rejected steps included: the base start, the heavy-tail start, the grid
    starts of a small fit and the high-beta and edge starts of a three-slot
    fit.  With a free location it sums them over every fixed-location fit
    of x - eta that the profile search ran.
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


def _box(family: Family, opts: FitOptions, sample: Sample):
    """The free mask over the slots (log_tau, theta, log_beta) of a fit at
    location 0, the bounds (lo, hi) of the free slots, and the base and
    heavy starts clipped to them; bounds and starts are lists of floats.
    With ``opts.free_eta`` the sample needs one more point, for eta, and
    beta is free, as it is in the fits of x less an eta below its least
    point."""
    kernel = _KERNELS[family]
    least, mean, median = sample._summary
    # At a fixed location a point x = 0 (the least, as x >= 0) makes the likelihood
    # 0 for beta > 1 and unbounded for beta < 1, so beta is pinned at 1.
    flags = [True, kernel.uses_nu, kernel.uses_beta and (opts.free_eta or least != 0.0)]
    pick = [i for i, flag in enumerate(flags) if flag]
    if len(sample) < len(pick) + opts.free_eta:
        raise DomainError(f"need at least {len(pick) + opts.free_eta} observations to fit "
                          f"{family.value}, got {len(sample)}")
    lo = [(-_LOG_TAU_BOUND, _THETA_MIN, -_LOG_BETA_BOUND)[i] for i in pick]
    hi = [(_LOG_TAU_BOUND, _THETA_MAX, _LOG_BETA_BOUND)[i] for i in pick]
    scale_exp = max(mean, 1e-12)
    scale_mom = max(median / math.log(2.0), 1e-12) if median > 0.0 else scale_exp
    starts = [[min(max((math.log(scale), theta, 0.0)[i], lo_i), hi_i)
               for i, lo_i, hi_i in zip(pick, lo, hi)]
              for scale, theta in ((scale_exp, 1e-3), (scale_mom, 0.5))]
    return np.array(flags), (lo, hi), starts


def _slots(free: np.ndarray, vec) -> np.ndarray:
    """The slots (log_tau, theta, log_beta), ``vec`` in the free ones."""
    slots = _PINNED.copy()
    slots[free] = vec
    return slots


def _projected_gradient(vec, grad, lo, hi) -> float:
    """The infinity norm of the projected gradient clip(vec - grad, lo, hi) - vec."""
    return max(abs(min(max(v - g, l), h) - v) for v, g, l, h in zip(vec, grad, lo, hi))


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


def _propose(state, radius, box):
    """One row's trial point of projected Newton in (log_tau, theta), on
    Python floats: the trial point, the model's predicted fall to it, the
    step's length and the NLL's rounding level; None where the run stops.

    ``state`` is the row's point, NLL, gradient and Hessian (a, b, c),
    (v0, v1, nll, g0, g1, a, b, c), and ``box`` its bounds (lo0, lo1, hi0,
    hi1).  A slot at a bound whose gradient points out of the box stays
    there, and so does one at a bound that the two-slot step would push out
    of it; the other slot then takes the one-slot step, at most ``radius``
    long.  A step that would leave the box stops at its edge, and the slot it
    stops on is set to its bound.  The run stops when the projected gradient
    clip(v - g, lo, hi) - v is at most 1e-10 (1 + |nll|) in the infinity
    norm, when the step no longer moves the point, or when a step inside the
    box predicts a fall at the rounding level.  Each min(max(v, lo), hi) is
    written out as comparisons in that order, which is cheaper on floats.
    """
    v0, v1, nll, g0, g1, a, b, c = state
    lo0, lo1, hi0, hi1 = box
    p0, p1 = v0 - g0, v1 - g1
    p0 = abs((lo0 if lo0 > p0 else hi0 if hi0 < p0 else p0) - v0)
    p1 = abs((lo1 if lo1 > p1 else hi1 if hi1 < p1 else p1) - v1)
    if (p1 if p1 > p0 else p0) <= 1e-10 * (1.0 + abs(nll)):
        return None
    held0 = (v0 <= lo0 and g0 > 0.0) or (v0 >= hi0 and g0 < 0.0)
    held1 = (v1 <= lo1 and g1 > 0.0) or (v1 >= hi1 and g1 < 0.0)
    if not (held0 or held1):
        s0, s1 = _trust_step((g0, g1), (a, b, c), radius)
        held0 = (v0 <= lo0 and s0 < 0.0) or (v0 >= hi0 and s0 > 0.0)
        held1 = (v1 <= lo1 and s1 < 0.0) or (v1 >= hi1 and s1 > 0.0)
    if held0 or held1:
        s0 = s1 = 0.0
        if not held0:
            s0 = min(max(-g0 / a if a > 0.0 else -math.copysign(radius, g0), -radius), radius)
        elif not held1:
            s1 = min(max(-g1 / c if c > 0.0 else -math.copysign(radius, g1), -radius), radius)
    # the fraction t of the step inside the box, and the slot that meets its edge
    t, edge = 1.0, -1
    if s0 != 0.0:
        f = ((hi0 if s0 > 0.0 else lo0) - v0) / s0
        if f < t:
            t, edge = f, 0
    if s1 != 0.0:
        f = ((hi1 if s1 > 0.0 else lo1) - v1) / s1
        if f < t:
            t, edge = f, 1
    t0, t1 = v0 + t * s0, v1 + t * s1
    t0 = lo0 if lo0 > t0 else hi0 if hi0 < t0 else t0
    t1 = lo1 if lo1 > t1 else hi1 if hi1 < t1 else t1
    if edge == 0:
        t0 = hi0 if s0 > 0.0 else lo0
    elif edge == 1:
        t1 = hi1 if s1 > 0.0 else lo1
    if t0 == v0 and t1 == v1:
        return None
    p0, p1 = t0 - v0, t1 - v1
    predicted = -(g0 * p0 + g1 * p1 + 0.5 * (a * p0 * p0 + 2.0 * b * p0 * p1 + c * p1 * p1))
    rounding = 1e-15 * (1.0 + abs(nll))
    if edge < 0 and predicted <= rounding:
        return None
    return t0, t1, predicted, math.hypot(p0, p1), rounding


def _trust_step3(grad, hess, radius) -> list[float]:
    """``_trust_step`` for the 3x3 Hessian whose upper triangle by rows is
    ``hess``: the Newton step, by a Cholesky factor on Python floats, if H is
    positive definite and the step is at most ``radius`` long; otherwise the
    step -(H + lam I)^-1 g that is ``radius`` long, with lam above the least
    eigenvalue's negative, found in H's eigenbasis (``numpy.linalg.eigh``) by
    Newton's method on 1/radius - 1/|s(lam)| from the left of the root, where
    one component alone is ``radius`` long.  In the hard case, where g has no
    component along the least eigenvector and the step at lam = -l_min is
    shorter, that step is completed along the least eigenvector."""
    (g0, g1, g2), (a, b, c, d, e, f) = grad, hess
    if a > 0.0:
        l00 = math.sqrt(a)
        l10, l20 = b / l00, c / l00
        pivot = d - l10 * l10
        if pivot > 0.0:
            l11 = math.sqrt(pivot)
            l21 = (e - l20 * l10) / l11
            pivot = f - l20 * l20 - l21 * l21
            if pivot > 0.0:
                l22 = math.sqrt(pivot)
                y0 = -g0 / l00
                y1 = (-g1 - l10 * y0) / l11
                y2 = (-g2 - l20 * y0 - l21 * y1) / l22
                s2 = y2 / l22
                s1 = (y1 - l21 * s2) / l11
                s0 = (y0 - l10 * s1 - l20 * s2) / l00
                if s0 * s0 + s1 * s1 + s2 * s2 <= radius * radius:
                    return [s0, s1, s2]
    values, vectors = np.linalg.eigh(np.array([[a, b, c], [b, d, e], [c, e, f]]))
    y, low = (vectors.T @ grad).tolist(), values.tolist()
    lam = max([-low[0], 0.0] + [abs(yi) / radius - li for yi, li in zip(y, low) if yi != 0.0])
    for _ in range(50):
        shifted = [li + lam for li in low]
        length = math.sqrt(sum((yi / di) ** 2 for yi, di in zip(y, shifted) if yi != 0.0))
        if length <= radius * (1.0 + 1e-9):
            break
        slope = sum(yi * yi / di ** 3 for yi, di in zip(y, shifted) if yi != 0.0) / length ** 3
        lam += (1.0 / radius - 1.0 / length) / slope
    step = [-yi / (li + lam) if yi != 0.0 else 0.0 for yi, li in zip(y, low)]
    if lam == -low[0]:  # the hard case: y[0] is 0, or lam would lie above -l_min
        step[0] = math.sqrt(max(radius * radius - sum(si * si for si in step), 0.0))
    return (vectors @ step).tolist()


def _propose3(state, radius, box):
    """``_propose`` for a row in (log_tau, theta, log_beta), on Python floats:
    ``state`` is (v0, v1, v2, nll, g0, g1, g2) and the Hessian's upper
    triangle by rows, and ``box`` is (lo0, lo1, lo2, hi0, hi1, hi2).  The
    rules are ``_propose``'s.  The slots held at a bound, those whose gradient
    points out of the box and then those the step would push out of it,
    leave the others to the trust step on their sub-block of the Hessian
    (``_trust_step3``, ``_trust_step`` or the one-slot step), which is taken
    again until it pushes no free slot out.  The step stops at the box's
    edge, and the run stops on ``_propose``'s tests."""
    v, nll, g, h = state[:3], state[3], state[4:7], state[7:]
    lo, hi = box[:3], box[3:]
    if max(abs(min(max(vi - gi, li), ui) - vi)
           for vi, gi, li, ui in zip(v, g, lo, hi)) <= 1e-10 * (1.0 + abs(nll)):
        return None
    a, b, c, d, e, f = h
    hess = ((a, b, c), (b, d, e), (c, e, f))
    held = [(vi <= li and gi > 0.0) or (vi >= ui and gi < 0.0)
            for vi, gi, li, ui in zip(v, g, lo, hi)]
    while True:
        free = [i for i in range(3) if not held[i]]
        step = [0.0, 0.0, 0.0]
        if len(free) == 3:
            step = _trust_step3(g, h, radius)
        elif len(free) == 2:
            i, j = free
            step[i], step[j] = _trust_step((g[i], g[j]), (hess[i][i], hess[i][j], hess[j][j]),
                                           radius)
        elif free:
            (i,) = free
            step[i] = min(max(-g[i] / hess[i][i] if hess[i][i] > 0.0
                              else -math.copysign(radius, g[i]), -radius), radius)
        out = [i for i in free
               if (v[i] <= lo[i] and step[i] < 0.0) or (v[i] >= hi[i] and step[i] > 0.0)]
        if not out:
            break
        for i in out:
            held[i] = True
    # the fraction t of the step inside the box, and the slot that meets its edge
    t, edge = 1.0, -1
    for i, si in enumerate(step):
        if si != 0.0:
            fraction = ((hi[i] if si > 0.0 else lo[i]) - v[i]) / si
            if fraction < t:
                t, edge = fraction, i
    trial = [min(max(vi + t * si, li), ui) for vi, si, li, ui in zip(v, step, lo, hi)]
    if edge >= 0:
        trial[edge] = hi[edge] if step[edge] > 0.0 else lo[edge]
    p0, p1, p2 = (ti - vi for ti, vi in zip(trial, v))
    if p0 == p1 == p2 == 0.0:
        return None
    predicted = -(g[0] * p0 + g[1] * p1 + g[2] * p2
                  + 0.5 * (a * p0 * p0 + d * p1 * p1 + f * p2 * p2)
                  + b * p0 * p1 + c * p0 * p2 + e * p1 * p2)
    rounding = 1e-15 * (1.0 + abs(nll))
    if edge < 0 and predicted <= rounding:
        return None
    return (*trial, predicted, math.sqrt(p0 * p0 + p1 * p1 + p2 * p2), rounding)


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


def _needs_heavy(runs, lo, hi) -> bool:
    """Whether a two-slot Newton fit also runs the heavy-tail start: its best
    run so far is unconverged or stops with theta below ``_THETA_NEAR_EXP``."""
    vec, nll, grad, _ = min(runs, key=lambda r: r[1])
    return not _converged_at(_NEWTON_FREE, lo, hi, vec, nll, grad) or vec[1] < _THETA_NEAR_EXP


def _needs_edge(runs, lo, hi, size) -> bool:
    """Whether a three-slot Newton fit of ``size`` points also runs the edge
    start: its best run so far is unconverged or stops with theta above
    ``_THETA_NEAR_EDGE`` or, below ``_NEWTON_MIN_SIZE`` points, below
    ``_THETA_NEAR_EXP``."""
    vec, nll, grad, _ = min(runs, key=lambda r: r[1])
    return (not _converged_at(_BETA_FREE, lo, hi, vec, nll, grad) or vec[1] > _THETA_NEAR_EDGE
            or (size < _NEWTON_MIN_SIZE and vec[1] < _THETA_NEAR_EXP))


def _fit_newton(kernel, xs, starts, late, lo, hi):
    """Projected Newton (Bertsekas 1982, SIAM J. Control Optim. 20:221) in a
    trust region, on ``kernel.nll_hessian_rows`` over the box [lo, hi] of
    (log_tau, theta) or, with three bounds, (log_tau, theta, log_beta): for
    each sample ``xs[i]``, the runs from each start of ``starts[i]`` and
    then, once those have all stopped, from ``late[i]`` where
    ``_needs_heavy`` (two slots) or ``_needs_edge`` (three).  A run is (the
    end point, its NLL, its gradient, the iterations); the runs of a sample
    are in the order of their starts.

    The runs are rows that run in lockstep.  Samples join in order while the
    points in all their rows fit in ``_POINT_CAP`` (a larger sample runs
    alone), and each iteration makes one kernel call, on the samples
    concatenated, for the rows that propose a trial point (``_propose``) and
    the rows that join; each row takes its own step (``_propose`` or
    ``_propose3``, by the number of slots), acceptance and stop.
    The trust radius starts at ``_NEWTON_RADIUS``; it shrinks to a quarter of
    the step when the NLL falls by less than a quarter of the quadratic
    model's prediction, and doubles, up to ``_THETA_MAX``, when a full-length
    step falls by more than three quarters of it.  A step is taken when the
    NLL falls by at least 1e-4 of the prediction, less the NLL's rounding
    level, 1e-15 (1 + |nll|).  A row stops where its step gives None or
    after ``_NEWTON_MAX_ITER`` steps, rejected ones included.
    """
    box, slots = (*lo, *hi), len(lo)
    propose = _propose if slots == 2 else _propose3
    counts = _WORK.get()
    # The points each sample holds while it runs; its late row runs only once
    # its other rows have stopped.
    weight = [x.size * len(s) for x, s in zip(xs, starts)]
    waiting, load = 0, 0  # the next sample to join, and the points of those running
    # Each row's sample, and its start until the kernel has evaluated it there;
    # a sample's rows are its starts, then its late row if that joins.
    owner, states, ends, radii, steps, first, left = [], [], [], [], [], {}, {}
    active, joining = [], []
    joined = x = lengths = None

    def needs_late(i):
        runs = ends[first[i]:first[i] + len(starts[i])]
        if slots == 2:
            return _needs_heavy(runs, lo, hi)
        return _needs_edge(runs, lo, hi, xs[i].size)

    def join(i, start):
        joining.append(len(owner))
        owner.append(i)
        states.append(start)
        ends.append(None)
        radii.append(_NEWTON_RADIUS)
        steps.append(0)

    while True:
        trials = []
        for r in active:
            proposal = steps[r] < _NEWTON_MAX_ITER and propose(states[r], radii[r], box)
            if proposal:
                steps[r] += 1
                trials.append((r, proposal))
                continue
            state = states[r]
            ends[r] = (list(state[:slots]), state[slots], list(state[slots + 1:2 * slots + 1]),
                       steps[r])
            i = owner[r]
            left[i] -= 1  # -1 once its late row stops
            if left[i] == 0 and needs_late(i):
                join(i, late[i])
            elif left[i] <= 0:
                load -= weight[i]  # every run of the sample has stopped
        # Samples join in order while their points fit in _POINT_CAP.
        while waiting < len(xs) and (not load or load + weight[waiting] <= _POINT_CAP):
            i, waiting, load = waiting, waiting + 1, load + weight[waiting]
            first[i], left[i] = len(owner), len(starts[i])
            for start in starts[i]:
                join(i, start)
        rows = [r for r, _ in trials] + joining
        if not rows:
            break
        if rows != joined:
            joined, x = rows, np.concatenate([xs[owner[r]] for r in rows])
            lengths = np.array([xs[owner[r]].size for r in rows])
        columns = [[p[k] for _, p in trials] + [states[r][k] for r in joining]
                   for k in range(slots)]
        values = kernel.nll_hessian_rows(x, lengths, *columns).T.tolist()
        if counts is not None:
            counts["kernel_calls"] += 1
            counts["kernel_rows"] += len(rows)
            counts["newton_steps"] += len(trials)
        for (r, proposal), value in zip(trials, values):
            fall = states[r][slots] - value[0]
            predicted, length, rounding = proposal[-3], proposal[-2], proposal[-1]
            if fall < 0.25 * predicted:
                radii[r] = 0.25 * length
            elif fall > 0.75 * predicted and length >= 0.9 * radii[r]:
                radii[r] = min(2.0 * radii[r], _THETA_MAX)
            if fall >= 1e-4 * predicted - rounding:
                states[r] = proposal[:slots] + tuple(value)
        for r, value in zip(joining, values[len(trials):]):
            states[r] = (*states[r], *value)
        active = rows
        joining = []
    runs = [[] for _ in xs]
    for r, i in enumerate(owner):
        runs[i].append(ends[r])
    return runs


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
    counts = _WORK.get()
    for chunk in _chunks([_THETA_GRID.size * 24 * n] * samples, _GRID_CAP):
        nll = kernel.nll_grid(xs[chunk], log_tau[chunk], _THETA_GRID)
        if counts is not None:
            counts["grid_passes"] += 1
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
    and log tau not at either bound, which are edges of the box, not
    optima."""
    log_tau, theta, log_beta = _slots(free, vec).tolist()
    return (_projected_gradient(vec, grad, lo, hi) <= 1e-6 * (1.0 + abs(nll))
            and abs(log_beta) < _LOG_BETA_BOUND * (1.0 - 1e-9)
            and theta < _THETA_MAX * (1.0 - 1e-9)
            and abs(log_tau) < _LOG_TAU_BOUND * (1.0 - 1e-9))


def _best(free, bounds, runs):
    """The fit of the run with the lowest NLL (the earliest on a tie): its
    ``Params``, its convergence test, the iterations summed over every run,
    whether theta is at its lower bound, and its NLL."""
    vec, nll, grad, _ = min(runs, key=lambda r: r[1])
    log_tau, theta, log_beta = _slots(free, vec).tolist()
    return (Params(nu=1.0 / theta, beta=math.exp(log_beta), tau=math.exp(log_tau)),
            _converged_at(free, *bounds, vec, nll, grad), sum(r[3] for r in runs),
            theta <= _THETA_MIN * (1.0 + 1e-9), nll)


def _fit_by_newton(kernel, xs, fixed, lo, hi):
    """The runs of the Newton fits of the samples ``xs`` over the box [lo, hi]
    of their free slots, in one lockstep batch (``_fit_newton``).  On two
    slots, from each sample's base start ``fixed[i][0]`` and, below
    ``_NEWTON_MIN_SIZE`` points, its grid starts, then from its heavy-tail
    start ``fixed[i][1]`` where ``_needs_heavy``.  On three, from both fixed
    starts, the grid starts at log beta = 0 and, from ``_NEWTON_MIN_SIZE``
    to ``_HIGH_BETA_MAX_SIZE`` points, the high-beta start, then from the
    edge start where ``_needs_edge``."""
    beta_free = len(lo) == 3
    if beta_free:  # both fixed starts from the outset, the high-beta one too, the edge one late
        starts = [[base, heavy] + ([[heavy[0], heavy[1], _LOG_BETA_HIGH]]
                                   if _NEWTON_MIN_SIZE <= x.size < _HIGH_BETA_MAX_SIZE else [])
                  for x, (base, heavy) in zip(xs, fixed)]
        late = [[heavy[0], _THETA_MAX, 0.0] for _, heavy in fixed]
    else:
        starts = [[base] for base, _ in fixed]
        late = [heavy for _, heavy in fixed]
    by_size = {}
    for i, x in enumerate(xs):
        if x.size < _NEWTON_MIN_SIZE:
            by_size.setdefault(x.size, []).append(i)
    for same in by_size.values():
        for i, grid in zip(same, _grid_starts(kernel, [xs[i] for i in same], lo, hi)):
            starts[i] += [start + [0.0] for start in grid] if beta_free else grid
    return _fit_newton(kernel, xs, starts, late, lo, hi)


# gengamma and cgamma at beta = 1 are their ``_BETA_ONE`` member, genexp and the Lomax.
_MEMBERS = {family: next(f for f, k in _KERNELS.items() if k is kernel._BETA_ONE)
            for family, kernel in _KERNELS.items() if hasattr(kernel, "_BETA_ONE")}


def _neg_log_likelihoods(family: Family, samples, params) -> list[float]:
    """``neg_log_likelihood(DistributionHandle(family, p), sample)`` of each
    sample and its parameters ``p``, to the bit, but at beta = 1 a gengamma
    or cgamma fit takes the NLL of its member (``_MEMBERS``), the same
    likelihood, which the family's handle gives a few ulps apart.

    Fits of the exponential, or of a power-tail kernel at beta = 1, with
    location 0 take one log-density pass over their samples concatenated.
    Each point takes the handle's arithmetic, and each sample's slice is
    summed by ``np.sum``, as the handle's array is.  Every other fit takes
    the handle, and so does a sample holding a point past z = 1e150, where
    the kernel switches to its far form.
    """
    member = _MEMBERS.get(family, family)
    kernel = _KERNELS[member]
    counts = _WORK.get()
    nlls = [None] * len(samples)
    power_tail = issubclass(kernel, _PowerTail)
    batch = [i for i, p in enumerate(params) if p.beta == 1.0 and p.eta == 0.0
             and (power_tail or family is Family.EXPONENTIAL)]
    if batch:
        sizes = [len(samples[i]) for i in batch]
        ends = np.cumsum(sizes)
        x = np.concatenate([samples[i].values for i in batch])
        far = set()
        with np.errstate(over="ignore", invalid="ignore"):  # only at far points
            y = x / np.repeat([params[i].tau for i in batch], sizes)
            if power_tail:
                nu = np.repeat([params[i].nu for i in batch], sizes)
                z = y / nu
                far.update(np.searchsorted(ends, np.flatnonzero(z > 1e150), side="right").tolist())
                log_density = np.zeros(x.size)
                kernel._subtract_log_density(log_density, z, nu)
            else:
                log_density = kernel.log_pdf(y, 1.0, 1.0)
            log_density -= np.repeat([math.log(params[i].tau) for i in batch], sizes)
        for k, (i, end, size) in enumerate(zip(batch, ends.tolist(), sizes)):
            if k not in far:
                total = np.sum(log_density[end - size:end])
                nlls[i] = math.inf if np.isnan(total) else float(-total)
        if counts is not None:
            counts["nll_passes"] += 1
    for i, nll in enumerate(nlls):
        if nll is None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                nlls[i] = neg_log_likelihood(
                    DistributionHandle(member if params[i].beta == 1.0 else family, params[i]),
                    samples[i])
            if counts is not None:
                counts["nll_passes"] += 1
    return nlls


def _fit_fixed(family: Family, samples, opts: FitOptions):
    """The fit of ``family`` at location 0 to each of ``samples``, in its
    ``_box``: (``Params``, converged, iterations, at_nu_bound, the NLL it
    reached).  The exponential has a closed form.  Every other fit runs
    Newton, one batch for the fits on two slots (log_tau, theta) and one for
    those on three, with log_beta."""
    kernel = _KERNELS[family]
    boxes = [_box(family, opts, sample) for sample in samples]
    if family is Family.EXPONENTIAL:
        # Closed-form MLE: tau-hat = mean.  The projected gradient is 0 there, so
        # ``_converged_at`` reduces to its test of tau's lower bound e^-40.
        taus = [max(sample._summary[1], math.exp(-_LOG_TAU_BOUND)) for sample in samples]
        return [(Params(nu=1.0, tau=tau), math.log(tau) > -_LOG_TAU_BOUND * (1.0 - 1e-9), 0,
                 False, len(sample) * (math.log(tau) + sample._summary[1] / tau))
                for sample, tau in zip(samples, taus)]
    # One Newton batch for the fits on each number of slots, which share a box.
    newton = {}
    for i, (_, (lo, _), _) in enumerate(boxes):
        newton.setdefault(len(lo), []).append(i)
    runs = {}
    for batch in newton.values():
        _, (lo, hi), _ = boxes[batch[0]]
        runs.update(zip(batch, _fit_by_newton(kernel, [samples[i].values for i in batch],
                                              [boxes[i][2] for i in batch], lo, hi)))
    return [_best(free, bounds, runs[i]) for i, (free, bounds, _) in enumerate(boxes)]


def _fit_free_location(family: Family, samples, opts: FitOptions):
    """The fit of ``family`` with a free location to each of ``samples``, as
    ``_fit_fixed`` gives it, with eta-hat minimising the profile NLL: the NLL
    of the fixed-location fit of x - eta.

    The search runs in log(least - eta), the log of the gap below the least
    point.  It fits the edge, eta = least (1 - 1e-12) - 1e-300, and, for a
    family with beta, a grid of gaps a decade apart from 1e-12 to 100 times
    the mean (those wider than the edge's that leave x - eta finite), in one
    ``_fit_fixed`` batch.  Where a grid point is lowest, ``minimize_scalar``
    searches between its neighbours, the edge below the first.  The lowest
    fit of all wins, and ``iterations`` sums every fit's.  A win at the edge
    with beta < 1, or with tau below ``_GAP_FACTOR`` times the gap, is
    unconverged."""
    uses_beta, counts = _KERNELS[family].uses_beta, _WORK.get()

    def fit_at(sample, etas, tried):
        """Add (eta, the fit of x - eta) at each of ``etas``, one batch, to
        ``tried``; the last fit's NLL."""
        if counts is not None:
            counts["location_fits"] += len(etas)
        shifted = [Sample(sample.values - eta) for eta in etas]
        tried.extend(zip(etas, _fit_fixed(family, shifted, opts)))
        return tried[-1][1][-1]

    located = []
    for sample in samples:
        least, mean, _ = sample._summary
        edge = least * (1.0 - 1e-12) - 1e-300
        grid = [least - mean * 10.0 ** k for k in range(-12, 3)] if uses_beta else []
        etas = [edge] + [eta for eta in grid
                         if eta < edge and math.isfinite(float(sample.values.max()) - eta)]
        tried = []
        fit_at(sample, etas, tried)
        low = min(range(len(etas)), key=lambda i: tried[i][1][-1])
        if low > 0:
            from scipy.optimize import minimize_scalar
            bounds = [math.log(least - etas[i]) for i in (low - 1, min(low + 1, len(etas) - 1))]
            minimize_scalar(lambda log_gap: fit_at(sample, [least - math.exp(log_gap)], tried),
                            bounds=bounds, method="bounded")
        eta, (params, converged, _, at_bound, nll) = min(tried, key=lambda t: t[1][-1])
        if eta == edge:
            # A tau below _GAP_FACTOR times the gap is at a mode made by the edge's
            # margin, and with beta < 1 the likelihood has no maximum.
            converged = (converged and params.tau >= _GAP_FACTOR * (least - eta)
                         and params.beta >= 1.0)
        located.append((replace(params, eta=eta), converged, sum(fit[2] for _, fit in tried),
                        at_bound, nll))
    return located


def _fit_samples(family: Family, samples, opts: FitOptions) -> list[FitResult]:
    """The fit of ``family`` to each of ``samples`` that ``fit_mle`` gives:
    ``_fit_free_location`` with a free eta, ``_fit_fixed`` otherwise.  The
    reported NLLs come from ``_neg_log_likelihoods`` on the samples."""
    fits = (_fit_free_location if opts.free_eta else _fit_fixed)(family, samples, opts)
    nlls = _neg_log_likelihoods(family, samples, [params for params, *_ in fits])
    # The kernel's NLL stays finite where x/tau overflows; the handle's need not.
    return [FitResult(family, params, nll, converged=bool(converged and math.isfinite(nll)),
                      iterations=iterations, at_nu_bound=at_bound)
            for (params, converged, iterations, at_bound, _), nll in zip(fits, nlls)]


def fit_mle(family, sample: Sample, options: FitOptions | None = None) -> FitResult:
    """Fit one family to ``sample`` by minimising the negative log likelihood.

    At a fixed location the exponential has a closed form, tau = mean, held
    to tau's lower bound e^-40.  Every other fit runs projected Newton on
    the kernel's closed-form Hessian over the free slots of (log_tau,
    theta, log_beta), from the starts the module docstring lists: two slots
    for genexp, Lomax and genexp2 and for a family with beta on a sample
    holding 0, three otherwise.  A fit that fails the convergence test,
    stops at beta's bound, theta's upper bound 1e3 or tau's lower bound
    e^-40, or has no finite NLL, is returned with ``converged`` False.

    A free location minimises the profile NLL, the NLL of the fixed-location
    fit of x - eta.  A family without beta (exp, genexp, Lomax, genexp2)
    puts eta at the edge just below the smallest point, where its profile
    is lowest.  A family with beta searches log(least - eta) from the edge,
    over a grid a decade apart from 1e-12 to 100 times the mean, and by a
    bounded scalar search around the grid's lowest point.  A fit with eta at
    the edge is unconverged if beta < 1, where the likelihood has no
    maximum, or if tau is under 1e6 times the gap between eta and the
    smallest point, a mode made by the edge's margin.

    With the location fixed, a sample holding an exact 0 has no maximum in
    beta: its likelihood is 0 for beta > 1 and unbounded for beta < 1.  The
    families with a shape beta (genweibull, gengamma, Burr XII, cgamma) are
    then fitted at beta = 1, where they are genexp or the Lomax; gengamma
    and cgamma take that member's fit, NLL included.  A sample with fewer
    points than free slots, counting eta, raises ``DomainError``.
    """
    return _fit_samples(Family.parse(family), [sample], options or FitOptions())[0]


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
