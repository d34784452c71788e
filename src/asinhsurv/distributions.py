"""Arcsinh-generalised heavy-tailed survival distributions.

The family kernel replaces ``exp(-x)`` in classical survival functions by
``exp(-nu * asinh(x/nu))``, which matches the parent distribution closely
in the body while switching to a power-law tail with index ``nu``.  Four
members are implemented:

* generalised exponential: S(x) = exp(-nu asinh(x/nu))
* generalised Weibull:     S(x) = exp(-nu asinh(x^beta/nu))
* generalised gamma:       S(x) = I_q(nu/2, beta) with q = (C+S)^(-2)
* a second exponential type whose density (not survival) is the kernel

plus the classical comparators from :mod:`asinhsurv.baselines`.  All of
them share one evaluation contract through :class:`DistributionHandle`,
which also applies the location-scale extension x -> (x - eta)/tau.

The generalised Weibull and the Burr XII share one power-tail kernel and
likelihood rows, ``baselines._PowerTail``, for S(x) = exp(-nu g(x^beta/nu)),
and differ only in the link g: asinh or log1p.  The generalised exponential
is the generalised Weibull at beta = 1, as the Lomax is the Burr XII at
beta = 1: each is a subclass that runs its parent's kernel and likelihood
rows (genexp adds only its closed-form variance, skewness and entropy),
and the handle passes beta = 1 to the kernel of every family that ignores
beta.  The generalised gamma runs the compound gamma's incomplete-beta
kernel: q(X) ~ Beta(nu/2, beta) gives exact draws and the density is that
Beta density of q(x) times |dq/dx|.  At beta = 1 the generalised gamma is
the generalised exponential, as the compound gamma is the Lomax, and each
names that family as its ``_BETA_ONE``: log q = -2 asinh(x/nu) and the
likelihood rows' point terms come from the genexp kernel's link, so only
-log(1 - q) is gengamma's own.  genexp2's likelihood rows are sums of
genexp's point terms, and its likelihood grid is the power-tail kernel's
pass on its own log density.

Handles are immutable and safe to share across threads; sampling mutates
only the caller's generator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import baselines
from .errors import DomainError, UnsupportedOperationError
from .numerics import (
    digamma,
    find_root_1d,  # unused here; bench/tracing.py wraps this name by attribute
    log_beta,
    reg_inc_beta,  # unused here; bench/tracing.py wraps this name by attribute
    stable_asinh_scaled,
)

__all__ = [
    "Params",
    "AsinhTerms",
    "asinh_terms",
    "Family",
    "DistributionHandle",
    "MomentReport",
    "make_handle",
    "log_survival_series_check",
    "gen_gamma_rejection",
    "gen_gamma_acceptance_probability",
    "gen_gamma_acceptance_rate",
]

_LN2 = math.log(2.0)
_LN_SQRT2 = 0.5 * _LN2


@dataclass(frozen=True)
class Params:
    """Parameter bundle shared by every family member.

    ``nu`` is the tail index, ``beta`` the Weibull/gamma shape (ignored by
    the exponential-type families), ``tau`` the scale and ``eta`` the
    location.  The standard member has tau=1, eta=0.
    """

    nu: float
    beta: float = 1.0
    tau: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("nu", "beta", "tau", "eta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.floating, np.integer)):
                raise DomainError(f"{name} must be a real number")
            value = float(value)
            if math.isnan(value) or math.isinf(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.nu <= 0.0:
            raise DomainError("nu must be > 0")
        if self.beta <= 0.0:
            raise DomainError("beta must be > 0")
        if self.tau <= 0.0:
            raise DomainError("tau must be > 0")


@dataclass(frozen=True)
class AsinhTerms:
    """The quantities C, S, q, r shared by all family formulas.

    For z = x/nu: c = sqrt(1 + z^2), s = z, r = c - s = 1/(c + s) and
    q = r^2.  q and r live in (0, 1] and are the natural variables for
    integrals and quantile inversion.
    """

    c: Union[float, np.ndarray]
    s: Union[float, np.ndarray]
    q: Union[float, np.ndarray]
    r: Union[float, np.ndarray]


def asinh_terms(x, nu: float) -> AsinhTerms:
    """Compute :class:`AsinhTerms` for x >= 0 and nu > 0."""
    nu = float(nu)
    if math.isnan(nu) or nu <= 0.0:
        raise DomainError("nu must be > 0")
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("x must not be NaN")
    if np.any(arr < 0.0):
        raise DomainError("x must be >= 0")
    z = arr / nu
    c = np.hypot(1.0, z)
    r = 1.0 / (c + z)
    q = r * r
    if arr.ndim == 0:
        return AsinhTerms(float(c), float(z), float(q), float(r))
    return AsinhTerms(c, z, q, r)


class _GenWeibull(baselines._PowerTail):
    """Generalised Weibull: survival exp(-nu asinh(x^beta/nu)), the power-tail
    kernel at g = asinh, for which log(1/g'(z)) = log c, c = sqrt(1 + z^2)."""

    _link = np.arcsinh
    _inverse = np.sinh
    _LINK_FAR = _LN2
    _RATIO_SERIES_BELOW = 1e-2

    @staticmethod
    def _log_inv_slope(z):
        """log c as a new array; z^2 overflows only at far points."""
        log_c = np.multiply(z, z)
        np.log1p(log_c, out=log_c)
        log_c *= 0.5
        return log_c

    @classmethod
    def _subtract_log_density(cls, out, z, nu):
        out -= cls._log_inv_slope(z)
        nu_asinh = np.arcsinh(z, out=z)
        nu_asinh *= nu
        out -= nu_asinh

    @staticmethod
    def _less_ratio(z):
        """asinh(z) - z/sqrt(1 + z^2) by its series z^3/3 - 3z^5/10 + 15z^7/56 - 35z^9/144."""
        if not z.size:
            return z
        zz = z * z
        return z * zz * (1.0 / 3.0 + zz * (-0.3 + zz * (15.0 / 56.0 - zz * (35.0 / 144.0))))

    _HESSIAN_POINT_TERMS = 9

    @classmethod
    def _hessian_point_terms(cls, z, far, log_z, out):
        """The point terms of ``nll_hessian_rows`` at g = asinh, where t = z/c,
        m = t^2, dt = t/c^2, dm = 2 t^2/c^2, t - dt = t^3 and dm - m = t^2 - 2 t^4,
        into the rows of ``out``: asinh z, log c^2, asinh z - t (by its series
        at small z), t^4, t, t^2, t/c^2, t^2/c^2 and t^3."""
        g, log_c2, g_less_t, t4, t, t2, dt, t2_c2, t3 = out
        inv_c2 = np.multiply(z, z, out=dt)
        np.log1p(inv_c2, out=log_c2)
        log_c2[far] = 2.0 * log_z
        inv_c2 += 1.0
        np.reciprocal(inv_c2, out=inv_c2)  # 0 where far
        np.sqrt(inv_c2, out=t)
        t *= z
        t[far] = 1.0
        small = z < cls._RATIO_SERIES_BELOW
        zs = z[small]
        cls._g(z, far, log_z, out=g)
        np.subtract(g, t, out=g_less_t)
        g_less_t[small] = cls._less_ratio(zs)
        np.multiply(t, t, out=t2)
        np.multiply(t2, inv_c2, out=t2_c2)
        np.multiply(t, inv_c2, out=dt)
        np.multiply(t2, t, out=t3)
        np.multiply(t2, t2, out=t4)

    @staticmethod
    def _hessian_row_sums(sums, nu):
        """The sums of ``nll_hessian_rows`` from the rows' sums of the point
        terms: nu sum asinh z + sum log c, sum t, sum t^2, sum (asinh z - t),
        sum dt, sum dm, sum t^3, sum t^2 - 2 sum t^4 and 2 sum (asinh z - t)
        - sum t^3.  At small z the last is -z^3/3 per point: its two terms do
        not cancel."""
        g, log_c2, g_less_t, t4, t, t2, dt, t2_c2, t3 = sums
        return (nu * g + 0.5 * log_c2, t, t2, g_less_t, dt, 2.0 * t2_c2, t3, t2 - 2.0 * t4,
                2.0 * g_less_t - t3)

    # u t, u t^2, u dt, u t^2/c^2 and u t^3; u^2 dt and u^2 t^2/c^2
    _U_TERMS, _U2_TERMS = slice(4, 9), slice(2, 4)

    @staticmethod
    def _beta_row_sums(sums):
        """The log-beta sums of ``nll_hessian_rows`` from the rows' sums of
        u t, u t^2, u dt, u t^2/c^2, u t^3, u^2 dt and u^2 t^2/c^2, where
        m = t^2, dm = 2 t^2/c^2 and t - dt = t^3."""
        ut, ut2, udt, ut2_c2, ut3, u2dt, u2t2_c2 = sums
        return ut, ut2, udt, 2.0 * ut2_c2, ut3, u2dt, 2.0 * u2t2_c2

    @staticmethod
    def raw_moment(n, nu, beta):
        if n >= beta * nu:
            return None
        nb = n / beta
        return float(np.exp((1.0 + nb) * math.log(nu / 2.0)
                            + log_beta((nu - nb) / 2.0, 1.0 + nb)))

    @staticmethod
    def mode(nu, beta):
        if beta <= 1.0:
            return 0.0
        nb = nu * beta
        den = nb * nb + 2.0 * (beta - 1.0) + math.sqrt(nb ** 4 + 4.0 * nb * nb * beta * (beta - 1.0))
        return (2.0 * (beta - 1.0) ** 2 * nu * nu / den) ** (1.0 / (2.0 * beta))


class _GenExp(_GenWeibull):
    """Generalised exponential: survival exp(-nu asinh(x/nu)), the beta = 1
    generalised Weibull, whose kernel and likelihood rows it runs.  It adds
    the closed forms that exist only at beta = 1: variance, skewness and
    entropy."""

    uses_beta = False

    @staticmethod
    def variance(nu, beta):
        if nu <= 2.0:
            return None
        nu2 = nu * nu
        return nu2 * (nu2 * nu2 + 2.0) / ((nu2 - 1.0) ** 2 * (nu2 - 4.0))

    @staticmethod
    def skewness(nu, beta):
        if nu <= 3.0:
            return None
        nu2 = nu * nu
        num = 2.0 * nu * (nu2 ** 3 + 2.0 * nu2 ** 2 + 6.0 * nu2 + 15.0) * math.sqrt(nu2 - 4.0)
        den = (nu2 - 9.0) * (nu2 * nu2 + 2.0) ** 1.5
        return num / den

    @staticmethod
    def entropy(nu, beta):
        return 1.0 - 1.0 / nu + 0.5 * (digamma((nu + 2.0) / 4.0) - digamma(nu / 4.0))


class _GenGamma(baselines._IncompleteBeta):
    """Generalised gamma: survival I_q(nu/2, beta) in q = (C+S)^(-2)."""

    _A = 0.5
    _BETA_ONE = _GenExp  # q = exp(-2 asinh z)

    @staticmethod
    def _x_from(w, v, nu):  # nu (1 - q) / (2 sqrt q) at q = v/(v+w); +inf, not NaN, at v = 0
        return 0.5 * nu * w / np.sqrt(v * (v + w))

    @staticmethod
    def _log_h(log_v):  # -d log q/dx = 2/(nu C) = (2 sqrt q/nu) h with h = 2/(1 + q)
        return _LN2 - np.log1p(np.exp(log_v))

    @staticmethod
    def _log_complement(z):  # log1p(1/(2 z (c + z))), as 1 - q = 2z/(c + z)
        out = np.hypot(1.0, z)
        out += z
        out *= z
        out *= 2.0
        return baselines._log1p_reciprocal(out)

    @staticmethod
    def raw_moment(n, nu, beta):
        if n >= nu:
            return None
        return float(np.exp(n * math.log(nu / 2.0)
                            + log_beta((nu - n) / 2.0, beta + n)
                            - log_beta(nu / 2.0, beta)))

    @staticmethod
    def mode(nu, beta):
        if beta <= 1.0:
            return 0.0
        b = nu * nu + (beta - 1.0) * (2.0 * nu - beta + 3.0)
        disc = b * b + 4.0 * (nu + 2.0 * beta - 3.0) * (nu + 1.0) * (beta - 1.0) ** 2
        return math.sqrt(2.0) * nu * (beta - 1.0) / math.sqrt(b + math.sqrt(disc))


class _GenExpType2:
    """Second exponential type: the density, not the survival, is the kernel.

    pdf(x) = (nu+2)/(nu+1) * r^(nu+1) with r = sqrt(1+(x/nu)^2) - x/nu;
    survival (nu r^(nu+2) + (nu+2) r^nu) / (2 (nu+1)); hazard
    2 (nu+2) r / (nu r^2 + nu + 2) = (nu+2) / ((nu+1) C + S).  The survival
    has no closed-form inverse: the quantile and the sampler solve it by four
    Newton steps in a = asinh(x/nu), see ``_x_from_log_survival``.
    """

    uses_beta = False
    uses_nu = True

    @staticmethod
    def _log_r(x, nu):  # -asinh(x/nu), as genexp's link gives it
        out = _GenExp._g(*_GenExp._scaled_power(x, nu, 1.0))
        return np.negative(out, out=out).reshape(np.shape(x))

    @classmethod
    def log_survival(cls, x, nu, beta):
        # Near x = 0 the rounded nu r^2 + nu + 2 can exceed 2(nu+1) by an ulp.
        ln_r = cls._log_r(x, nu)
        r2 = np.exp(2.0 * ln_r)
        return np.minimum(nu * ln_r + np.log(nu * r2 + nu + 2.0) - math.log(2.0 * (nu + 1.0)), 0.0)

    @classmethod
    def cdf(cls, x, nu, beta):
        # The two terms tend to -nu and -(nu+2) in the tail, and their
        # rounded sum can exceed 2(nu+1) by an ulp.
        ln_r = cls._log_r(x, nu)
        return np.minimum(-(nu * np.expm1((nu + 2.0) * ln_r)
                            + (nu + 2.0) * np.expm1(nu * ln_r)) / (2.0 * (nu + 1.0)), 1.0)

    @classmethod
    def log_pdf(cls, x, nu, beta):
        out = cls._log_r(x, nu)
        out *= nu + 1.0
        out += math.log((nu + 2.0) / (nu + 1.0))
        return out

    @staticmethod
    def _subtract_log_density(out, z, nu):  # nll_grid's: (nu + 1) asinh z - log((nu + 2)/(nu + 1))
        nu_asinh = np.arcsinh(z, out=z)
        nu_asinh *= nu + 1.0
        out -= nu_asinh
        out += np.log((nu + 2.0) / (nu + 1.0))

    nll_grid = classmethod(baselines._PowerTail.nll_grid.__func__)

    @staticmethod
    def nll_hessian_rows(x, lengths, log_tau, theta):
        """The rows' NLL, gradient and Hessian in (log_tau, theta) at location
        0, a (6 x rows) array, as the power-tail ``nll_hessian_rows`` gives
        them without log beta.  With z = theta x/tau, t = z/c and dt = t/c^2,
        c = sqrt(1 + z^2), the NLL is n log tau - n log((nu + 2)/(nu + 1)) +
        (nu + 1) sum asinh z, its gradient n - (nu + 1) sum t and nu sum t -
        nu^2 sum (asinh z - t) - n r, r = nu^2/((nu + 1)(nu + 2)), and its
        Hessian (nu + 1) sum dt, nu^2 sum t^3 - nu sum dt and nu^3 sum w - nu^2
        sum t^3 + n r nu (3 nu + 4)/((nu + 1)(nu + 2)), with t - dt = t^3 and
        w = 2 (asinh z - t) - t^3: sums of genexp's point terms."""
        lengths = np.asarray(lengths)
        log_tau, theta = np.asarray(log_tau, dtype=float), np.asarray(theta, dtype=float)
        nu = 1.0 / theta
        terms, _ = _GenExp._beta_one_terms(x, lengths, log_tau, theta)
        g, _, g_less_t, _, t, _, dt, _, t3 = baselines._row_sums(terms, lengths)
        nu1, nu2 = nu + 1.0, nu * nu
        ratio = nu2 / (nu1 * (nu + 2.0))
        return np.array([lengths * (log_tau - np.log((nu + 2.0) / nu1)) + nu1 * g,
                         lengths - nu1 * t,
                         nu * t - nu2 * g_less_t - lengths * ratio,
                         nu1 * dt,
                         nu2 * t3 - nu * dt,
                         nu2 * (nu * (2.0 * g_less_t - t3) - t3)
                         + lengths * ratio * nu * (3.0 * nu + 4.0) / (nu1 * (nu + 2.0))])

    @staticmethod
    def hazard(x, nu, beta):
        # A sum of positive terms: accurate to a few ulp, 0 at x = inf, nu/x where it overflows.
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            z = x / nu
            h = (nu + 2.0) / ((nu + 1.0) * np.hypot(1.0, z) + z)
            return h if h.all() else np.where(h > 0.0, h, nu / x)

    @staticmethod
    def _x_from_log_survival(log_s, nu):
        """The x with log S(x) = ``log_s``, by Newton's method in a = asinh(x/nu).

        With k = nu/(2(nu+1)), f(a) = -nu a + log1p(k expm1(-2a)) - log_s is
        convex and decreasing, its slope in [-nu - nu/(nu+1), -nu].  The
        start, the tail asymptote a0 = (log(1 - k) - log_s)/nu clamped at 0,
        lies at or below the root, since log1p(k expm1(-2a)) >= log(1 - k).
        From there every Newton iterate stays below the root and rises to it,
        quadratically near it.  For nu in [0.02, 1e6] and p in [0, 1 - 1e-16],
        four steps leave |cdf(quantile(p)) - p| <= 3.3e-16 and three 4.1e-9.
        Working in a, not in r = e^-a, avoids the 1 - r cancellation at small x.
        """
        k = nu / (2.0 * (nu + 1.0))
        a = np.maximum((math.log1p(-k) - log_s) / nu, 0.0)
        for _ in range(4):
            e = np.expm1(-2.0 * a)  # r^2 - 1
            f = np.log1p(k * e) - nu * a - log_s
            slope = nu * (1.0 + 2.0 * (1.0 + e) / (nu * e + 2.0 * nu + 2.0))  # -f'(a)
            a = a + f / slope
        with np.errstate(over="ignore"):  # x = inf past the float range
            return nu * np.sinh(a)

    @classmethod
    def quantile(cls, p, nu, beta):
        return cls._x_from_log_survival(np.log1p(-p), nu)

    @staticmethod
    def moment_order_threshold(nu, beta):
        return nu

    @staticmethod
    def raw_moment(n, nu, beta):
        if n >= nu:
            return None
        k = (nu + 2.0) / (nu + 1.0)
        b1 = np.exp(log_beta((nu - n) / 2.0, n + 1.0))
        b2 = np.exp(log_beta((nu - n + 2.0) / 2.0, n + 1.0))
        return float(k * (nu / 2.0) ** (n + 1.0) * 0.5 * (b1 + b2))

    @staticmethod
    def mode(nu, beta):
        return 0.0

    @classmethod
    def sample(cls, n, nu, beta, rng):
        return cls._x_from_log_survival(np.log1p(-rng.random(n)), nu)


class Family(enum.Enum):
    """Distribution families sharing the evaluation contract."""

    GEN_EXP = "genexp"
    GEN_WEIBULL = "genweibull"
    GEN_GAMMA = "gengamma"
    GEN_EXP_TYPE2 = "genexp2"
    EXPONENTIAL = "exp"
    LOMAX = "lomax"
    BURR_XII = "burr12"
    COMPOUND_GAMMA = "cgamma"

    @classmethod
    def parse(cls, name) -> "Family":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name))
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise DomainError(f"unknown family {name!r}; expected one of: {valid}") from None


_KERNELS = {
    Family.GEN_EXP: _GenExp,
    Family.GEN_WEIBULL: _GenWeibull,
    Family.GEN_GAMMA: _GenGamma,
    Family.GEN_EXP_TYPE2: _GenExpType2,
    Family.EXPONENTIAL: baselines.Exponential,
    Family.LOMAX: baselines.Lomax,
    Family.BURR_XII: baselines.BurrXII,
    Family.COMPOUND_GAMMA: baselines.CompoundGamma,
}


@dataclass(frozen=True)
class MomentReport:
    """Mean, variance and skewness with their existence threshold.

    Entries are ``None`` exactly when the moment order needed would reach
    or exceed ``order_threshold`` (the integrals diverge there).
    """

    mean: float | None
    variance: float | None
    skewness: float | None
    order_threshold: float


@dataclass(frozen=True)
class DistributionHandle:
    """Immutable binding of a family to parameters.

    Evaluation methods accept scalars or numpy arrays.  The kernels evaluate
    the standard member, edges (huge x, x = inf) included, and the handle maps
    x -> (x - eta)/tau; points below ``eta`` have survival 1 and density 0.
    """

    family: Family
    params: Params

    def __post_init__(self):
        object.__setattr__(self, "family", Family.parse(self.family))
        if not isinstance(self.params, Params):
            raise DomainError("params must be a Params instance")

    # -- plumbing ---------------------------------------------------------

    @property
    def _kernel(self):
        return _KERNELS[self.family]

    @property
    def _kernel_beta(self) -> float:
        """beta as the kernel sees it: 1 for the families that ignore beta, so
        genexp and Lomax run the beta = 1 members of genweibull and Burr XII."""
        return self.beta if self._kernel.uses_beta else 1.0

    @property
    def nu(self) -> float:
        return self.params.nu

    @property
    def beta(self) -> float:
        return self.params.beta

    @property
    def tau(self) -> float:
        return self.params.tau

    @property
    def eta(self) -> float:
        return self.params.eta

    def _standardized(self, x):
        """A new array y = (x - eta)/tau, 0 below eta, the mask of those points
        and whether x is a scalar."""
        arr = np.asarray(x, dtype=float)
        if np.any(np.isnan(arr)):
            raise DomainError("x must not be NaN")
        y = (arr - self.eta) / self.tau
        below = y < 0.0
        return np.where(below, 0.0, y), below, arr.ndim == 0

    @staticmethod
    def _out(values, scalar: bool):
        values = np.asarray(values)
        return float(values) if scalar else values

    # -- evaluation contract ----------------------------------------------

    def log_survival(self, x):
        y, below, scalar = self._standardized(x)
        ls = self._kernel.log_survival(y, self.nu, self._kernel_beta)
        return self._out(np.where(below, 0.0, ls), scalar)

    def survival(self, x):
        y, below, scalar = self._standardized(x)
        ls = self._kernel.log_survival(y, self.nu, self._kernel_beta)
        return self._out(np.where(below, 1.0, np.exp(ls)), scalar)

    def cdf(self, x):
        y, below, scalar = self._standardized(x)
        kernel = self._kernel
        if hasattr(kernel, "cdf"):
            f = kernel.cdf(y, self.nu, self._kernel_beta)
        else:
            f = -np.expm1(kernel.log_survival(y, self.nu, self._kernel_beta))
        return self._out(np.where(below, 0.0, f), scalar)

    def _log_pdf(self, x):
        """The log density, -inf below eta, and the scalar flag."""
        y, below, scalar = self._standardized(x)
        lp = self._kernel.log_pdf(y, self.nu, self._kernel_beta)
        return np.where(below, -np.inf, lp - math.log(self.tau)), scalar

    def log_pdf(self, x):
        return self._out(*self._log_pdf(x))

    def pdf(self, x):
        lp, scalar = self._log_pdf(x)
        with np.errstate(over="ignore"):
            return self._out(np.exp(lp), scalar)

    def hazard(self, x):
        y, below, scalar = self._standardized(x)
        h = self._kernel.hazard(y, self.nu, self._kernel_beta)
        return self._out(np.where(below, 0.0, h / self.tau), scalar)

    def quantile(self, p):
        arr = np.asarray(p, dtype=float)
        if np.any(np.isnan(arr)):
            raise DomainError("p must not be NaN")
        if np.any((arr < 0.0) | (arr >= 1.0)):
            raise DomainError("quantile requires 0 <= p < 1")
        q = self._kernel.quantile(arr, self.nu, self._kernel_beta)
        return self._out(self.eta + self.tau * np.asarray(q), arr.ndim == 0)

    def median(self) -> float:
        return float(self.quantile(0.5))

    def moment(self, n) -> float | None:
        """Raw moment E[X^n], or None when it does not exist (n >= threshold)."""
        n = float(n)
        if math.isnan(n) or n <= 0.0:
            raise DomainError("moment order must be > 0")
        kernel = self._kernel
        if self.eta == 0.0:
            m = kernel.raw_moment(n, self.nu, self._kernel_beta)
            return None if m is None else self.tau ** n * m
        if n != int(n):
            raise DomainError("fractional moments need eta == 0")
        n_int = int(n)
        if kernel.raw_moment(n, self.nu, self._kernel_beta) is None:
            return None
        total = 0.0
        for k in range(n_int + 1):
            mk = 1.0 if k == 0 else kernel.raw_moment(float(k), self.nu, self._kernel_beta)
            total += math.comb(n_int, k) * self.eta ** (n_int - k) * self.tau ** k * mk
        return total

    def moment_order_threshold(self) -> float:
        return float(self._kernel.moment_order_threshold(self.nu, self._kernel_beta))

    def moment_report(self) -> MomentReport:
        thr = self.moment_order_threshold()
        kernel = self._kernel
        mean = variance = skew = None
        m1 = kernel.raw_moment(1.0, self.nu, self._kernel_beta) if 1.0 < thr else None
        if m1 is not None:
            mean = self.eta + self.tau * m1
        if 2.0 < thr:
            if hasattr(kernel, "variance"):
                var_std = kernel.variance(self.nu, self._kernel_beta)
            else:
                m2 = kernel.raw_moment(2.0, self.nu, self._kernel_beta)
                var_std = m2 - m1 * m1
            variance = self.tau ** 2 * var_std
        if 3.0 < thr:
            if hasattr(kernel, "skewness"):
                skew = kernel.skewness(self.nu, self._kernel_beta)
            else:
                m2 = kernel.raw_moment(2.0, self.nu, self._kernel_beta)
                m3 = kernel.raw_moment(3.0, self.nu, self._kernel_beta)
                var_std = m2 - m1 * m1
                skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3) / var_std ** 1.5
        return MomentReport(mean, variance, skew, thr)

    def skewness(self) -> float | None:
        """Closed-form skewness; generalised exponential only (None for nu <= 3)."""
        if self.family is not Family.GEN_EXP:
            raise UnsupportedOperationError(
                f"skewness closed form is only available for genexp, not {self.family.value}")
        return self._kernel.skewness(self.nu, self._kernel_beta)

    def entropy(self) -> float:
        """Differential entropy; generalised exponential only."""
        if self.family is not Family.GEN_EXP:
            raise UnsupportedOperationError(
                f"entropy is only available for genexp, not {self.family.value}")
        return float(self._kernel.entropy(self.nu, self._kernel_beta)) + math.log(self.tau)

    def mode(self) -> float:
        return self.eta + self.tau * float(self._kernel.mode(self.nu, self._kernel_beta))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` variates; reproducible given the generator's seed."""
        n = int(n)
        if n < 0:
            raise DomainError("sample size must be >= 0")
        if n == 0:
            return np.empty(0, dtype=float)
        values = self._kernel.sample(n, self.nu, self._kernel_beta, rng)
        return self.eta + self.tau * values


def make_handle(family, nu: float = 1.0, beta: float = 1.0, tau: float = 1.0,
                eta: float = 0.0) -> DistributionHandle:
    """Convenience constructor accepting the CLI family names."""
    return DistributionHandle(Family.parse(family), Params(nu=nu, beta=beta, tau=tau, eta=eta))


def log_survival_series_check(x, nu: float):
    """Exact log-survival of the generalised exponential and its small-x series.

    Returns ``(exact, series)`` where the three-term expansion is
    ``-x + (nu/6)(x/nu)^3 - (3 nu/40)(x/nu)^5``, the Taylor series of
    ``-nu asinh(x/nu)``; the remainder is O((x/nu)^7).  Requires
    x/nu <= 0.5 where the expansion is meaningful.
    """
    arr = np.asarray(x, dtype=float)
    exact = -stable_asinh_scaled(arr, nu)
    z = arr / nu
    if np.any(z > 0.5):
        raise DomainError("series check requires x/nu <= 0.5")
    series = -arr + (nu / 6.0) * z ** 3 - (3.0 * nu / 40.0) * z ** 5
    if arr.ndim == 0:
        return float(exact), float(series)
    return exact, series


# -- generalised gamma rejection sampling ---------------------------------
#
# Proposal: compound gamma X = nu G1/G2 (shapes beta, nu).  The density
# ratio target/proposal is bounded because (1+z)/(C+S) <= 1 while
# g(z) = (1+z)/C peaks at z = 1 with maximum exactly sqrt(2).

def gen_gamma_acceptance_probability(x, nu: float, beta: float):
    """Acceptance probability p(x) of the rejection sampler, in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise DomainError("x must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where x/nu overflows
        z = arr / nu
        ln_p = ((nu + beta) * np.log1p(z) - np.log(np.hypot(1.0, z))
                - (nu + beta - 1.0) * np.arcsinh(z) - _LN_SQRT2)
    top = np.isinf(z)
    if top.any():  # log1p z = log c = log z and asinh z = log z + ln 2: log x cancels
        ln_p = np.where(top, -(nu + beta - 1.0) * _LN2 - _LN_SQRT2, ln_p)
    out = np.exp(ln_p)
    return float(out) if arr.ndim == 0 else out


def gen_gamma_rejection(params: Params, rng: np.random.Generator) -> float:
    """One generalised-gamma draw by rejection from the compound gamma."""
    while True:
        x = float(baselines.CompoundGamma.sample(1, params.nu, params.beta, rng)[0])
        if rng.random() <= gen_gamma_acceptance_probability(x, params.nu, params.beta):
            return params.eta + params.tau * x


def gen_gamma_acceptance_rate(nu: float, beta: float, rng: np.random.Generator,
                              n_proposals: int) -> float:
    """Empirical acceptance fraction over exactly ``n_proposals`` proposals."""
    x = baselines.CompoundGamma.sample(int(n_proposals), nu, beta, rng)
    u = rng.random(int(n_proposals))
    return float(np.mean(u <= gen_gamma_acceptance_probability(x, nu, beta)))
