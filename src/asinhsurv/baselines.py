"""Classical comparator distributions: exponential, Lomax, Burr XII and the
compound gamma (Pearson VI / F-type).

These are the standard heavy-tailed counterparts the generalised families
are judged against.  Each kernel implements the standard member (scale 1,
location 0) on x >= 0; location-scale wrapping happens in
:class:`asinhsurv.distributions.DistributionHandle`.  Kernel methods take
vectorized x and scalar shape parameters ``nu`` (tail index) and ``beta``
(Weibull/gamma shape, ignored where ``uses_beta`` is false).  The Lomax is
the beta = 1 Burr XII: it subclasses :class:`BurrXII`, adds nothing, and
is handed beta = 1.  The compound gamma runs ``_IncompleteBeta``, the
kernel it shares with the generalised gamma.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (_log_hazard_far, _log_inc_beta_far, _log_shape_factor,
                       _near_one_from_complement, _scaled_power, log_beta, log_gamma,
                       reg_inc_beta, reg_inc_beta_inv)

__all__ = ["Exponential", "Lomax", "BurrXII", "CompoundGamma"]


class Exponential:
    """Unit exponential: S(x) = exp(-x)."""

    uses_beta = False
    uses_nu = False

    @staticmethod
    def log_survival(x, nu, beta):
        return -x

    @staticmethod
    def log_pdf(x, nu, beta):
        return -x

    @staticmethod
    def hazard(x, nu, beta):
        return np.ones_like(x)

    @staticmethod
    def quantile(p, nu, beta):
        return -np.log1p(-p)

    @staticmethod
    def moment_order_threshold(nu, beta):
        return np.inf

    @staticmethod
    def raw_moment(n, nu, beta):
        return float(np.exp(log_gamma(n + 1.0)))

    @staticmethod
    def mode(nu, beta):
        return 0.0

    @staticmethod
    def sample(n, nu, beta, rng):
        return rng.standard_exponential(n)


class BurrXII:
    """Singh-Maddala / Burr type 12: S(x) = (1 + x^beta/nu)^(-nu)."""

    uses_beta = True
    uses_nu = True

    # Static methods: bench/tracing.py wraps them, unwrapping only staticmethod.
    @staticmethod
    def _log1p(z, far, log_z):
        """log1p z from _scaled_power's output, in place over z."""
        out = np.log1p(z, out=z)
        out[far] = log_z
        return out

    @staticmethod
    def log_survival(x, nu, beta):
        out = BurrXII._log1p(*_scaled_power(x, nu, beta))
        out *= -nu
        return out.reshape(np.shape(x))

    @staticmethod
    def log_pdf(x, nu, beta):
        z, far, log_z = _scaled_power(x, nu, beta)
        out = _log_shape_factor(x, beta)
        log1p_z = BurrXII._log1p(z, far, log_z)
        log1p_z *= nu + 1.0
        with np.errstate(invalid="ignore"):  # inf - inf at x = inf, a far point
            out -= log1p_z
        out[far] = _log_hazard_far(log_z, nu, beta) - nu * log_z
        return out.reshape(np.shape(x))

    @staticmethod
    def hazard(x, nu, beta):
        # Directly, not as log_pdf - log_survival: those cancel to a few ulp of nu log1p(z).
        z, far, log_z = _scaled_power(x, nu, beta)
        out = _log_shape_factor(x, beta)
        with np.errstate(invalid="ignore"):  # inf - inf at x = inf, a far point
            out -= BurrXII._log1p(z, far, log_z)
        out[far] = _log_hazard_far(log_z, nu, beta)
        return np.exp(out, out=out).reshape(np.shape(x))

    @staticmethod
    def nll_score(x, log_tau, theta, log_beta=0.0):
        """Negative log likelihood of ``x`` at tau = exp(log_tau), nu = 1/theta,
        beta = exp(log_beta), and its gradient in (log_tau, theta, log_beta).

        With y = x/tau, z = theta y^beta and q = z/(1+z): NLL = n log tau
        - n log beta - (beta - 1) sum log y + (nu + 1) sum log1p z, and its
        gradient is beta (n - (nu + 1) sum q), nu sum q - nu^2 sum
        (log1p z - q) and beta sum ((nu + 1) q - 1) log y - n.
        """
        nu, beta = 1.0 / theta, math.exp(log_beta)
        n = x.size
        y = x / math.exp(log_tau)  # before the power: tau^-beta alone can overflow
        z, far, log_z = _scaled_power(y, nu, beta)
        # In place where it can be: on large samples every fresh array costs
        # more than its arithmetic.  log y is -inf at a point x = 0, and q is
        # inf/inf only where far.
        q = z + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_y = np.log(y, out=y)
            np.divide(z, q, out=q)
        small = z < 1e-4
        zs = z[small]
        h = BurrXII._log1p(z, far, log_z)
        q[far] = 1.0
        sum_q = q.sum()
        nll = n * (log_tau - log_beta) + (nu + 1.0) * h.sum()
        if beta != 1.0:  # 0 * log 0 at a point x = 0 adds nothing
            nll -= (beta - 1.0) * log_y.sum()
        # log1p(z) - q cancels to z^2/2 - ... for small z; use its series there.
        h -= q
        h[small] = zs * zs * (0.5 + zs * (-2.0 / 3.0 + zs * (0.75 - zs * 0.8)))
        q *= nu + 1.0
        q -= 1.0
        grad = np.array([beta * (n - (nu + 1.0) * sum_q),
                         nu * sum_q - nu * nu * h.sum(),
                         beta * q.dot(log_y) - n])
        return nll, grad

    @staticmethod
    def _x_from_hazard(h, nu, beta):
        """The x with cumulative hazard -log S(x) = h; inf, quietly, where it overflows."""
        with np.errstate(over="ignore"):
            return np.power(nu * np.expm1(h / nu), 1.0 / beta)

    @staticmethod
    def quantile(p, nu, beta):
        return BurrXII._x_from_hazard(-np.log1p(-p), nu, beta)

    @staticmethod
    def moment_order_threshold(nu, beta):
        return beta * nu

    @staticmethod
    def raw_moment(n, nu, beta):
        if n >= beta * nu:
            return None
        nb = n / beta
        return float(nb * np.exp(nb * np.log(nu) + log_gamma(nb) + log_gamma(nu - nb) - log_gamma(nu)))

    @staticmethod
    def mode(nu, beta):
        if beta <= 1.0:
            return 0.0
        return float((nu * (beta - 1.0) / (nu * beta + 1.0)) ** (1.0 / beta))

    @staticmethod
    def sample(n, nu, beta, rng):
        return BurrXII._x_from_hazard(rng.standard_exponential(n), nu, beta)


class Lomax(BurrXII):
    """Type-2 Pareto on [0, inf): S(x) = (1 + x/nu)^(-nu).

    The single parameter plays both the shape and the scale role, which is
    what makes the family tend to the unit exponential as nu grows.  It is
    the beta = 1 Burr XII, which supplies every kernel method and the
    likelihood score.
    """

    uses_beta = False


class _IncompleteBeta:
    """Kernel of a family with S(x) = I_v(a, beta) for v in (0, 1] decreasing
    in x, so that v(X) ~ Beta(a, beta).  A subclass gives a = ``_a(nu)``, log v
    = ``_log_unit(x, nu)``, exact up to the float maximum of x, ``_x_from(w, v,
    nu)``, the x at which (1 - v(x))/v(x) = w/v, and a log_pdf -inf at inf."""

    uses_beta = True
    uses_nu = True

    @classmethod
    def _evaluate(cls, x, nu, beta, cdf):
        """The cdf, or log S; from log v where v < 1e-300 and, for log S, where
        I_v < 1e-200: betainc can be off below 1e-238 and is 0 below 1e-243."""
        a, shape = cls._a(nu), np.shape(x)
        log_v = cls._log_unit(np.atleast_1d(np.asarray(x, dtype=float)), nu)
        v, w = np.exp(log_v), -np.expm1(log_v)
        if cdf:
            out = _near_one_from_complement(reg_inc_beta(w, beta, a), v, beta, a)
            far = v < 1e-300  # elsewhere a far S is below an ulp of 1
        else:
            out = _near_one_from_complement(reg_inc_beta(v, a, beta), w, a, beta)
            far = (v < 1e-300) | (out < 1e-200)
            with np.errstate(divide="ignore"):
                np.log(out, out=out)
        if far.any():
            log_s = _log_inc_beta_far(log_v[far], a, beta)
            out[far] = -np.expm1(log_s) if cdf else log_s
        return out.reshape(shape)

    @classmethod
    def log_survival(cls, x, nu, beta):
        return cls._evaluate(x, nu, beta, cdf=False)

    @classmethod
    def cdf(cls, x, nu, beta):
        return cls._evaluate(x, nu, beta, cdf=True)

    @classmethod
    def hazard(cls, x, nu, beta):
        with np.errstate(over="ignore", invalid="ignore"):  # -inf - -inf at x = inf
            h = np.exp(cls.log_pdf(x, nu, beta) - cls.log_survival(x, nu, beta))
        return np.where(np.asarray(x) == np.inf, 0.0, h)

    @classmethod
    def quantile(cls, p, nu, beta):
        # Invert I_v(a, beta) = 1 - p in v: 1 - p is exact in the heavy tail.
        # Where v > 1/2 that rounds the lower tail away (v = 1 at small beta),
        # so invert the cdf I_w(beta, a) = p in w = 1 - v there instead,
        # unless betaincinv gives NaN, as it does at some tiny p.
        a, shape = cls._a(nu), np.shape(p)
        p = np.atleast_1d(p)
        v = reg_inc_beta_inv(1.0 - p, a, beta)
        w = 1.0 - v
        low = np.flatnonzero(v > 0.5)
        w_low = reg_inc_beta_inv(p[low], beta, a)
        solved = ~np.isnan(w_low)
        w[low[solved]] = w_low[solved]
        v[low[solved]] = 1.0 - w_low[solved]
        with np.errstate(divide="ignore", over="ignore"):  # v underflows: x = inf
            return cls._x_from(w, v, nu).reshape(shape)

    @classmethod
    def sample(cls, n, nu, beta, rng):
        # v(X) = G_a / (G_a + G_beta) for independent gamma variates.
        w = rng.gamma(beta, size=n)
        v = rng.gamma(cls._a(nu), size=n)
        with np.errstate(divide="ignore", over="ignore"):  # G_a underflows: x = inf
            return cls._x_from(w, v, nu)


class CompoundGamma(_IncompleteBeta):
    """Gamma with gamma-mixed scale (Pearson VI, a scaled F distribution).

    pdf(x) = (x/nu)^(beta-1) (1 + x/nu)^(-(nu+beta)) / (nu B(nu, beta));
    equivalently nu * G1/G2 with G1 ~ Gamma(beta), G2 ~ Gamma(nu), and
    S(x) = I_v(nu, beta) in v = nu/(x+nu).  Used as a fitting baseline and
    as the proposal of the public generalised-gamma rejection sampler.
    """

    @staticmethod
    def _a(nu):
        return nu

    @staticmethod
    def _log_unit(x, nu):  # -log1p(x/nu), and log(nu/x) where x/nu overflows
        with np.errstate(over="ignore"):
            out = -np.log1p(x / nu)
        top = np.isinf(out)
        out[top] = math.log(nu) - np.log(x[top])
        return out

    @staticmethod
    def _x_from(w, v, nu):
        return nu * w / v

    @staticmethod
    def log_pdf(x, nu, beta):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z = x / nu
            shape_term = 0.0 if beta == 1.0 else (beta - 1.0) * (np.log(x) - np.log(nu))
            out = shape_term - (nu + beta) * np.log1p(z) - np.log(nu) - log_beta(nu, beta)
            top = np.isinf(z)  # x/nu overflows: the terms in z make one power of x
            if top.any():
                out = np.where(top, nu * math.log(nu) - log_beta(nu, beta)
                               - (nu + 1.0) * np.log(x), out)
        return out

    @staticmethod
    def moment_order_threshold(nu, beta):
        return nu

    @staticmethod
    def raw_moment(n, nu, beta):
        if n >= nu:
            return None
        return float(np.exp(n * np.log(nu) + log_gamma(beta + n) - log_gamma(beta)
                            + log_gamma(nu - n) - log_gamma(nu)))

    @staticmethod
    def mode(nu, beta):
        if beta <= 1.0:
            return 0.0
        return float(nu * (beta - 1.0) / (nu + 1.0))
