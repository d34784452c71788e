"""Classical comparator distributions: exponential, Lomax, Burr XII and the
compound gamma (Pearson VI / F-type).

These are the standard heavy-tailed counterparts the generalised families
are judged against.  Each kernel implements the standard member (scale 1,
location 0) on x >= 0; location-scale wrapping happens in
:class:`asinhsurv.distributions.DistributionHandle`.  Kernel methods take
vectorized x and scalar shape parameters ``nu`` (tail index) and ``beta``
(Weibull/gamma shape, ignored where ``uses_beta`` is false).  The Burr XII
runs ``_PowerTail`` at the link log1p, the kernel and likelihood score it
shares with the generalised Weibull (link asinh).  The Lomax is the beta = 1
Burr XII: it subclasses :class:`BurrXII`, adds nothing, and is handed
beta = 1.  The compound gamma runs ``_IncompleteBeta``, the kernel it
shares with the generalised gamma.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (_log_inc_beta_far, _near_one_from_complement, log_beta, log_gamma,
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


class _PowerTail:
    """Kernel of a family with S(x) = exp(-nu g(z)), z = x^beta/nu, for a link
    g with g(0) = 0, g'(0) = 1 and g(z) - log z tending to a constant: the
    generalised Weibull (g = asinh) and the Burr XII (g = log1p), whose tails
    both fall as x^(-beta nu).  A subclass gives g and g^-1 as the ufuncs
    ``_link`` and ``_inverse``, ``_LINK_FAR`` = g(z) - log z far out,
    ``_log_inv_slope(z)`` = log(1/g'(z)), ``_subtract_log_density(out, z,
    nu)``, which takes nu g(z) + log(1/g'(z)) from ``out`` in the link's own
    rounding order, and ``_score_terms``; each may overwrite z.

    z overflows for moderate x and beta, so past z = 1e150 the kernel works
    from log z: there g(z) = log z + ``_LINK_FAR`` and log(1/g'(z)) = log z
    to double precision, and the hazard is beta nu / x.  Those points are set
    after the body arithmetic, which may overflow there quietly.  Arrays are
    updated in place: on 1e5 points each fresh temporary costs more than the
    arithmetic it holds.
    """

    uses_beta = True
    uses_nu = True

    @staticmethod
    def _scaled_power(x, nu, beta):
        """z = x^beta / nu for x >= 0 as a new array shaped like atleast_1d(x) (inf
        where it overflows), the mask of z > 1e150, and log z at those points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):
            z = np.power(x, beta)
            z /= nu
        far = z > 1e150
        return z, far, beta * np.log(x[far]) - math.log(nu)

    @staticmethod
    def _log_shape_factor(x, beta):
        """log(beta x^(beta-1)) for x >= 0, a new array shaped like atleast_1d(x) (0 at beta = 1)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if beta == 1.0:
            return np.zeros(x.shape)
        with np.errstate(divide="ignore"):
            out = np.log(x)
        out *= beta - 1.0
        out += math.log(beta)
        return out

    @staticmethod
    def _log_hazard_far(log_z, nu, beta):
        """log(beta nu / x) from log z = beta log x - log nu, free of the
        inf - inf of log(beta x^(beta-1)) - log z at x = inf."""
        return (math.log(beta) + (1.0 - 1.0 / beta) * math.log(nu)) - log_z / beta

    @classmethod
    def _g(cls, z, far, log_z):
        """g(z) from _scaled_power's output, in place over z."""
        out = cls._link(z, out=z)
        out[far] = log_z + cls._LINK_FAR
        return out

    @classmethod
    def log_survival(cls, x, nu, beta):
        out = cls._g(*cls._scaled_power(x, nu, beta))
        out *= -nu
        return out.reshape(np.shape(x))

    @classmethod
    def log_pdf(cls, x, nu, beta):
        z, far, log_z = cls._scaled_power(x, nu, beta)
        out = cls._log_shape_factor(x, beta)
        with np.errstate(over="ignore", invalid="ignore"):  # only at far points
            cls._subtract_log_density(out, z, nu)
        out[far] = cls._log_hazard_far(log_z, nu, beta) - nu * (log_z + cls._LINK_FAR)
        return out.reshape(np.shape(x))

    @classmethod
    def hazard(cls, x, nu, beta):
        # Directly, not as log_pdf - log_survival: those cancel to a few ulp of nu g(z).
        z, far, log_z = cls._scaled_power(x, nu, beta)
        out = cls._log_shape_factor(x, beta)
        with np.errstate(over="ignore", invalid="ignore"):  # only at far points
            out -= cls._log_inv_slope(z)
        out[far] = cls._log_hazard_far(log_z, nu, beta)
        return np.exp(out, out=out).reshape(np.shape(x))

    @classmethod
    def nll_score(cls, x, log_tau, theta, log_beta=0.0):
        """Negative log likelihood of ``x`` at tau = exp(log_tau), nu = 1/theta,
        beta = exp(log_beta), and its gradient in (log_tau, theta, log_beta).

        With y = x/tau, z = theta y^beta, t = z g'(z), m = -z g''(z)/g'(z) and
        k = nu t + m: NLL = n log tau - n log beta - (beta - 1) sum log y
        + sum (nu g(z) - log g'(z)), and its gradient is beta (n - sum k),
        nu sum m - nu^2 sum (g(z) - t) and beta sum (k - 1) log y - n.
        """
        nu, beta = 1.0 / theta, math.exp(log_beta)
        n = x.size
        y = x / math.exp(log_tau)  # before the power: tau^-beta alone can overflow
        z, far, log_z = cls._scaled_power(y, nu, beta)
        # log y is -inf at a point x = 0; the link's terms overflow only where far.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_y = np.log(y, out=y)
            nll_link, nll_slope, sum_k, sum_m, g_less_t, k_less_1 = cls._score_terms(z, far, log_z, nu)
        nll = n * (log_tau - log_beta) + nll_link + nll_slope
        if beta != 1.0:  # 0 * log 0 at a point x = 0 adds nothing
            nll -= (beta - 1.0) * log_y.sum()
        grad = np.array([beta * (n - sum_k),
                         nu * sum_m - nu * nu * g_less_t.sum(),
                         beta * k_less_1.dot(log_y) - n])
        return nll, grad

    @classmethod
    def _x_from_hazard(cls, h, nu, beta):
        """The x with cumulative hazard -log S(x) = h; inf, quietly, where it overflows."""
        with np.errstate(over="ignore"):
            return np.power(nu * cls._inverse(h / nu), 1.0 / beta)

    @classmethod
    def quantile(cls, p, nu, beta):
        return cls._x_from_hazard(-np.log1p(-p), nu, beta)

    @classmethod
    def sample(cls, n, nu, beta, rng):
        return cls._x_from_hazard(rng.standard_exponential(n), nu, beta)

    @staticmethod
    def moment_order_threshold(nu, beta):
        return beta * nu


class BurrXII(_PowerTail):
    """Singh-Maddala / Burr type 12: S(x) = (1 + x^beta/nu)^(-nu), the power-tail
    kernel at g = log1p, for which log(1/g'(z)) = log1p z = g(z)."""

    _link = np.log1p
    _inverse = np.expm1
    _LINK_FAR = 0.0

    @staticmethod
    def _log_inv_slope(z):
        return np.log1p(z, out=z)

    @staticmethod
    def _subtract_log_density(out, z, nu):
        log1p_z = np.log1p(z, out=z)  # once: g and log(1/g') are the same array
        log1p_z *= nu + 1.0
        out -= log1p_z

    @classmethod
    def _score_terms(cls, z, far, log_z, nu):
        """The sums of ``nll_score`` at g = log1p, where t = m = q = z/(1 + z):
        (nu + 1) sum log1p z, which holds the sum of log(1/g') too, 0, (nu + 1)
        sum q, sum q, the array log1p z - q and the array (nu + 1) q - 1."""
        q = z + 1.0
        np.divide(z, q, out=q)
        small = z < 1e-4
        zs = z[small]
        h = cls._g(z, far, log_z)
        q[far] = 1.0
        sum_q = q.sum()
        nll_link = (nu + 1.0) * h.sum()
        # log1p(z) - q cancels to z^2/2 - ... for small z; use its series there.
        h -= q
        h[small] = zs * zs * (0.5 + zs * (-2.0 / 3.0 + zs * (0.75 - zs * 0.8)))
        q *= nu + 1.0
        q -= 1.0
        return nll_link, 0.0, (nu + 1.0) * sum_q, sum_q, h, q

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
