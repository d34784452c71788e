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
beta = 1.  The compound gamma runs ``_IncompleteBeta``, the kernel it shares
with the generalised gamma: survival, density and likelihood score from one
log v(x), and its link arithmetic (log v, the score's terms and sums) from
the power-tail kernel it equals at beta = 1, named as ``_BETA_ONE``: the
Lomax.  Every kernel the fitter optimises has a closed-form ``nll_score``
in (log tau, theta, log beta) at location 0; the exponential has none,
since its fit is closed-form.  No kernel sees a free location: the fitter
profiles it over fixed-location fits of x - eta.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (_log_inc_beta_far, _near_one_from_complement, _psi_remainder, digamma,
                       log_beta, log_gamma, reg_inc_beta, reg_inc_beta_inv)

__all__ = ["Exponential", "Lomax", "BurrXII", "CompoundGamma"]


_LOG1P_CUBIC_SERIES_BELOW = 1e-2


def _log1p_tail(q, first, last):
    """(first - 1) sum_{k = first}^{last} q^k/k by Horner's rule, with log1p z =
    -log(1 - q) = sum_{k >= 1} q^k/k at q = z/(1 + z): log1p z - q at ``first`` 2
    and 2 (log1p z - q) - q^2 at 3, free of their cancellation at small q, where
    q^(last + 1) must be below an ulp of q^first."""
    if not q.size:
        return q
    out = q * ((first - 1.0) / last)
    for k in range(last - 1, first - 1, -1):
        out += (first - 1.0) / k
        out *= q
    out *= q if first == 2 else q * q
    return out


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
    rounding order, ``_ratio(z, far)``, which gives t = z g'(z) and
    c = 1/g'(z) as new arrays, ``_less_ratio(z)``, the series of g(z) - t
    below z = ``_RATIO_SERIES_BELOW``, where the difference cancels, the sums
    ``_score_terms``, which is handed t and c, and for ``nll_hessian_rows``
    the ``_HESSIAN_POINT_TERMS`` per-point terms ``_hessian_point_terms``, the
    per-row sums ``_hessian_row_sums`` formed from theirs, and, for log beta,
    the slices ``_U_TERMS`` and ``_U2_TERMS`` of the point terms weighted by
    u and u^2 and the sums ``_beta_row_sums`` formed from theirs; each may
    overwrite the arrays it is given.

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
            if beta == 1.0:  # np.power(x, 1.0) is not free
                z = x / nu
            else:
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
    def _g(cls, z, far, log_z, out=None):
        """g(z) from _scaled_power's output, in ``out`` or in place over z."""
        out = cls._link(z, out=z if out is None else out)
        out[far] = log_z + cls._LINK_FAR
        return out

    @classmethod
    def _g_less_t(cls, z, far, log_z, t):
        """The sum of g(z) and the array g(z) - t, in place over z, by the
        link's series where z < ``_RATIO_SERIES_BELOW``."""
        small = z < cls._RATIO_SERIES_BELOW
        zs = z[small]
        g = cls._g(z, far, log_z)
        sum_g = g.sum()
        g -= t
        if zs.size:
            g[small] = cls._less_ratio(zs)
        return sum_g, g

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
        """Negative log likelihood of ``x`` at tau = exp(log_tau), nu = 1/theta
        and beta = exp(log_beta), and its gradient in (log_tau, theta, log_beta).

        With y = x/tau, z = theta y^beta, t = z g'(z), m = -z g''(z)/g'(z) and
        k = nu t + m: NLL = n log tau - n log beta - (beta - 1) sum log y
        + sum (nu g(z) - log g'(z)), and its gradient is beta (n - sum k),
        nu sum m - nu^2 sum (g(z) - t) and beta sum (k - 1) log y - n.
        """
        nu, beta, tau = 1.0 / theta, math.exp(log_beta), math.exp(log_tau)
        n = x.size
        # y before the power: tau^-beta alone can overflow.
        y = x / tau
        z, far, log_z = cls._scaled_power(y, nu, beta)
        # log y is -inf at a point x = 0; the link's terms overflow only where far.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_y = np.log(y, out=y)
            nll_link, nll_slope, sum_k, sum_m, g_less_t, k = cls._score_terms(
                z, far, log_z, nu, *cls._ratio(z, far))
        nll = n * (log_tau - log_beta) + nll_link + nll_slope
        if beta != 1.0:  # 0 * log 0 at a point x = 0 adds nothing
            nll -= (beta - 1.0) * log_y.sum()
        k -= 1.0
        return nll, np.array([beta * (n - sum_k), nu * sum_m - nu * nu * g_less_t.sum(),
                              beta * k.dot(log_y) - n])

    @classmethod
    def nll_hessian_rows(cls, x, lengths, log_tau, theta, log_beta=None):
        """Negative log likelihoods at location 0, with their gradients and
        Hessians, of many rows at once: row i is the next ``lengths[i]`` (at
        least 1) points of ``x`` at tau = exp(``log_tau[i]``), nu =
        1/``theta[i]`` and beta = exp(``log_beta[i]``).  Without ``log_beta``
        the rows are at beta = 1 and the result is a (6 x rows) array of the
        rows' NLL, gradient (g_tau, g_theta) and Hessian (h_tau_tau,
        h_tau_theta, h_theta_theta) in (log_tau, theta).  With it every point
        must be positive, and the result is a (10 x rows) array of the NLL,
        the gradient in (log_tau, theta, log_beta) and the Hessian's upper
        triangle by rows (h_tau_tau, h_tau_theta, h_tau_beta, h_theta_theta,
        h_theta_beta, h_beta_beta).

        With z = theta x/tau, t = z g'(z), m = -z g''(z)/g'(z) and d the
        operator z d/dz, the gradient is n - nu sum t - sum m and
        nu sum m - nu^2 sum (g - t), and the Hessian is nu sum dt + sum dm,
        nu^2 sum (t - dt) - nu sum dm and nu^2 sum (dm - m) + nu^3 sum w, with
        w = 2 (g - t) - (t - dt).  The link's ``_hessian_point_terms`` writes
        its per-point terms, each free of cancellation (at g = log1p and small
        z, w is O(z^3), not the difference of two O(z^2) terms), into one
        (terms x points) buffer; one ``np.add.reduceat`` sums it per row, so a
        row's sums do not depend on the rows beside it, and
        ``_hessian_row_sums`` turns those into the sums above.

        At a free beta, z = theta exp(u) with u = beta log(x/tau), k = nu t + m
        and dk = nu dt + dm.  The NLL gains -n log beta - (1 - 1/beta) sum u,
        the log-tau entries take a factor beta (h_tau_tau two), and the new
        entries are g_beta = sum (k - 1) u - n, h_tau_beta = beta (n - sum k)
        - beta sum u dk, h_theta_beta = nu sum u dm - nu^2 sum u (t - dt) and
        h_beta_beta = sum u^2 dk + sum (k - 1) u.  These take the point terms
        ``_U_TERMS`` times u, and ``_U2_TERMS`` of those times u again, in the
        same buffer; ``_beta_row_sums`` turns their sums into sum u t, sum u m,
        sum u dt, sum u dm, sum u (t - dt), sum u^2 dt and sum u^2 dm.  Far
        points take log z = log theta + u.
        """
        lengths = np.asarray(lengths)
        log_tau, theta = np.asarray(log_tau, dtype=float), np.asarray(theta, dtype=float)
        nu = 1.0 / theta
        size = cls._HESSIAN_POINT_TERMS
        # z, and the link's terms, overflow only where far.  The array methods
        # skip the wrappers of np.repeat and np.cumsum, a cost paid per call.
        with np.errstate(over="ignore", invalid="ignore"):
            if log_beta is None:
                z = x * (theta * np.exp(-log_tau)).repeat(lengths)
                far = z > 1e150
                log_z = np.log(x[far])
                if log_z.size:
                    log_z += (np.log(theta) - log_tau).repeat(lengths)[far]
                terms = np.empty((size, x.size))
            else:
                log_beta = np.asarray(log_beta, dtype=float)
                beta = np.exp(log_beta)
                # the point terms, then u, the _U_TERMS times u and the _U2_TERMS of those times u
                once = len(range(size)[cls._U_TERMS])
                terms = np.empty((size + 1 + once + len(range(once)[cls._U2_TERMS]), x.size))
                u = np.log(x, out=terms[size])
                u -= log_tau.repeat(lengths)
                u *= beta.repeat(lengths)
                z = np.add(u, np.log(theta).repeat(lengths))  # log z until the exp below
                far = z > math.log(1e150)
                log_z = z[far]
                np.exp(z, out=z)
            cls._hessian_point_terms(z, far, log_z, terms[:size])
        if log_beta is not None:
            weighted = terms[size + 1:size + 1 + once]
            np.multiply(terms[cls._U_TERMS], u, out=weighted)
            np.multiply(weighted[cls._U2_TERMS], u, out=terms[size + 1 + once:])
        offsets = lengths.cumsum()
        offsets -= lengths
        sums = np.add.reduceat(terms, offsets, axis=1)
        (nll_link, sum_t, sum_m, sum_g_less_t, sum_dt, sum_dm, sum_t_less_dt, sum_dm_less_m,
         sum_w) = cls._hessian_row_sums(sums[:size], nu)
        nu2 = nu * nu
        nll = lengths * log_tau + nll_link
        g_tau = lengths - nu * sum_t - sum_m
        g_theta = nu * sum_m - nu2 * sum_g_less_t
        h_tau_tau = nu * sum_dt + sum_dm
        h_tau_theta = nu2 * sum_t_less_dt - nu * sum_dm
        h_theta_theta = nu2 * (sum_dm_less_m + nu * sum_w)
        if log_beta is None:
            return np.array([nll, g_tau, g_theta, h_tau_tau, h_tau_theta, h_theta_theta])
        sum_u = sums[size]
        sum_ut, sum_um, sum_udt, sum_udm, sum_u_t_less_dt, sum_u2dt, sum_u2dm = (
            cls._beta_row_sums(sums[size + 1:]))
        sum_uk_less_u = nu * sum_ut + sum_um - sum_u
        g_tau *= beta
        return np.array([nll - lengths * log_beta - (1.0 - 1.0 / beta) * sum_u,
                         g_tau, g_theta, sum_uk_less_u - lengths,
                         beta * beta * h_tau_tau, beta * h_tau_theta,
                         g_tau - beta * (nu * sum_udt + sum_udm), h_theta_theta,
                         nu * sum_udm - nu2 * sum_u_t_less_dt,
                         nu * sum_u2dt + sum_u2dm + sum_uk_less_u])

    @classmethod
    def nll_grid(cls, x, log_tau, theta):
        """Negative log likelihood at beta = 1 and location 0 of each sample
        ``x[b]`` of the (samples x n) array ``x`` over its grid of
        nu = 1/``theta`` by tau = exp(``log_tau[b]``), in one pass, as an array
        of shape (samples, theta.size, log_tau.shape[1]); +inf where it is not
        finite."""
        theta = theta[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # where z overflows
            z = x[:, None, None, :] * (theta * np.exp(-log_tau)[:, None, :, None])
            log_density = np.zeros(z.shape)
            cls._subtract_log_density(log_density, z, 1.0 / theta)
            nll = x.shape[1] * log_tau[:, None, :] - log_density.sum(axis=-1)
        nll[~np.isfinite(nll)] = np.inf
        return nll

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
    _RATIO_SERIES_BELOW = 1e-4

    @staticmethod
    def _log_inv_slope(z):
        return np.log1p(z, out=z)

    @staticmethod
    def _subtract_log_density(out, z, nu):
        log1p_z = np.log1p(z, out=z)  # once: g and log(1/g') are the same array
        log1p_z *= nu + 1.0
        out -= log1p_z

    @staticmethod
    def _ratio(z, far):  # t = m = q = z/(1 + z), 1 where far, and c = 1 + z
        c = z + 1.0
        q = np.divide(z, c)
        q[far] = 1.0
        return q, c

    @staticmethod
    def _less_ratio(z):  # log1p z - q to q^5 at q = z/(1 + z) < 1e-4, within q^4/3 of it
        return _log1p_tail(z / (z + 1.0), 2, 5)

    @classmethod
    def _score_terms(cls, z, far, log_z, nu, q, c):
        """The sums of ``nll_score`` at g = log1p, where t = m = q: (nu + 1) sum
        log1p z, which holds the sum of log(1/g') too, 0, (nu + 1) sum q, sum q,
        the array log1p z - q and the array k = (nu + 1) q."""
        sum_g, g_less_q = cls._g_less_t(z, far, log_z, q)
        sum_q = q.sum()
        q *= nu + 1.0
        return (nu + 1.0) * sum_g, 0.0, (nu + 1.0) * sum_q, sum_q, g_less_q, q

    _HESSIAN_POINT_TERMS = 5

    @classmethod
    def _hessian_point_terms(cls, z, far, log_z, out):
        """The point terms of ``nll_hessian_rows`` at g = log1p, where
        t = m = q = z/(1 + z), dt = dm = q/(1 + z) = dq, t - dt = q^2 = m - dm
        and g - t = (w + q^2)/2, into the rows of ``out``: log1p z, q, dq, q^2
        and w."""
        h, q, dq, q2, w = out
        one_z = np.add(z, 1.0, out=dq)
        np.divide(z, one_z, out=q)
        q[far] = 1.0
        np.divide(q, one_z, out=dq)  # 0 where z = inf
        cls._g(z, far, log_z, out=h)
        np.multiply(q, q, out=q2)
        np.subtract(h, q, out=w)
        w *= 2.0
        w -= q2
        small = q < _LOG1P_CUBIC_SERIES_BELOW
        w[small] = _log1p_tail(q[small], 3, 10)

    @staticmethod
    def _hessian_row_sums(sums, nu):
        """The sums of ``nll_hessian_rows`` from the rows' sums of the point
        terms: (nu + 1) sum log1p z, sum q twice, sum (g - q), sum dq twice,
        sum q^2, -sum q^2 and sum w."""
        h, q, dq, q2, w = sums
        return (nu + 1.0) * h, q, q, 0.5 * (w + q2), dq, dq, q2, -q2, w

    _U_TERMS, _U2_TERMS = slice(1, 4), slice(1, 2)  # u q, u dq and u q^2; u^2 dq

    @staticmethod
    def _beta_row_sums(sums):
        """The log-beta sums of ``nll_hessian_rows`` from the rows' sums of
        u q, u dq, u q^2 and u^2 dq, where t = m = q and dt = dm = dq."""
        uq, udq, uq2, u2dq = sums
        return uq, uq, udq, udq, uq2, u2dq, u2dq

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
    in x, so that v(X) ~ Beta(a, beta), whose beta = 1 member, where
    I_v(a, 1) = v^a, is the power-tail kernel ``_BETA_ONE``: with a = ``_A`` nu
    and g its link, log v = -g(z)/A at z = x/nu.  The member gives every piece
    of link arithmetic: log v up to the float maximum of x, and the score's
    t = z g'(z), c = 1/g'(z), m, g - t and their sums.  A subclass gives
    ``_A``, ``_BETA_ONE``, ``_x_from(w, v, nu)``, the x with (1 - v(x))/v(x)
    = w/v, ``_log_h(log_v)`` = log h(v) = g - log c, and ``_log_complement(z,
    c)`` = -log(1 - v) as a new array, the one term that depends on both the
    link and A.  The density's 1 - v = (x/s) v^k and -d log v/dx = (v^k/s) h(v)
    hold with k = A and s = A nu in both families, so ``_A`` serves for both."""

    uses_beta = True
    uses_nu = True

    @classmethod
    def _log_unit(cls, x, nu):  # log v = -g(x/nu)/A, a new array shaped like atleast_1d(x)
        one = cls._BETA_ONE
        out = one._g(*one._scaled_power(x, nu, 1.0))
        out /= -cls._A
        return out

    @classmethod
    def _evaluate(cls, x, nu, beta, cdf):
        """The cdf, or log S; from log v where v < 1e-300 and, for log S, where
        I_v < 1e-200: betainc can be off below 1e-238 and is 0 below 1e-243."""
        a, shape = cls._A * nu, np.shape(x)
        log_v = cls._log_unit(x, nu)
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
    def _log_norm(cls, nu, beta):
        """beta log s + ln B(a, beta), the density's constant."""
        return beta * math.log(cls._A * nu) + log_beta(cls._A * nu, beta)

    @classmethod
    def log_pdf(cls, x, nu, beta):
        """log f = a log v + (beta - 1) log(1 - v) + log(-d log v/dx) - log B(a, beta), the
        Beta(a, beta) density of v(x) times |dv/dx|: by the hooks, (a + beta k) log v
        + (beta - 1) log x - beta log s + log h(v) - log B(a, beta); -inf at x = inf."""
        a, shape = cls._A * nu, np.shape(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0, inf - inf
            out = cls._log_unit(x, nu)
            log_h = cls._log_h(out)
            log_h -= cls._log_norm(nu, beta)
            out *= a + beta * cls._A
            out += log_h
            if beta != 1.0:  # 0 * log 0 at a point x = 0 adds nothing
                out += (beta - 1.0) * np.log(x)
                out[x == np.inf] = -np.inf
        return out.reshape(shape)

    @classmethod
    def nll_score(cls, x, log_tau, theta, log_beta=0.0):
        """Negative log likelihood of ``x`` at tau = exp(log_tau), nu = 1/theta
        and beta = exp(log_beta), and its gradient in (log_tau, theta, log_beta).

        With y = x/tau, z = y/nu, the member's t, m and c at z, and
        nu' = nu + beta - 1: log h = g - log c turns the NLL into n log tau
        + n (beta log s + ln B(a, beta)) - (beta - 1) sum log y plus the member's
        link sums at nu', nu' sum g + sum log c.  The gradient is n beta - sum k,
        with k = nu' t + m the member's k at nu', nu ((beta - 1) sum t + sum m)
        - nu^2 (sum (g - t) + n A R(a, beta)) with R the psi remainder, and
        beta (sum -log(1 - v) - n (psi(a + beta) - psi(beta))).  Each is a sum
        of terms of one size: at small theta the theta component is O(n), not
        O(n/theta) terms that cancel.
        """
        one = cls._BETA_ONE
        nu, beta, tau = 1.0 / theta, math.exp(log_beta), math.exp(log_tau)
        a, n = cls._A * nu, x.size
        y = x / tau
        # log y and -log(1 - v) are -inf and inf at a point x = 0; z^2 overflows where far.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z, far, log_z = one._scaled_power(y, nu, 1.0)
            t, c = one._ratio(z, far)
            log_complement = cls._log_complement(z, c)
            sum_t = t.sum()  # before the member's sums overwrite t
            nll_link, nll_slope, sum_k, sum_m, g_less_t, _ = one._score_terms(
                z, far, log_z, nu + beta - 1.0, t, c)
            nll = n * (log_tau + cls._log_norm(nu, beta)) + nll_link + nll_slope
            if beta != 1.0:  # 0 * log 0 at a point x = 0 adds nothing
                nll -= (beta - 1.0) * np.log(y).sum()
            return nll, np.array([
                n * beta - sum_k,
                nu * ((beta - 1.0) * sum_t + sum_m)
                - nu * nu * (g_less_t.sum() + n * cls._A * _psi_remainder(a, beta)),
                beta * (log_complement.sum() - n * (digamma(a + beta) - digamma(beta)))])

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
        a, shape = cls._A * nu, np.shape(p)
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
        v = rng.gamma(cls._A * nu, size=n)
        with np.errstate(divide="ignore", over="ignore"):  # G_a underflows: x = inf
            return cls._x_from(w, v, nu)

    @staticmethod
    def moment_order_threshold(nu, beta):  # S(x) ~ v^(A nu) falls as x^(-nu) in both
        return nu


class CompoundGamma(_IncompleteBeta):
    """Gamma with gamma-mixed scale (Pearson VI, a scaled F distribution).

    pdf(x) = (x/nu)^(beta-1) (1 + x/nu)^(-(nu+beta)) / (nu B(nu, beta));
    equivalently nu * G1/G2 with G1 ~ Gamma(beta), G2 ~ Gamma(nu), and
    S(x) = I_v(nu, beta) in v = nu/(x+nu).  Used as a fitting baseline and
    as the proposal of the public generalised-gamma rejection sampler.
    """

    _A = 1.0
    _BETA_ONE = Lomax  # v = 1/(1 + z) = exp(-log1p z)

    @staticmethod
    def _x_from(w, v, nu):
        return nu * w / v

    @staticmethod
    def _log_h(log_v):
        return 0.0

    @staticmethod
    def _log_complement(z, c):  # log1p(1/z), as 1 - v = z/(1 + z)
        out = np.reciprocal(z)
        return np.log1p(out, out=out)

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
