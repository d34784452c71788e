"""Output checks the benchmark applies to every request.

Each check returns ``None`` when the output is acceptable and a short
reason otherwise; a request whose check fails counts as failed.  The
log-likelihoods are recomputed here from the closed-form densities with
numpy and scipy, independently of the package's own kernels.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.special import betaln

NLL_RTOL = 1e-8          # reported vs recomputed neg-log-likelihood
NESTED_RTOL = 1e-6       # lomax/genexp may not be worse than the exponential fit
MEDIAN_RTOL = 1e-12      # cell medians vs medians of the replication rows
ROUNDTRIP_ATOL = 1e-9    # |cdf(quantile(p)) - p|
CONSISTENCY_RTOL = 1e-8  # pdf vs exp(log_pdf), cdf vs 1 - survival, ...
PROB_ROUNDING = 4 * np.finfo(float).eps  # cdf/survival may round past 1 by a few ulp
KS_ALPHA = 1e-9          # false-alarm rate of one KS check
KS_MAX_POINTS = 4000     # draws entering one KS check


def _log_density(family: str, y: np.ndarray, nu: float, beta: float) -> np.ndarray:
    """Standard-member log density (tau = 1, eta = 0) from the closed forms."""
    z = y / nu
    log_c = 0.5 * np.log1p(z * z)
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    if family == "exp":
        return -y
    if family == "lomax":
        return -(nu + 1.0) * np.log1p(z)
    if family == "genexp":
        return -nu * np.arcsinh(z) - log_c
    if family == "genexp2":
        return math.log((nu + 2.0) / (nu + 1.0)) - (nu + 1.0) * np.arcsinh(z)
    if family == "genweibull":
        w = np.power(y, beta) / nu
        return (math.log(beta) + (beta - 1.0) * log_y
                - nu * np.arcsinh(w) - 0.5 * np.log1p(w * w))
    if family == "gengamma":
        return (beta * math.log(2.0 / nu) + (beta - 1.0) * log_y
                - (nu + beta - 1.0) * np.arcsinh(z) - log_c - betaln(nu / 2.0, beta))
    if family == "burr12":
        return math.log(beta) + (beta - 1.0) * log_y - (nu + 1.0) * np.log1p(np.power(y, beta) / nu)
    if family == "cgamma":
        return ((beta - 1.0) * (log_y - math.log(nu)) - (nu + beta) * np.log1p(z)
                - math.log(nu) - betaln(nu, beta))
    raise ValueError(f"no reference density for {family}")


def reference_nll(family: str, params, x: np.ndarray) -> float:
    """Minus the log likelihood of ``x`` under ``family`` with ``params``."""
    y = (np.asarray(x, dtype=float) - params.eta) / params.tau
    if np.any(y < 0.0):
        return math.inf
    return float(-np.sum(_log_density(family, y, params.nu, params.beta))
                 + y.size * math.log(params.tau))


def exponential_nll(x: np.ndarray) -> float:
    """Closed-form minimum of the exponential neg-log-likelihood."""
    return x.size * (1.0 + math.log(float(np.mean(x))))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def check_fit(result, x: np.ndarray) -> str | None:
    """A fit must converge and report the likelihood at its estimates."""
    family = result.family.value
    if not result.converged:
        return f"{family}: fit did not converge"
    ref = reference_nll(family, result.estimates, x)
    if not _close(result.neg_log_lik, ref, NLL_RTOL):
        return f"{family}: reported nll {result.neg_log_lik!r} != recomputed {ref!r}"
    return None


def check_not_worse_than_exponential(family: str, nll: float, x: np.ndarray,
                                     nu_cap: float) -> str | None:
    """Families containing the exponential as a limit must fit at least as well.

    The fitter caps nu at ``nu_cap``, so the limit itself is out of reach;
    the tolerance adds the gap between the exponential's minimum and the
    family's likelihood at (nu_cap, tau = mean) -- O(n / nu_cap) for the
    Lomax, far smaller for genexp.
    """
    exp_nll = exponential_nll(x)
    capped = reference_nll(family, _Params(nu_cap, float(np.mean(x))), x)
    tol = NESTED_RTOL * (1.0 + abs(exp_nll)) + abs(capped - exp_nll)
    if nll > exp_nll + tol:
        return f"{family}: nll {nll!r} worse than the exponential's {exp_nll!r}"
    return None


def study_data(base_seed: int, size_index: int, rep: int, n: int, true_tau: float) -> np.ndarray:
    """The clean sample of one replication, regenerated from the documented
    stream scheme (PCG64 seeded by SeedSequence(base_seed, spawn_key))."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(size_index, rep))
    return true_tau * np.random.Generator(np.random.PCG64(ss)).standard_exponential(n)


def check_study(report, config, nu_cap: float) -> str | None:
    """Rows must match refitted likelihoods on regenerated data, and the
    cell medians must be the medians of the rows."""
    outliers = list(config.outlier_values)
    for row in report.replications:
        size_index = config.sample_sizes.index(row.n)
        clean = study_data(config.base_seed, size_index, row.replication, row.n, config.true_tau)
        data = np.concatenate([clean, outliers[:row.n_outliers]])
        if row.clean_mean != float(np.mean(clean)):
            return f"study n={row.n} rep={row.replication}: clean mean differs"
        for method in ("exp", "lomax", "genexp"):
            fit = getattr(row, method)
            if not fit.converged:
                return f"study {method} n={row.n} k={row.n_outliers}: fit did not converge"
            params = _Params(fit.nu_hat or 1.0, fit.tau_hat)
            ref = reference_nll(method, params, data)
            if not _close(fit.neg_log_lik, ref, NLL_RTOL):
                return f"study {method}: reported nll {fit.neg_log_lik!r} != recomputed {ref!r}"
            if method != "exp":
                problem = check_not_worse_than_exponential(method, fit.neg_log_lik, data, nu_cap)
                if problem:
                    return "study " + problem
            error = abs(fit.tau_hat - row.clean_mean)
            name = "ignore" if method == "exp" else method
            if getattr(row, f"error_{name}") != error:
                return f"study {method}: error column differs from |tau_hat - clean mean|"
    for cell in report.cells:
        rows = [r for r in report.replications if r.n == cell.n and r.n_outliers == cell.n_outliers]
        if len(rows) != config.replications or cell.replications != len(rows):
            return f"study cell n={cell.n} k={cell.n_outliers}: wrong replication count"
        for name in ("ignore", "lomax", "genexp"):
            median = statistics.median(getattr(r, f"error_{name}") for r in rows)
            if not _close(getattr(cell, f"error_{name}_median"), median, MEDIAN_RTOL):
                return f"study cell n={cell.n} k={cell.n_outliers}: error_{name} median differs"
        for method in ("exp", "lomax", "genexp"):
            stats = getattr(cell, method)
            for field in ("tau_hat", "neg_log_lik"):
                median = statistics.median(getattr(getattr(r, method), field) for r in rows)
                if not _close(getattr(stats, f"{field}_median"), median, MEDIAN_RTOL):
                    return f"study cell n={cell.n} k={cell.n_outliers}: {method} {field} median differs"
    return None


class _Params:
    """Parameter record for :func:`reference_nll` (beta = 1, eta = 0)."""

    def __init__(self, nu: float, tau: float):
        self.nu, self.tau, self.beta, self.eta = nu, tau, 1.0, 0.0


def check_eval(handle, what: str, x: np.ndarray, values: np.ndarray, probe: np.ndarray) -> str | None:
    """Range checks on the whole batch, then a consistency check on the
    ``probe`` indices against a different method of the same handle."""
    values = np.asarray(values)
    if values.shape != x.shape:
        return f"{what}: shape {values.shape} != {x.shape}"
    if what == "log_pdf":
        if np.any(np.isnan(values)) or np.any(values == np.inf):
            return "log_pdf: NaN or +inf"
    elif not np.all(np.isfinite(values)) or np.any(values < 0.0):
        return f"{what}: non-finite or negative values"
    if what in ("cdf", "survival") and np.any(values > 1.0 + PROB_ROUNDING):
        return f"{what}: values above 1"
    xp, vp = x[probe], values[probe]
    if what == "pdf":
        ref = np.exp(handle.log_pdf(xp))
    elif what == "log_pdf":
        pdf = handle.pdf(xp)
        keep = pdf > 1e-300
        xp, vp, ref = xp[keep], vp[keep], np.log(pdf[keep])
    elif what == "cdf":
        ref = 1.0 - handle.survival(xp)
    elif what == "survival":
        ref = 1.0 - handle.cdf(xp)
    else:  # hazard
        surv = handle.survival(xp)
        keep = surv > 1e-300
        xp, vp, ref = xp[keep], vp[keep], handle.pdf(xp[keep]) / surv[keep]
    tol = (1e-10 if what in ("cdf", "survival") else CONSISTENCY_RTOL) * (1.0 + np.abs(ref))
    if np.any(np.abs(vp - ref) > tol):
        return f"{what}: inconsistent with the handle's other methods"
    return None


def check_quantile(handle, p: np.ndarray, q: np.ndarray) -> str | None:
    q = np.asarray(q)
    if q.shape != p.shape or not np.all(np.isfinite(q)) or np.any(q < handle.eta):
        return "quantile: non-finite or below support"
    err = np.abs(handle.cdf(q) - p)
    if np.any(err > ROUNDTRIP_ATOL):
        return f"quantile: cdf(quantile(p)) off by {float(np.max(err)):.3g}"
    return None


def ks_statistic(handle, draws: np.ndarray) -> float:
    x = np.sort(draws[:KS_MAX_POINTS])
    cdf = handle.cdf(x)
    i = np.arange(x.size)
    return max(float(np.max(cdf - i / x.size)), float(np.max((i + 1) / x.size - cdf)))


def check_draws(handle, draws: np.ndarray, n: int) -> str | None:
    """Draws must be finite, inside the support, and pass a KS check."""
    draws = np.asarray(draws)
    if draws.shape != (n,):
        return f"sample: shape {draws.shape} != ({n},)"
    if not np.all(np.isfinite(draws)) or np.any(draws < handle.eta):
        return "sample: non-finite draws or draws below the support"
    m = min(n, KS_MAX_POINTS)
    bound = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * m))
    d = ks_statistic(handle, draws)
    if d > bound:
        return f"sample: KS statistic {d:.4g} above {bound:.4g}"
    return None
