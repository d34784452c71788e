"""Special functions and numeric utilities.

Everything here is pure and re-entrant: no global mutable state, safe to
call concurrently.  The special functions (``log_gamma``, ``log_beta``,
``beta_fn``, ``reg_inc_beta``, ``reg_inc_beta_inv``, ``digamma``,
``trigamma``) are thin checked wrappers over ``scipy.special``: they accept
scalars or numpy arrays, return a float for scalar input, raise
:class:`DomainError` outside their domain or on NaN, and are the single
source of these quantities for the distribution formulas.  This is the
only module that touches ``scipy.special``, and it imports it inside each
wrapper, so importing the package loads no scipy module and the first call
loads it once per process.  ``log_beta`` alone leaves scipy where the larger
shape is at least 100, for Stirling's series of lgamma(a + b) - lgamma(a):
there ``betaln`` is off by up to 2.6e-9, noise that a fit of a gengamma or
cgamma likelihood reads as slope.  The series is within 5e-14 of 40-digit
mpmath for shapes in [1e-3, 1e6].  ``_psi_remainder`` gives the tail-index
derivative of ln B that those likelihoods' gradients need, free of the
cancellation between two psi values, and ``_psi_remainder_slopes`` its own
derivatives, which their Hessians need.  Where ``betainc`` underflows,
``_log_inc_beta_far`` gives log I_x(a, b) from log x; the families' link
arithmetic lives in their power-tail kernels.  The quadrature,
maximizer and root-finder are deliberately independent of any closed forms
elsewhere in the package so they can serve as verification oracles in tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "log_gamma",
    "beta_fn",
    "log_beta",
    "reg_inc_beta",
    "reg_inc_beta_inv",
    "digamma",
    "trigamma",
    "stable_asinh_scaled",
    "adaptive_quadrature",
    "find_max_1d",
    "find_root_1d",
]


def _reject_nan(name: str, value) -> None:
    if np.any(np.isnan(value)):
        raise DomainError(f"{name} must not be NaN")


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _shape_pair(name: str, a, b):
    """Float arrays of a, b > 0; NaN fails the comparison, so it is rejected too."""
    arr_a, scalar_a = _as_float_array(a)
    arr_b, scalar_b = _as_float_array(b)
    if not ((arr_a > 0.0).all() and (arr_b > 0.0).all()):
        raise DomainError(f"{name} requires a > 0 and b > 0 (not NaN)")
    return arr_a, arr_b, scalar_a and scalar_b


def _unit_and_shapes(name: str, u, a, b):
    """Float array of u in [0, 1] and scalar shapes a, b > 0 (NaN rejected)."""
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"{name} requires a > 0 and b > 0 (not NaN)")
    arr, scalar = _as_float_array(u)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise DomainError(f"{name} requires its first argument in [0, 1] (not NaN)")
    return arr, scalar, a, b


def log_gamma(a):
    """Natural log of the gamma function for a > 0 (``scipy.special.gammaln``).

    Parameters
    ----------
    a : float or ndarray
        Strictly positive argument.
    """
    arr, scalar = _as_float_array(a)
    if not (arr > 0.0).all():
        raise DomainError("log_gamma requires a > 0 (not NaN)")
    from scipy.special import gammaln
    return _maybe_scalar(gammaln(arr), scalar)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2], four terms; below 1e-21 off at z >= 100."""
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def _log_beta(a: float, b: float) -> float:
    if not (a > 0.0 and b > 0.0):
        raise DomainError("log_beta requires a > 0 and b > 0 (not NaN)")
    if a < b:
        a, b = b, a
    if not 100.0 <= a < math.inf:
        from scipy.special import betaln
        return float(betaln(a, b))
    # lgamma(a + b) - lgamma(a) by Stirling's series, free of the cancellation
    # between two large lgamma values.
    s = a + b
    return math.lgamma(b) - ((a - 0.5) * math.log1p(b / a) + b * math.log(s) - b
                             + _stirling_tail(s) - _stirling_tail(a))


_log_beta_array = np.vectorize(_log_beta, otypes=[float])


def _atanh_tail(w2: float) -> float:
    """(atanh w - w)/w^3 = 1/3 + w^2/5 + w^4/7 + ... at w2 = w^2 < 1."""
    total, power, k = 1.0 / 3.0, w2, 5.0
    while power > 1e-17:
        total += power / k
        power *= w2
        k += 2.0
    return total


def _x_less_log1p(x: float) -> float:
    """x - log1p(x) for x >= 0; below x = 1 from w = x/(2 + x), as x w - 2 w^3 (1/3
    + w^2/5 + w^4/7 + ...), since log1p x = 2 atanh w: free of the cancellation."""
    if x >= 1.0:
        return x - math.log1p(x)
    w = x / (2.0 + x)
    w2 = w * w
    return x * w - 2.0 * w * w2 * _atanh_tail(w2)


def _psi_remainder(a: float, b: float) -> float:
    """R(a, b) = b/a - (psi(a + b) - psi(a)) for scalar a, b > 0, the remainder
    of the tail-index derivative of ln B(a, b), free of cancellation.

    R is about b (b - 1)/(2 a^2), while psi(a + b) - psi(a) is near b/a.  Below
    a = 100 the recurrence psi(a + 1) = psi(a) + 1/a gives the exact sum
    R(a, b) = b (b - 1) sum_j 1/((a + j)(a + j + 1)(a + j + b)) + R(a + m, b) over
    j < m; from a >= 100, R = (x - log1p x) - b/(2 a (a + b)) + c'(a) - c'(a + b)
    with x = b/a and c the Stirling tail that ``log_beta`` uses, so that the
    gradient of a gengamma or cgamma likelihood is that of its NLL.  0 at
    b = 1 exactly; within 1e-15 b (b + 1)/a^2 of 50-digit mpmath over a
    in [1e-3, 1e6] and b in [0.05, 1100].
    """
    if b == 1.0:  # psi(a + 1) = psi(a) + 1/a
        return 0.0
    head = 0.0
    if a < 100.0:
        j = a + np.arange(math.ceil(100.0 - a))
        head = b * (b - 1.0) * float(np.sum(1.0 / (j * (j + 1.0) * (j + b))))
        a = float(j[-1]) + 1.0
    s = a + b
    alpha, sigma = 1.0 / (a * a), 1.0 / (s * s)
    # c'(z) = -1/(12 z^2) + 1/(120 z^4) - 1/(252 z^6) + 1/(240 z^8); each power
    # difference alpha^k - sigma^k carries alpha - sigma = b (2a + b) alpha sigma.
    stirling = b * (2.0 * a + b) * alpha * sigma * (
        -1.0 / 12.0 + (alpha + sigma) / 120.0
        - (alpha * alpha + alpha * sigma + sigma * sigma) / 252.0
        + (alpha + sigma) * (alpha * alpha + sigma * sigma) / 240.0)
    return head + (_x_less_log1p(b / a) - b / (2.0 * a * s)) + stirling


def _psi_remainder_slopes(a: float, b: float) -> tuple[float, float]:
    """(2R + a dR/da, dR/db) for R = ``_psi_remainder(a, b)`` and scalar a, b > 0:
    b/a - 2 (psi(a + b) - psi(a)) - a (psi'(a + b) - psi'(a)), about b (b - 1)
    (2b - 1)/(6 a^3) although its terms are near b/a, and 1/a - psi'(a + b).
    Both differentiate R's head sum and Stirling tail term by term; below
    a = 100 the tail at a' = a + m enters as 2 (m/a') R(a') + (a/a') (2R +
    a' dR/da)(a').  The first is 0 at b = 1.  Within 5e-15 b (b + 1)(2b + 1)/a^3
    and 1e-15 (b + 1)/a^2 of 50-digit mpmath on ``_psi_remainder``'s box.
    """
    if a < 100.0:
        p = a + np.arange(math.ceil(100.0 - a))
        q, top = p + b, float(p[-1]) + 1.0
        head = b * (b - 1.0) / (p * (p + 1.0) * q)
        # 2h + a dh/da and dh/db of each head term h
        slope_a = float(np.sum(head * ((p - a) / p + (p + 1.0 - a) / (p + 1.0) + (q - a) / q
                                       - 1.0)))
        slope_b = float(np.sum(((2.0 * b - 1.0) * p + b * b) / (p * (p + 1.0) * q * q)))
        tail_a, tail_b = _psi_remainder_slopes(top, b)
        return (slope_a + 2.0 * (top - a) / top * _psi_remainder(top, b) + a / top * tail_a,
                slope_b + tail_b)
    s, x, u = a + b, b / a, 2.0 + b / a
    alpha, sigma = 1.0 / (a * a), 1.0 / (s * s)
    # c''(z) = 1/(6 z^3) - 1/(30 z^5) + 1/(42 z^7) - 1/(30 z^9) at z = s
    curvature = (1.0 / 6.0 - sigma * (1.0 / 30.0 - sigma * (1.0 / 42.0 - sigma / 30.0))) / s ** 3
    slope_b = ((2.0 * b - 1.0) * a + 2.0 * b * b) / (2.0 * a * s * s) - curvature
    if b == 1.0:
        return 0.0, slope_b
    # 2 (x - log1p x) - x^2/(1 + x), about x^3/3: below x = 1 from w = x/(2 + x)
    log1p_part = (2.0 * (x - math.log1p(x)) - x * x / (1.0 + x) if x >= 1.0 else
                  x * x * x * (1.0 / (u * (1.0 + x)) - 4.0 * _atanh_tail((x / u) ** 2) / u ** 3))
    # P(z) = 2c'(z) + z c''(z) = -1/(60 z^4) + 1/(63 z^6) - 1/(40 z^8)
    stirling = (sigma * sigma * (1.0 / 60.0 - sigma * (1.0 / 63.0 - sigma / 40.0))
                - alpha * alpha * (1.0 / 60.0 - alpha * (1.0 / 63.0 - alpha / 40.0)))
    return log1p_part - b * b / (2.0 * a * s * s) + stirling + b * curvature, slope_b


def log_beta(a, b):
    """ln B(a, b) for a, b > 0; a float for scalar input.

    With a the larger shape: ``scipy.special.betaln`` for a < 100, else
    lgamma(b) - [(a - 1/2) log1p(b/a) + b ln(a + b) - b + c(a + b) - c(a)],
    c the four-term Stirling tail, where betaln is off by up to 2.6e-9.
    Within 5e-14 of 40-digit mpmath (relative where |ln B| >= 1) over a in
    [1e-3, 1e6] and b in [0.05, 1100], either way round.  Scalars stay off
    numpy, whose per-call overhead would dominate the fits.
    """
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _log_beta(a, b)
    out = _log_beta_array(a, b)
    return float(out) if out.ndim == 0 else out


def beta_fn(a, b):
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0
    (``scipy.special.beta``)."""
    arr_a, arr_b, scalar = _shape_pair("beta_fn", a, b)
    from scipy.special import beta
    return _maybe_scalar(beta(arr_a, arr_b), scalar)


def digamma(a):
    """Digamma (psi) function for a > 0 (``scipy.special.psi``)."""
    arr, scalar = _as_float_array(a)
    if not (arr > 0.0).all():
        raise DomainError("digamma requires a > 0 (not NaN)")
    from scipy.special import psi
    return _maybe_scalar(psi(arr), scalar)


def trigamma(a):
    """Trigamma function psi'(a) for a > 0 (``scipy.special.polygamma(1, a)``)."""
    arr, scalar = _as_float_array(a)
    if not (arr > 0.0).all():
        raise DomainError("trigamma requires a > 0 (not NaN)")
    from scipy.special import polygamma
    return _maybe_scalar(polygamma(1, arr), scalar)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], scalar a, b > 0
    (``scipy.special.betainc``).  Monotone nondecreasing in x, exactly 0 at
    x = 0 and 1 at x = 1.
    """
    arr, scalar, a, b = _unit_and_shapes("reg_inc_beta", x, a, b)
    from scipy.special import betainc
    return _maybe_scalar(betainc(a, b, arr), scalar)


def _near_one_from_complement(value, one_minus_x, a, b):
    """``value`` = I_x(a, b), recomputed from 1 - x (formed by the caller
    without cancellation) wherever 1 - x < 1e-4, where x has lost the upper
    tail's digits: as 1 - I_{1-x}(b, a), or, below 1/2, as the ten times
    slower ``betaincc`` (up to a fifth of a gengamma or cgamma cdf's points
    land here)."""
    from scipy.special import betainc, betaincc
    out = np.array(value, dtype=float)
    comp = np.broadcast_to(one_minus_x, out.shape)
    near_one = comp < 1e-4
    tail = 1.0 - betainc(b, a, comp[near_one])
    small = tail < 0.5
    tail[small] = betaincc(b, a, comp[near_one][small])
    out[near_one] = tail
    return out


def _log_inc_beta_far(log_x, a, b):
    """log I_x(a, b) from log x, for x far below the mean a/(a + b): log(x^a
    (1-x)^b / (a B(a, b))) less the log of the continued fraction 1 + d1/(1 +
    d2/(1 + ...)) of DLMF 8.17.22, summed by Lentz's method; -inf at x = 0.
    Where betainc underflows, up to a = 5e5, it settles within ten terms and
    is within 1e-15 of mpmath (``hyp2f1`` for DLMF 8.17.8 is NaN there from
    a = 2.5e4).  Raises ConvergenceError after 100 terms."""
    x = np.exp(log_x)
    lead = a * log_x + b * np.log(-np.expm1(log_x)) - math.log(a) - log_beta(a, b)
    fraction, c, d = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    for j in range(1, 100):
        m = j // 2
        k = m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)
        dj = k / ((a + j - 1.0) * (a + j)) * x
        d = 1.0 / (1.0 + dj * d)
        c = 1.0 + dj / c
        fraction *= c * d
        if np.all(np.abs(c * d - 1.0) <= _EPS):
            return lead - np.log(fraction)
    raise ConvergenceError("incomplete-beta continued fraction unsettled after 100 terms",
                           partial=lead - np.log(fraction))


def reg_inc_beta_inv(p, a, b):
    """Inverse of :func:`reg_inc_beta` in x: the x in [0, 1] with
    I_x(a, b) = p, for p in [0, 1] and scalar a, b > 0
    (``scipy.special.betaincinv``).  Vectorized over p.
    """
    arr, scalar, a, b = _unit_and_shapes("reg_inc_beta_inv", p, a, b)
    from scipy.special import betaincinv
    return _maybe_scalar(betaincinv(a, b, arr), scalar)


def stable_asinh_scaled(x, nu):
    """nu * asinh(x / nu) for x >= 0, nu > 0.

    This is the cumulative hazard kernel of the generalised exponential
    family.  ``asinh`` is evaluated by the C library (log1p-based for small
    arguments), so the result tends to x as nu grows without cancellation,
    and from log x where x/nu overflows, so it is finite up to the float
    maximum of x.
    """
    nu = float(nu)
    _reject_nan("nu", nu)
    if nu <= 0.0:
        raise DomainError("stable_asinh_scaled requires nu > 0")
    arr, scalar = _as_float_array(x)
    _reject_nan("x", arr)
    if np.any(arr < 0.0):
        raise DomainError("stable_asinh_scaled requires x >= 0")
    with np.errstate(over="ignore", divide="ignore"):  # asinh = log(2x/nu) where x/nu overflows
        out = np.arcsinh(arr / nu)
        out = np.where(np.isinf(out), np.log(arr) + math.log(2.0 / nu), out)
    return _maybe_scalar(np.asarray(nu * out), scalar)


@dataclass(frozen=True)
class QuadratureResult:
    """Value and diagnostics of a numeric integration."""

    value: float
    abs_error_estimate: float
    evaluations: int


# 15-point Kronrod nodes (nonnegative half) with weights, and the embedded
# 7-point Gauss weights.  All nodes are interior, so endpoint singularities
# are never sampled.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)                            # Gauss points sit at odd slots
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = np.finfo(float).eps


def _gk15(f: Callable, a: float, b: float):
    """One Gauss-Kronrod 7-15 panel; returns (value, error, resabs)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = center + half * _NODES
    fv = np.asarray(f(xs), dtype=float)
    if fv.shape != xs.shape:
        raise DomainError("integrand must be vectorized over its argument")
    if np.any(np.isnan(fv)):
        raise DomainError("integrand returned NaN")
    resk = float(_WEIGHTS_K @ fv)
    resg = float(_WEIGHTS_G @ fv[_GAUSS_IDX])
    reskh = resk * 0.5
    resasc = float(_WEIGHTS_K @ np.abs(fv - reskh)) * abs(half)
    resabs = float(_WEIGHTS_K @ np.abs(fv)) * abs(half)
    value = resk * half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


def adaptive_quadrature(f: Callable, lo: float, hi: float, tol: float,
                        max_evals: int = 200_000) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over [lo, hi].

    ``hi`` may be ``inf``; the infinite range is mapped onto [0, 1) with
    ``x = lo + t/(1-t)^2``, which turns power-law tails into integrable
    endpoint behaviour.  The integrand must accept numpy arrays.  Worst
    panels are bisected first; panels narrower than the floating-point
    resolution stop subdividing and their error stays in the estimate, so
    the guarantee is ``|value - true| <= max(tol, abs_error_estimate)``.

    Raises
    ------
    ConvergenceError
        If the evaluation budget is exhausted; the partial result is
        attached to the exception.
    """
    for name, v in (("lo", lo), ("tol", tol)):
        _reject_nan(name, v)
    if math.isnan(hi):
        raise DomainError("hi must not be NaN")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if not hi > lo:
        raise DomainError("need hi > lo")

    if math.isinf(hi):
        if math.isinf(lo):
            raise DomainError("lo must be finite")
        inner = f

        # x = lo + t/(1-t)^2 on t in [0, 1).  The squared denominator keeps
        # power-law tails at the moment-existence margin representable: the
        # mass beyond the last float-resolvable node is ~(1e-13)^(2(nu-n)),
        # which a plain 1/(1-t) map cannot reach at tolerance 1e-9.
        def f(t):
            t = np.asarray(t, dtype=float)
            w = 1.0 - t
            with np.errstate(over="ignore"):
                x = lo + t / (w * w)
                return inner(x) * (1.0 + t) / (w * w * w)

        a, b = 0.0, 1.0
    else:
        a, b = float(lo), float(hi)

    evals = 0
    counter = 0
    value, err, _ = _gk15(f, a, b)
    evals += 15
    heap = [(-err, counter, a, b, value, err)]
    frozen_value = 0.0
    frozen_err = 0.0

    def totals():
        v = frozen_value + sum(item[4] for item in heap)
        e = frozen_err + sum(item[5] for item in heap)
        return v, e

    while heap:
        total_value, total_err = totals()
        if total_err <= tol:
            break
        neg_err, _, ia, ib, ival, ierr = heapq.heappop(heap)
        width = ib - ia
        # The width floor keeps every node representably inside (ia, ib),
        # so integrands mapped from an infinite range are never sampled at
        # the t = 1 endpoint.
        if width < 1e-13 * max(abs(ia), abs(ib), 1.0) or ierr <= tol * 1e-6:
            # Cannot usefully subdivide further; keep its error estimate.
            frozen_value += ival
            frozen_err += ierr
            continue
        if evals + 30 > max_evals:
            total_value, total_err = totals()
            partial = QuadratureResult(total_value, total_err, evals)
            raise ConvergenceError(
                f"quadrature budget of {max_evals} evaluations exhausted "
                f"(error estimate {total_err:.3e} > tol {tol:.3e})",
                partial=partial,
            )
        mid = 0.5 * (ia + ib)
        for lo_i, hi_i in ((ia, mid), (mid, ib)):
            v_i, e_i, _ = _gk15(f, lo_i, hi_i)
            evals += 15
            counter += 1
            heapq.heappush(heap, (-e_i, counter, lo_i, hi_i, v_i, e_i))

    total_value, total_err = totals()
    return QuadratureResult(total_value, total_err, evals)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def find_max_1d(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    """Golden-section maximizer of a unimodal function on [lo, hi].

    Returns (argmax, max) with the argmax located to within ``tol``.
    """
    for name, v in (("lo", lo), ("hi", hi), ("tol", tol)):
        _reject_nan(name, v)
    if lo >= hi:
        raise DomainError("need lo < hi")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
    x_best = 0.5 * (a + b)
    return x_best, f(x_best)


_ROOT_MAX_STEPS = 200


def find_root_1d(f: Callable[[float], float], lo: float, hi: float,
                 tol: float) -> float:
    """Bracketing root finder: false position with the Illinois modification.

    Requires a sign change on [lo, hi]; returns as soon as ``|f(x)| <= tol``
    or the bracket is narrower than ``tol`` (then its midpoint).  Each step
    takes the secant through the bracket ends; an end kept twice in a row
    has its function value halved (Illinois), so neither end can stall.
    After two steps in a row that fail to halve the bracket the next step
    bisects, which bounds the work on badly scaled functions.

    Raises
    ------
    ConvergenceError
        If 200 steps reach neither stopping rule, for instance when ``tol``
        is below the float resolution at the root; ``partial`` holds the
        midpoint of the last bracket.
    """
    for name, v in (("lo", lo), ("hi", hi), ("tol", tol)):
        _reject_nan(name, v)
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    a, b = float(lo), float(hi)
    if a >= b:
        raise DomainError("need lo < hi")
    fa = float(f(a))
    fb = float(f(b))
    if math.isnan(fa) or math.isnan(fb):
        raise DomainError("function returned NaN at a bracket endpoint")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise DomainError("no sign change on [lo, hi]")

    steps = 0
    last = 0   # end replaced by the previous step: -1 lower, +1 upper
    slow = 0   # consecutive steps that left more than half the bracket
    while b - a > tol:
        if steps == _ROOT_MAX_STEPS:
            raise ConvergenceError(
                f"root not bracketed to {tol:.3e} in {_ROOT_MAX_STEPS} steps "
                f"(bracket [{a!r}, {b!r}])",
                partial=0.5 * (a + b),
            )
        steps += 1
        width = b - a
        x = b - fb * width / (fb - fa)
        if slow >= 2 or not a < x < b:
            x = 0.5 * (a + b)
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError("function returned NaN inside the bracket")
        if abs(fx) <= tol:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
            if last == 1:
                fa *= 0.5
            last = 1
        else:
            a, fa = x, fx
            if last == -1:
                fb *= 0.5
            last = -1
        slow = slow + 1 if b - a > 0.5 * width else 0
    return 0.5 * (a + b)
