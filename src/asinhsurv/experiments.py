"""Outlier-robustness study and pdf-comparison curves.

The study draws exponential samples, appends fixed outlier values, fits
the naive exponential, the Lomax and the generalised exponential to the
contaminated data, and measures each scale estimate against the mean of
the clean sample.  Single runs of such a study are noisy, so the headline
statistics are per-cell medians (with quartiles) over many seeded
replications.

Replication (size_index, r) draws from ``make_stream(base_seed,
size_index, r)``.  All samples of one size are fitted together, one batch
per family (see :mod:`asinhsurv.fitting`), but no fit depends on
which samples share its batch: results are bit-identical for a given config
and seed no matter how the replications are scheduled or batched, and a
replication's rows are the same whatever the number of replications.
Aggregation is order-independent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import _KERNELS, Family, make_handle
from .errors import DomainError
from .fitting import FitOptions, FitResult, Sample, _fit_samples, fit_all
from .rng import _SEED_MAX, make_stream

__all__ = [
    "ExperimentConfig",
    "MethodFit",
    "ReplicationRow",
    "MethodCellStats",
    "CellSummary",
    "ExperimentReport",
    "run_robustness_study",
    "emit_curves",
    "CURVE_COLUMNS",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and seeds for the robustness study."""

    sample_sizes: tuple[int, ...] = (10, 100, 1000)
    outlier_values: tuple[float, ...] = (20.0, 10.0)
    true_tau: float = 1.0
    replications: int = 200
    base_seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes",
                           tuple(_integer("sample_sizes", n) for n in self.sample_sizes))
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed))
        object.__setattr__(self, "outlier_values", tuple(float(v) for v in self.outlier_values))
        object.__setattr__(self, "true_tau", float(self.true_tau))
        sizes = self.sample_sizes  # distinct: the cells are keyed by n
        # Lomax and genexp fit two slots, so each sample needs two points.
        if not sizes or min(sizes) < 2 or len(set(sizes)) < len(sizes):
            raise DomainError(f"sample_sizes must be distinct and >= 2, got {sizes}")
        if not all(0.0 <= v < math.inf for v in self.outlier_values):
            raise DomainError(f"outlier_values must be finite and >= 0, got {self.outlier_values}")
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not 0 <= self.base_seed <= _SEED_MAX:
            raise DomainError(f"base_seed must fit in 64 unsigned bits, got {self.base_seed}")
        if not 0.0 < self.true_tau < math.inf:
            raise DomainError(f"true_tau must be finite and > 0, got {self.true_tau}")


def _integer(name: str, value) -> int:
    """``value`` as an int; numpy integers pass, bools and floats fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name}: {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class MethodFit:
    """One method's fit inside a replication."""

    neg_log_lik: float
    tau_hat: float
    nu_hat: float | None
    converged: bool
    at_nu_bound: bool

    @classmethod
    def from_result(cls, result: FitResult) -> "MethodFit":
        nu_hat = result.estimates.nu if _KERNELS[result.family].uses_nu else None
        return cls(result.neg_log_lik, result.estimates.tau, nu_hat,
                   result.converged, result.at_nu_bound)


@dataclass(frozen=True)
class ReplicationRow:
    """One (sample size, outlier count, replication) cell entry."""

    n: int
    n_outliers: int
    replication: int
    clean_mean: float
    contaminated_mean: float
    exp: MethodFit
    lomax: MethodFit
    genexp: MethodFit
    error_ignore: float
    error_lomax: float
    error_genexp: float


@dataclass(frozen=True)
class MethodCellStats:
    neg_log_lik_median: float
    tau_hat_median: float
    nu_hat_median: float | None
    converged_rate: float
    at_nu_bound_rate: float


@dataclass(frozen=True)
class CellSummary:
    """Medians and quartiles over the replications of one grid cell."""

    n: int
    n_outliers: int
    replications: int
    error_ignore_median: float
    error_ignore_q1: float
    error_ignore_q3: float
    error_lomax_median: float
    error_lomax_q1: float
    error_lomax_q3: float
    error_genexp_median: float
    error_genexp_q1: float
    error_genexp_q3: float
    exp: MethodCellStats
    lomax: MethodCellStats
    genexp: MethodCellStats


_METHODS = ("exp", "lomax", "genexp")

REPLICATION_COLUMNS = (
    "n", "n_outliers", "replication", "clean_mean", "contaminated_mean",
    "error_ignore", "error_lomax", "error_genexp",
    "exp_neg_log_lik", "exp_tau_hat",
    "lomax_neg_log_lik", "lomax_tau_hat", "lomax_nu_hat", "lomax_converged", "lomax_at_nu_bound",
    "genexp_neg_log_lik", "genexp_tau_hat", "genexp_nu_hat", "genexp_converged",
    "genexp_at_nu_bound",
)

SUMMARY_COLUMNS = (
    "n", "n_outliers", "replications",
    "error_ignore_median", "error_ignore_q1", "error_ignore_q3",
    "error_lomax_median", "error_lomax_q1", "error_lomax_q3",
    "error_genexp_median", "error_genexp_q1", "error_genexp_q3",
    "exp_neg_log_lik_median", "exp_tau_hat_median",
    "lomax_neg_log_lik_median", "lomax_tau_hat_median", "lomax_nu_hat_median",
    "lomax_converged_rate", "lomax_at_nu_bound_rate",
    "genexp_neg_log_lik_median", "genexp_tau_hat_median", "genexp_nu_hat_median",
    "genexp_converged_rate", "genexp_at_nu_bound_rate",
)


@dataclass(frozen=True)
class ExperimentReport:
    """Full study output: config echo, per-cell summaries, raw replications."""

    config: ExperimentConfig
    cells: tuple[CellSummary, ...]
    replications: tuple[ReplicationRow, ...]

    def cell(self, n: int, n_outliers: int) -> CellSummary:
        for c in self.cells:
            if c.n == n and c.n_outliers == n_outliers:
                return c
        raise KeyError(f"no cell for n={n}, n_outliers={n_outliers}")

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "cells": [asdict(c) for c in self.cells],
            "replications": [asdict(r) for r in self.replications],
        }

    def replication_rows(self) -> list[tuple]:
        return [tuple(_column(r, name) for name in REPLICATION_COLUMNS)
                for r in self.replications]

    def summary_rows(self) -> list[tuple]:
        return [tuple(_column(c, name) for name in SUMMARY_COLUMNS) for c in self.cells]


def _column(row, name: str):
    """The value of column ``name`` in a replication or cell row.

    A ``<method>_`` prefix selects that method's fit or statistics record;
    booleans become 0/1.
    """
    method, _, field = name.partition("_")
    if method in _METHODS:
        row, name = getattr(row, method), field
    value = getattr(row, name)
    return int(value) if isinstance(value, bool) else value


def _cell_summaries(n: int, cells: list[list[ReplicationRow]]) -> list[CellSummary]:
    """The summary of each cell (n, k), whose rows are ``cells[k]``; every
    cell of one n holds one row per replication."""
    # One median, one quantile and one mean over (cell x statistic x
    # replication) arrays: a numpy call per statistic costs more than the
    # statistic.  nu_hat is None in every row of a method without nu, or in none.
    with_nu = [i for i, method in enumerate(_METHODS)
               if getattr(cells[0][0], method).nu_hat is not None]
    names = ("ignore", "lomax", "genexp")
    errors, values, flags = [], [], []
    for rows in cells:
        fits = [[getattr(r, method) for r in rows] for method in _METHODS]
        errors.append([[getattr(r, f"error_{name}") for r in rows] for name in names])
        values.append(errors[-1] + [[f.neg_log_lik for f in m] for m in fits]
                      + [[f.tau_hat for f in m] for m in fits]
                      + [[f.nu_hat for f in fits[i]] for i in with_nu])
        flags.append([[f.converged for f in m] for m in fits]
                     + [[f.at_nu_bound for f in m] for m in fits])
    medians = np.median(values, axis=2).tolist()
    q1, q3 = np.quantile(errors, [0.25, 0.75], axis=2).tolist()
    rates = np.mean(flags, axis=2).tolist()
    summaries = []
    for k, rows in enumerate(cells):
        nu_medians = dict(zip(with_nu, medians[k][9:]))
        stats = {}
        for name, median, low, high in zip(names, medians[k], q1[k], q3[k]):
            stats.update({f"error_{name}_median": median, f"error_{name}_q1": low,
                          f"error_{name}_q3": high})
        for i, method in enumerate(_METHODS):
            stats[method] = MethodCellStats(
                neg_log_lik_median=medians[k][3 + i], tau_hat_median=medians[k][6 + i],
                nu_hat_median=nu_medians.get(i), converged_rate=rates[k][i],
                at_nu_bound_rate=rates[k][3 + i])
        summaries.append(CellSummary(n=n, n_outliers=k, replications=len(rows), **stats))
    return summaries


def _fit_study(samples: list[Sample]) -> list[tuple[FitResult, FitResult, FitResult]]:
    """The exponential, Lomax and genexp fits of each sample, each family's
    as one batch (the exponential's has a closed form).  If a batch raises
    anything but ``DomainError``, every sample is refitted alone by
    ``fit_all``, which turns only the fits that raise again into unconverged
    placeholders with infinite NLL."""
    families = (Family.EXPONENTIAL, Family.LOMAX, Family.GEN_EXP)
    try:
        return list(zip(*(_fit_samples(family, samples, FitOptions()) for family in families)))
    except DomainError:
        raise
    except Exception:
        by_family = [{r.family: r for r in fit_all(sample)} for sample in samples]
        return [tuple(results[family] for family in families) for results in by_family]


def run_robustness_study(config: ExperimentConfig) -> ExperimentReport:
    """Run the full contamination grid and aggregate per-cell medians.

    Each replication reuses one clean sample across the outlier counts
    (outliers are appended as exact constants, in order), mirroring how the
    contaminated datasets relate to each other.  Fits run the default
    ``FitOptions``; failures surface as unconverged rows, never aborting it.
    """
    outlier_prefix = [np.array(config.outlier_values[:k])
                      for k in range(len(config.outlier_values) + 1)]
    rows: list[ReplicationRow] = []
    cells: list[CellSummary] = []
    for size_index, n in enumerate(config.sample_sizes):
        clean_means, samples = [], []
        for rep in range(config.replications):
            rng = make_stream(config.base_seed, size_index, rep)
            clean = config.true_tau * rng.standard_exponential(n)
            clean_means.append(float(np.mean(clean)))
            samples += [Sample(np.concatenate([clean, outliers]) if k else clean)
                        for k, outliers in enumerate(outlier_prefix)]
        for index, (sample, fits) in enumerate(zip(samples, _fit_study(samples))):
            rep, k = divmod(index, len(outlier_prefix))
            exp_fit, lomax_fit, genexp_fit = map(MethodFit.from_result, fits)
            clean_mean = clean_means[rep]
            rows.append(ReplicationRow(
                n=n, n_outliers=k, replication=rep,
                clean_mean=clean_mean, contaminated_mean=float(np.mean(sample.values)),
                exp=exp_fit, lomax=lomax_fit, genexp=genexp_fit,
                error_ignore=abs(exp_fit.tau_hat - clean_mean),
                error_lomax=abs(lomax_fit.tau_hat - clean_mean),
                error_genexp=abs(genexp_fit.tau_hat - clean_mean),
            ))
        n_rows = rows[len(rows) - len(samples):]  # in (replication, outlier count) order
        cells += _cell_summaries(n, [n_rows[k::len(outlier_prefix)]
                                     for k in range(len(outlier_prefix))])
    return ExperimentReport(config=config, cells=tuple(cells), replications=tuple(rows))


CURVE_COLUMNS = ("x", "exp_pdf", "genexp_pdf", "lomax_pdf")

_PDF_FLOOR = 1e-320


def emit_curves(nu: float, x_max: float, points: int,
                log_scale: bool = False) -> list[tuple[float, float, float, float]]:
    """Tabulate the exponential, generalised-exponential and Lomax pdfs.

    Returns ``points`` rows (x, exp_pdf, genexp_pdf, lomax_pdf) on a
    uniform grid over [0, x_max].  With ``log_scale`` the pdf columns hold
    log10 values, clamped at the underflow floor.
    """
    if not nu > 0.0 or math.isnan(nu):
        raise DomainError("nu must be > 0")
    if int(points) < 2:
        raise DomainError("need at least 2 points")
    if not x_max > 0.0 or math.isnan(x_max):
        raise DomainError("x_max must be > 0")

    x = np.linspace(0.0, float(x_max), int(points))
    exp_pdf = np.exp(-x)
    genexp_pdf = make_handle(Family.GEN_EXP, nu=nu).pdf(x)
    lomax_pdf = make_handle(Family.LOMAX, nu=nu).pdf(x)
    columns = [exp_pdf, genexp_pdf, lomax_pdf]
    if log_scale:
        columns = [np.log10(np.maximum(col, _PDF_FLOOR)) for col in columns]
    return [tuple(float(v) for v in row) for row in zip(x, *columns)]
