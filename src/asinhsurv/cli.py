"""Command-line interface.

Subcommands: ``eval`` (pointwise evaluation), ``sample`` (random variates),
``fit`` (maximum-likelihood fits of a data file), ``experiment`` (the
outlier-robustness study) and ``curves`` (pdf comparison tables).  Every
command is deterministic given its flags and seed.  Floats are printed
with 17 significant digits so runs are bit-comparable.

Exit codes: 0 success, 1 a fit that raised or reached no finite likelihood
(``fit`` still writes every row), 2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .distributions import _KERNELS, Family, make_handle
from .errors import DomainError
from .experiments import (
    CURVE_COLUMNS,
    REPLICATION_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    emit_curves,
    run_robustness_study,
)
from .fitting import Sample, fit_all
from .rng import make_stream

_EVAL_WHAT = ("pdf", "cdf", "survival", "hazard", "quantile", "moment", "mode", "entropy")
_EVAL_BATCHED = ("pdf", "cdf", "survival", "hazard", "quantile")  # one handle call for every --at
_FIT_COLUMNS = ("family", "tau_hat", "nu_hat", "beta_hat", "neg_log_lik", "converged",
                "at_nu_bound")


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    return f"{float(value):.17g}"


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


@contextlib.contextmanager
def _open_out(path: str):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(fh, header, rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) if isinstance(v, float) else ("" if v is None else str(v))
                          for v in row) + "\n")


def _handle_from_args(args) -> "make_handle":
    family = Family.parse(args.dist)
    nu = args.nu
    if nu is None:
        if _KERNELS[family].uses_nu:
            raise DomainError(f"--nu: required for --dist {family.value}")
        nu = 1.0  # unused by the family
    try:
        return make_handle(family, nu=nu, beta=args.beta, tau=args.tau, eta=args.eta)
    except DomainError as exc:
        raise DomainError(f"--nu/--beta/--tau/--eta: {exc}") from None


def _add_dist_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dist", required=True, choices=[f.value for f in Family])
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--tau", type=float, default=1.0)
    parser.add_argument("--eta", type=float, default=0.0)


def _add_out_flags(parser: argparse.ArgumentParser, formats=("csv", "json"),
                   default_format: str = "csv") -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=formats, default=default_format)


def cmd_eval(args) -> int:
    handle = _handle_from_args(args)
    what = args.what
    if what in ("mode", "entropy"):
        ats = [None]
    else:
        if args.at is None:
            raise DomainError(f"--at: required for --what {what}")
        ats = _float_list(args.at)

    method = getattr(handle, what)
    try:
        if what not in _EVAL_BATCHED or not ats:
            rows = [(at, method() if at is None else method(at)) for at in ats]
        else:
            # One call for every point; a batched value equals the scalar one.
            try:
                rows = list(zip(ats, method(np.array(ats)).tolist()))
            except DomainError:
                for at in ats:  # name the first point that fails, as one call per point does
                    method(at)
                raise
    except DomainError as exc:
        raise DomainError(f"--at: {exc}") from None

    with _open_out(args.out) as fh:
        if args.format == "json":
            payload = [{"at": at, "value": (None if v is None else float(v))}
                       for at, v in rows]
            fh.write(json.dumps(payload, indent=2) + "\n")
        else:
            fh.write("at,value\n")
            for at, v in rows:
                fh.write(("" if at is None else _fmt(at)) + "," + _fmt(v) + "\n")
    return 0


def cmd_sample(args) -> int:
    if args.n < 0:
        raise DomainError("-n: must be >= 0")
    handle = _handle_from_args(args)
    rng = make_stream(args.seed)
    values = handle.sample(args.n, rng)
    with _open_out(args.out) as fh:
        fh.write("x\n" + ("%.17g\n" * values.size) % tuple(values.tolist()))
    return 0


def _read_data(path: str) -> Sample:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    values = []
    start = 1 if lines and lines[0].strip().lower() == "x" else 0
    for i, line in enumerate(lines[start:], start=start + 1):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise DomainError(f"data row {i}: not a number: {text!r}") from None
        if math.isnan(v) or math.isinf(v) or v < 0.0:
            raise DomainError(f"data row {i}: values must be finite and >= 0, got {text}")
        values.append(v)
    if not values:
        raise DomainError(f"data file {path!r} contains no observations")
    return Sample(values, name=path)


def cmd_fit(args) -> int:
    sample = _read_data(args.data)
    families = [Family.parse(name) for name in args.families.split(",") if name.strip()]
    if not families:
        raise DomainError("--families: need at least one family")
    results = fit_all(sample, families=families)
    payload = []
    for r in results:
        kernel = _KERNELS[r.family]
        entry = {
            "family": r.family.value,
            "tau_hat": r.estimates.tau,
            "nu_hat": r.estimates.nu if kernel.uses_nu else None,
            "neg_log_lik": r.neg_log_lik,
            "converged": r.converged,
            "at_nu_bound": r.at_nu_bound,
        }
        if kernel.uses_beta:
            entry["beta_hat"] = r.estimates.beta
        payload.append(entry)
    with _open_out(args.out) as fh:
        if args.format == "json":
            fh.write(json.dumps(payload, indent=2) + "\n")
        else:
            rows = [[int(v) if isinstance(v, bool) else v for v in map(e.get, _FIT_COLUMNS)]
                    for e in payload]
            _write_csv(fh, _FIT_COLUMNS, rows)
    # fit_all reports a fit that raised as unconverged with an infinite NLL.
    failed = [r.family.value for r in results if not math.isfinite(r.neg_log_lik)]
    if failed:
        print(f"error: no finite fit of {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        sample_sizes=tuple(_int_list(args.sizes)),
        outlier_values=tuple(_float_list(args.outliers)),
        true_tau=args.tau,
        replications=args.reps,
        base_seed=args.seed,
    )
    report = run_robustness_study(config)
    with _open_out(args.out) as fh:
        if args.format == "json":
            fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        else:
            _write_csv(fh, SUMMARY_COLUMNS, report.summary_rows())
    if args.format == "csv" and args.out not in (None, "-"):
        with _open_out(args.out + ".replications.csv") as fh:
            _write_csv(fh, REPLICATION_COLUMNS, report.replication_rows())
    return 0


def cmd_curves(args) -> int:
    if args.nu is None:
        raise DomainError("--nu: required for curves")
    rows = emit_curves(args.nu, args.xmax, args.points, log_scale=args.log)
    with _open_out(args.out) as fh:
        _write_csv(fh, CURVE_COLUMNS, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asinhsurv",
        description="Heavy-tailed arcsinh-generalised survival distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate pdf/cdf/survival/hazard/quantile/moment/mode/entropy")
    _add_dist_flags(p)
    p.add_argument("--what", required=True, choices=_EVAL_WHAT)
    p.add_argument("--at", default=None, help="comma-separated list of evaluation points")
    _add_out_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw reproducible random variates")
    _add_dist_flags(p)
    p.add_argument("-n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="maximum-likelihood fits of a data file")
    p.add_argument("data", help="CSV file: optional 'x' header, one value per row")
    p.add_argument("--families", default="exp,lomax,genexp")
    _add_out_flags(p, default_format="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("experiment", help="run the outlier-robustness study")
    p.add_argument("--sizes", default="10,100,1000")
    p.add_argument("--outliers", default="20,10")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1)
    _add_out_flags(p, default_format="json")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("curves", help="tabulate exponential vs generalised vs Lomax pdfs")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--log", action="store_true", help="emit log10 pdf values")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
