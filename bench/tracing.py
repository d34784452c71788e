"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the package: public names are replaced,
where the package imports them, by wrappers that time the call and count
its work.  The program itself is not edited.  Each span keeps its name,
start, end, parent span and request id; the spans stay in memory and are
written once, when the run ends.

A layer is one module of ``asinhsurv``.  A span's self time is its
duration minus the time covered by its child spans; a layer's busy time
is the time inside its outermost spans.
"""

from __future__ import annotations

import inspect
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("experiments", "fitting", "distributions", "baselines", "numerics", "rng", "cli")

_EVAL_METHODS = ("pdf", "cdf", "survival", "hazard", "log_pdf", "log_survival")
_KERNEL_METHODS = ("log_pdf", "log_survival", "cdf", "hazard", "quantile", "sample")


class Tracer:
    """In-memory span recorder with per-layer self and busy time."""

    def __init__(self):
        self.enabled = False
        self.request_id = -1
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[list] = []  # [span index, layer, seconds covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def name_id(self, layer: str, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self._layer_of.append(layer)
        return self._name_ids[name]

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        layer = self._layer_of[nid]
        parent = self._stack[-1] if self._stack else None
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent[0] if parent else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        frame = [idx, layer, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.end[idx] = t1
            dur = t1 - t0
            self.self_s[layer] += dur - frame[2]
            name = self.span_names[nid]
            self.span_s[name] += dur
            self.calls[name] += 1
            if parent is not None:
                parent[2] += dur
            if parent is None or parent[1] != layer:
                self.busy_s[layer] += dur

    def wrap(self, layer: str, name: str, fn, after=None, inner=None):
        """Return ``fn`` wrapped in a span; ``after(counts, args, result)``
        runs once the span has closed.  ``inner`` replaces ``fn`` while
        tracing is on (used to count calls a routine makes to its callback).
        """
        nid = self.name_id(layer, name)
        target = inner or fn

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            result = self.call(nid, target, args, kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def save(self, path: str) -> None:
        """Write every span recorded so far as a compressed ``.npz``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            span_layers=np.array(self._layer_of),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


# -- counting hooks ------------------------------------------------------

def _count_minimize(counts, args, res):
    counts["fitting.minimize_calls"] += 1
    counts["fitting.objective_evals"] += int(res.nfev)
    counts["fitting.nm_iterations"] += int(res.nit)


def _count_fit(counts, args, result):
    # The exponential with fixed location is fitted in closed form.
    if result.family.value == "exp" and result.iterations == 0:
        return
    counts["fitting.nm_fits"] += 1
    counts["fitting.nm_converged"] += int(result.converged)
    counts["fitting.nm_at_nu_bound"] += int(result.at_nu_bound)


def _count_eval(counts, args, result):
    counts["distributions.eval_points"] += int(np.size(args[1]))


def _count_quantile(counts, args, result):
    counts["distributions.quantile_points"] += int(np.size(args[1]))


def _count_sample(counts, args, result):
    n = int(args[1])
    counts["distributions.sample_draws"] += n
    if args[0].family.value == "gengamma":
        counts["distributions.gengamma_kept"] += n


def _count_proposals(counts, args, result):
    counts["distributions.gengamma_proposals"] += int(np.size(args[0]))


def _count_reg_inc_beta(counts, args, result):
    counts["numerics.reg_inc_beta_points"] += int(np.size(args[0]))


def _count_rows(counts, args, report):
    counts["experiments.rows"] += len(report.replications)


def _count_cli_bytes(counts, args, code):
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-" and os.path.exists(path):
            counts["cli.bytes_out"] += os.path.getsize(path)


def _counting_root_finder(tracer: Tracer, find_root):
    def find_root_counted(f, *rest, **kwargs):
        def counted(t):
            tracer.counts["numerics.root_evals"] += 1
            return f(t)

        return find_root(counted, *rest, **kwargs)

    return find_root_counted


def instrument(tracer: Tracer, pkg):
    """Wrap the public names of ``pkg`` (the imported ``asinhsurv``) where
    they are imported.  Returns a function that restores the originals."""
    from asinhsurv import baselines, cli, distributions, experiments, fitting, numerics

    sites = [
        # experiments: the study entry point as the benchmark calls it
        (pkg, "run_robustness_study", "experiments", "experiments.run_robustness_study",
         _count_rows),
        # fitting: public fitters and the optimiser the fitting module imports
        (experiments, "fit_all", "fitting", "fitting.fit_all", None),
        (pkg, "fit_mle", "fitting", "fitting.fit_mle", _count_fit),
        (fitting, "fit_mle", "fitting", "fitting.fit_mle", _count_fit),
        (fitting, "minimize", "fitting", "fitting.minimize", _count_minimize),
        # rng
        (pkg, "make_stream", "rng", "rng.make_stream", None),
        (experiments, "make_stream", "rng", "rng.make_stream", None),
        (cli, "make_stream", "rng", "rng.make_stream", None),
        # cli
        (cli, "main", "cli", "cli.main", _count_cli_bytes),
        # distributions: the handle's evaluation contract
        *[(distributions.DistributionHandle, m, "distributions", f"distributions.{m}", _count_eval)
          for m in _EVAL_METHODS],
        (distributions.DistributionHandle, "quantile", "distributions", "distributions.quantile",
         _count_quantile),
        (distributions.DistributionHandle, "sample", "distributions", "distributions.sample",
         _count_sample),
        (distributions, "gen_gamma_acceptance_probability", "distributions",
         "distributions.gen_gamma_acceptance_probability", _count_proposals),
        # numerics: special functions where the distribution modules import them
        (distributions, "log_beta", "numerics", "numerics.log_beta", None),
        (baselines, "log_beta", "numerics", "numerics.log_beta", None),
        (distributions, "reg_inc_beta", "numerics", "numerics.reg_inc_beta", _count_reg_inc_beta),
        (baselines, "reg_inc_beta", "numerics", "numerics.reg_inc_beta", _count_reg_inc_beta),
    ]
    # baselines: the public comparator classes, reached through the kernel table
    for cls in (baselines.Exponential, baselines.Lomax, baselines.BurrXII, baselines.CompoundGamma):
        for m in _KERNEL_METHODS:
            if m in vars(cls):
                sites.append((cls, m, "baselines", f"baselines.{cls.__name__}.{m}", None))

    restore = []
    for owner, attr, layer, name, after in sites:
        original = inspect.getattr_static(owner, attr)
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped = tracer.wrap(layer, name, fn, after)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)
        restore.append((owner, attr, original))

    # find_root_1d: distributions imports it at module load, CompoundGamma.quantile
    # at call time from numerics; count the callback evaluations per root.
    for owner in (distributions, numerics):
        original = owner.find_root_1d
        wrapped = tracer.wrap("numerics", "numerics.find_root_1d", original,
                              inner=_counting_root_finder(tracer, original))
        setattr(owner, "find_root_1d", wrapped)
        restore.append((owner, "find_root_1d", original))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, request_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced pass; ``request_s`` is the summed
    duration of the requests in that pass."""
    c, s, n = tracer.counts, tracer.span_s, tracer.calls
    evals = c["fitting.objective_evals"]
    eval_s = sum(s[f"distributions.{m}"] for m in _EVAL_METHODS)
    out = {
        "fitting.objective_evals": (evals, "count"),
        "fitting.minimize_calls": (c["fitting.minimize_calls"], "count"),
        "fitting.nm_iterations": (c["fitting.nm_iterations"], "count"),
        "fitting.us_per_eval": (1e6 * _ratio(s["fitting.minimize"], evals), "us"),
        "fitting.busy_s": (tracer.busy_s["fitting"], "s"),
        "fitting.best_start_ratio": (_ratio(c["fitting.nm_fits"], c["fitting.minimize_calls"]),
                                     "ratio"),
        "fitting.converged_ratio": (_ratio(c["fitting.nm_converged"], c["fitting.nm_fits"]),
                                    "ratio"),
        "fitting.at_nu_bound_ratio": (_ratio(c["fitting.nm_at_nu_bound"], c["fitting.nm_fits"]),
                                      "ratio"),
        "numerics.log_beta_calls": (n["numerics.log_beta"], "count"),
        "numerics.log_beta_s": (s["numerics.log_beta"], "s"),
        "numerics.reg_inc_beta_calls": (n["numerics.reg_inc_beta"], "count"),
        "numerics.reg_inc_beta_points": (c["numerics.reg_inc_beta_points"], "count"),
        "numerics.reg_inc_beta_s": (s["numerics.reg_inc_beta"], "s"),
        "numerics.find_root_calls": (n["numerics.find_root_1d"], "count"),
        "numerics.evals_per_root": (_ratio(c["numerics.root_evals"], n["numerics.find_root_1d"]),
                                    "count"),
        "distributions.eval_points": (c["distributions.eval_points"], "count"),
        "distributions.eval_ns_per_point": (1e9 * _ratio(eval_s, c["distributions.eval_points"]),
                                            "ns"),
        "distributions.quantile_points": (c["distributions.quantile_points"], "count"),
        "distributions.quantile_us_per_point": (
            1e6 * _ratio(s["distributions.quantile"], c["distributions.quantile_points"]), "us"),
        "distributions.sample_draws": (c["distributions.sample_draws"], "count"),
        "distributions.sample_ns_per_draw": (
            1e9 * _ratio(s["distributions.sample"], c["distributions.sample_draws"]), "ns"),
        "distributions.gengamma_proposals": (c["distributions.gengamma_proposals"], "count"),
        "distributions.gengamma_accept_ratio": (
            _ratio(c["distributions.gengamma_kept"], c["distributions.gengamma_proposals"]),
            "ratio"),
        "baselines.kernel_calls": (sum(v for k, v in n.items() if k.startswith("baselines.")),
                                   "count"),
        "baselines.kernel_s": (tracer.busy_s["baselines"], "s"),
        "experiments.rows": (c["experiments.rows"], "count"),
        "rng.streams": (n["rng.make_stream"], "count"),
        "rng.stream_us": (1e6 * _ratio(s["rng.make_stream"], n["rng.make_stream"]), "us"),
        "cli.calls": (n["cli.main"], "count"),
        "cli.bytes_out": (c["cli.bytes_out"], "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        out[f"{layer}.share"] = (_ratio(tracer.self_s[layer], request_s), "ratio")
    return out
