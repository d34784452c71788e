"""The benchmark's workloads: request plans built from a seed.

A plan is a list of requests repeating one fixed cycle of request kinds.
The seed changes only data values and derived RNG seeds, never the kinds,
their order or their sizes.  Each request is run through the public API
of ``asinhsurv`` (looked up on the module at call time, so the traced run
can wrap it) and carries the check applied to its output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Request:
    kind: str                          # request type; fixed by construction
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    data: Any = None                   # the seeded input, for tests


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed derived from the workload seed and a spawn key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


# -- study ----------------------------------------------------------------
#
# The paper's robustness experiment: exponential samples with outliers 20
# and 10 appended, each fitted by exp, Lomax and genexp.  Almost all of its
# time is Nelder-Mead in `fitting` over the light genexp/Lomax kernels.

STUDY_SIZES = (10, 100, 1000)
STUDY_OUTLIERS = (20.0, 10.0)
STUDY_REPLICATIONS = 2
WARMUP_KEY = 1 << 30     # spawn-key offset that keeps warm-up data apart from the plan's


def _study_request(api, seed: int, index: int, n: int) -> Request:
    config = api.ExperimentConfig(sample_sizes=(n,), outlier_values=STUDY_OUTLIERS,
                                  replications=STUDY_REPLICATIONS,
                                  base_seed=derive_seed(seed, 0, index))
    return Request(kind=f"study:n={n}",
                   run=lambda: api.run_robustness_study(config),
                   check=lambda report: checks.check_study(report, config, api.FitOptions().nu_cap),
                   data=config.base_seed)


def study_cycle(api, seed: int, cycle: int) -> list[Request]:
    return [_study_request(api, seed, cycle * len(STUDY_SIZES) + i, n)
            for i, n in enumerate(STUDY_SIZES)]


def study_warmups(api, seed: int) -> list[Request]:
    return [_study_request(api, seed, WARMUP_KEY + i, n) for i, n in enumerate(STUDY_SIZES)]


# -- fit-shapes -----------------------------------------------------------
#
# Single fits of the 3-4 parameter families on data drawn from the same
# family.  gengamma and cgamma evaluate a log-beta (and their kernels) per
# objective evaluation, so special-function and kernel costs show here.
# The light families take every (n, nu) pair of the grid once per cycle;
# gengamma and cgamma, ten times dearer per fit, take one fit each per
# cycle, on heavy-tailed data at n = 1000.  (At n = 100 and n = 10000 some
# seeds make these fits run 5-10x longer or end unconverged.)

FIT_SIZES = (100, 1000, 10_000)
FIT_TAILS = (1.5, 5.0, 50.0)
FIT_LIGHT = (("genweibull", 1.5), ("burr12", 1.5), ("genexp2", 1.0), ("genexp", 1.0))
FIT_HEAVY = (("gengamma", 2.0), ("cgamma", 2.0))
FIT_HEAVY_NU = 1.5
FIT_HEAVY_N = 1000
FIT_WARMUP_N = 100


def _fit_request(api, seed: int, key: tuple, family: str, n: int, nu: float,
                 beta: float) -> Request:
    free_eta = family == "genexp"
    handle = api.make_handle(family, nu=nu, beta=beta, tau=1.0, eta=0.5 if free_eta else 0.0)
    x = handle.sample(n, api.make_stream(derive_seed(seed, 1, *key)))
    sample = api.Sample(x)
    options = api.FitOptions(free_eta=True) if free_eta else None

    def check(result):
        problem = checks.check_fit(result, x)
        if problem is None and family == "genexp":
            problem = checks.check_not_worse_than_exponential(
                family, result.neg_log_lik, x, api.FitOptions().nu_cap)
        return problem

    return Request(kind=f"fit:{family}:n={n}:nu={nu:g}",
                   run=lambda: api.fit_mle(family, sample, options),
                   check=check, data=x)


def fit_cycle(api, seed: int, cycle: int) -> list[Request]:
    out = []
    for f, (family, beta) in enumerate(FIT_LIGHT):
        for i, n in enumerate(FIT_SIZES):
            nu = FIT_TAILS[(i + f) % len(FIT_TAILS)]
            out.append(_fit_request(api, seed, (cycle, len(out)), family, n, nu, beta))
    for family, beta in FIT_HEAVY:
        out.append(_fit_request(api, seed, (cycle, len(out)), family, FIT_HEAVY_N, FIT_HEAVY_NU,
                                beta))
    return out


def fit_warmups(api, seed: int) -> list[Request]:
    return [_fit_request(api, seed, (WARMUP_KEY, i), family, FIT_WARMUP_N, FIT_HEAVY_NU, beta)
            for i, (family, beta) in enumerate(FIT_LIGHT + FIT_HEAVY)]


# -- eval-sample ----------------------------------------------------------
#
# The read path of a serving deployment: batched evaluation, quantiles and
# sampling for all eight families, plus in-process CLI calls.  No fitting.
# gengamma and cgamma quantiles invert reg_inc_beta one point at a time,
# so they get small batches.  Shape parameters, like sizes, rotate through
# fixed grids: they set how long reg_inc_beta's continued fraction runs.
# The seed draws the points, the scale and the sampling streams.

FAMILIES = ("genexp", "genweibull", "gengamma", "genexp2", "exp", "lomax", "burr12", "cgamma")
BETA_FAMILIES = ("genweibull", "gengamma", "burr12", "cgamma")
EVAL_METHODS = ("pdf", "cdf", "survival", "hazard", "log_pdf")
EVAL_SIZES = (10_000, 30_000, 100_000)
EVAL_TAILS = (1.5, 3.0, 8.0, 20.0, 50.0)
EVAL_SHAPES = (0.7, 1.5, 3.0)
SCALAR_QUANTILE_FAMILIES = ("gengamma", "cgamma")
SCALAR_QUANTILE_POINTS = 4
CLI_EVAL_POINTS = 200
CLI_EVAL_METHODS = ("pdf", "cdf", "survival", "hazard")
CLI_SAMPLE_N = 20_000
PROBE_POINTS = 64
WARMUP_POINTS = 100


@dataclass(frozen=True)
class EvalInputs:
    """Point batches shared by the eval-sample requests of one seed."""

    x: dict                 # size -> evaluation points, log-uniform on [1e-3, 1e3]
    p: dict                 # size -> probabilities, uniform on [0, 0.999)
    probe: np.ndarray       # indices checked against a second method

    @classmethod
    def make(cls, seed: int, sizes) -> "EvalInputs":
        rng = _rng(seed, 2)
        x = {n: np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)) for n in sizes}
        p = {n: rng.uniform(0.0, 0.999, n) for n in sizes}
        probe = rng.choice(min(sizes), PROBE_POINTS, replace=False)
        return cls(x, p, probe)


def _handle(api, rng: np.random.Generator, family: str, slot: int):
    nu = EVAL_TAILS[slot % len(EVAL_TAILS)]
    beta = EVAL_SHAPES[(slot // len(EVAL_TAILS)) % len(EVAL_SHAPES)] if family in BETA_FAMILIES else 1.0
    tau = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    return api.make_handle(family, nu=nu, beta=beta, tau=tau)


def _shape(handle) -> str:
    return f"nu={handle.nu:g}:beta={handle.beta:g}"


def _eval_request(inputs, handle, what: str, n: int) -> Request:
    x = inputs.x[n]
    return Request(kind=f"eval:{handle.family.value}:{what}:n={n}:{_shape(handle)}",
                   run=lambda: getattr(handle, what)(x),
                   check=lambda v: checks.check_eval(handle, what, x, v, inputs.probe),
                   data=handle.params)


def _quantile_request(inputs, handle, n: int) -> Request:
    family = handle.family.value
    if family in SCALAR_QUANTILE_FAMILIES:
        n = SCALAR_QUANTILE_POINTS
        p = inputs.p[EVAL_SIZES[0]][:n]
    else:
        p = inputs.p[n]
    return Request(kind=f"quantile:{family}:n={n}:{_shape(handle)}",
                   run=lambda: handle.quantile(p),
                   check=lambda q: checks.check_quantile(handle, p, q),
                   data=handle.params)


def _sample_request(api, handle, n: int, stream_seed: int) -> Request:
    return Request(kind=f"sample:{handle.family.value}:n={n}:{_shape(handle)}",
                   run=lambda: handle.sample(n, api.make_stream(stream_seed)),
                   check=lambda draws: checks.check_draws(handle, draws, n),
                   data=(handle.params, stream_seed))


def _dist_argv(handle) -> list[str]:
    p = handle.params
    return ["--dist", handle.family.value, "--nu", repr(p.nu), "--beta", repr(p.beta),
            "--tau", repr(p.tau)]


def _read_csv_column(path: str, column: int) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return np.array([float(line.split(",")[column]) for line in lines])


def _cli_eval_request(api, inputs, handle, what: str, workdir: str) -> Request:
    x = inputs.x[EVAL_SIZES[0]][:CLI_EVAL_POINTS]
    path = os.path.join(workdir, "eval.csv")
    argv = ["eval", *_dist_argv(handle), "--what", what,
            "--at", ",".join(repr(float(v)) for v in x), "--out", path]

    def check(code):
        if code != 0:
            return f"cli eval exited with {code}"
        values = _read_csv_column(path, 1)
        expect = getattr(handle, what)(x)
        if values.shape != x.shape or np.any(np.abs(values - expect) > 1e-12 * (1.0 + np.abs(expect))):
            return f"cli eval {what}: output differs from the library"
        return None

    return Request(kind=f"cli-eval:{handle.family.value}:{what}:n={CLI_EVAL_POINTS}:{_shape(handle)}",
                   run=lambda: api.cli.main(argv), check=check, data=handle.params)


def _cli_sample_request(api, handle, n: int, stream_seed: int, workdir: str) -> Request:
    path = os.path.join(workdir, "sample.csv")
    argv = ["sample", *_dist_argv(handle), "-n", str(n), "--seed", str(stream_seed),
            "--out", path]

    def check(code):
        if code != 0:
            return f"cli sample exited with {code}"
        return checks.check_draws(handle, _read_csv_column(path, 0), n)

    return Request(kind=f"cli-sample:{handle.family.value}:n={n}:{_shape(handle)}",
                   run=lambda: api.cli.main(argv), check=check, data=(handle.params, stream_seed))


def eval_cycle(api, seed: int, cycle: int, inputs: EvalInputs, workdir: str) -> list[Request]:
    rng = _rng(seed, 3, cycle)
    out = []
    for f, family in enumerate(FAMILIES):
        n = EVAL_SIZES[(cycle + f) % len(EVAL_SIZES)]
        handle = _handle(api, rng, family, cycle + f)
        out.extend(_eval_request(inputs, handle, what, n) for what in EVAL_METHODS)
        out.append(_quantile_request(inputs, handle, n))
        out.append(_sample_request(api, handle, n, derive_seed(seed, 4, cycle, f)))
    family = FAMILIES[cycle % len(FAMILIES)]
    what = CLI_EVAL_METHODS[cycle % len(CLI_EVAL_METHODS)]
    out.append(_cli_eval_request(api, inputs, _handle(api, rng, family, cycle), what, workdir))
    family = FAMILIES[(cycle + 3) % len(FAMILIES)]
    out.append(_cli_sample_request(api, _handle(api, rng, family, cycle + 1), CLI_SAMPLE_N,
                                   derive_seed(seed, 5, cycle), workdir))
    return out


def eval_warmups(api, seed: int, inputs: EvalInputs, workdir: str) -> list[Request]:
    rng = _rng(seed, 6)
    out = []
    for f, family in enumerate(FAMILIES):
        handle = _handle(api, rng, family, f)
        out.extend(_eval_request(inputs, handle, what, WARMUP_POINTS) for what in EVAL_METHODS)
        out.append(_quantile_request(inputs, handle, WARMUP_POINTS))
        out.append(_sample_request(api, handle, WARMUP_POINTS, derive_seed(seed, 7)))
    handle = _handle(api, rng, "genexp", 0)
    out.append(_cli_eval_request(api, inputs, handle, "cdf", workdir))
    out.append(_cli_sample_request(api, handle, WARMUP_POINTS, derive_seed(seed, 8), workdir))
    return out


# -- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    plan_cycles: int        # cycles in the timed plan: 2.5x or more what one run completes
    trace_cycles: int       # cycles in one traced pass (fixed, so counts repeat)
    build: Callable         # (api, seed, workdir) -> (cycle(c) -> [Request], warm-ups)
    scaled: bool            # report times at the probe's reference speed (see speed.py)


def _study(api, seed, workdir):
    return (lambda c: study_cycle(api, seed, c)), study_warmups(api, seed)


def _fit(api, seed, workdir):
    return (lambda c: fit_cycle(api, seed, c)), fit_warmups(api, seed)


def _eval(api, seed, workdir):
    inputs = EvalInputs.make(seed, EVAL_SIZES + (WARMUP_POINTS,))
    return ((lambda c: eval_cycle(api, seed, c, inputs, workdir)),
            eval_warmups(api, seed, inputs, workdir))


# The host-speed probe is interpreter-bound like the Nelder-Mead fits, and
# scaling by it cut the spread of study and fit-shapes times over ten seeds
# from 0.08-0.32 to 0.03-0.09.  eval-sample's large-array arithmetic does not
# follow the probe: scaling widened its ops_per_s spread from 0.08 to 0.12,
# so its times are wall times.
WORKLOADS = {w.name: w for w in (
    Workload("study", plan_cycles=100, trace_cycles=8, build=_study, scaled=True),
    Workload("fit-shapes", plan_cycles=20, trace_cycles=3, build=_fit, scaled=True),
    Workload("eval-sample", plan_cycles=60, trace_cycles=6, build=_eval, scaled=False),
)}


def make_plan(workload: Workload, api, seed: int, workdir: str, cycles: int):
    """The first ``cycles`` cycles of the workload's plan and its warm-ups."""
    cycle, warmups = workload.build(api, seed, workdir)
    return [r for c in range(cycles) for r in cycle(c)], warmups
