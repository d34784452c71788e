#!/usr/bin/env python3
"""Closed-loop benchmark of asinhsurv.

    python3 bench/run.py --workload {study,fit-shapes,eval-sample} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
client in one process sends each request only after the previous one has
completed, and checks every output (see ``checks.py``).

``--trace 0`` repeats the seeded plan for ``--seconds``, then to the end of
the current plan cycle, and reports the end-to-end metrics.  A request's
latency excludes its check.  On the workloads marked ``scaled`` every time
reported is a wall time scaled to a fixed reference speed of the host by a
probe run between requests (``speed.py``); the raw wall-time figures and the
probe times are on the line before the result.

* ``ops_per_s``: requests completed per second of request time;
* ``latency_p50_ms`` and ``latency_p90_ms``: the median and the 90th
  percentile, or the highest percentile that leaves ten requests above it
  when a run completes fewer than about a hundred (the line before the
  result gives the percentile and the sample count);
* ``peak_rss_mib``: peak resident memory of the benchmark process;
* ``setup_s``: the median over three set-ups of (interpreter start plus
  ``import asinhsurv`` in a child process) plus the median of (building the
  plan from the seed plus one warm-up request of each type).

``--trace 1`` runs a fixed number of plan cycles twice, untraced and then
traced, reports the per-layer metrics of the traced pass and writes its
spans to ``.bench_out/``.  Because the pass is fixed, its counts repeat
exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the software versions, thread pins and latency sample counts.
"""

from time import perf_counter

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10   # samples the reported tail percentile must leave above it
MAX_REPORTED_FAILURES = 10
PROBE_EVERY_S = 0.2    # wall time between host-speed probes in the timed window

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402  (after the thread pins: it imports numpy)


def import_package():
    """Import asinhsurv from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import asinhsurv
    import asinhsurv.cli  # noqa: F401  (the CLI requests call it in-process)

    if Path(asinhsurv.__file__).resolve().parent != SRC / "asinhsurv":
        raise ImportError(f"asinhsurv imported from {asinhsurv.__file__}, not from {SRC}")
    return asinhsurv


def child_import() -> None:
    """Start a fresh interpreter that imports the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import asinhsurv, asinhsurv.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def execute(req, tracer=None, request_id: int = 0):
    """Run one request and check its output: (latency seconds, problem or None)."""
    run = req.run
    if tracer is not None:
        nid = tracer.name_id("bench", f"request:{req.kind}")

        def run():
            tracer.request_id = request_id
            tracer.enabled = True
            try:
                return tracer.call(nid, req.run, (), {})
            finally:
                tracer.enabled = False

    t0 = perf_counter()
    try:
        out = run()
    except (Exception, SystemExit) as exc:
        return perf_counter() - t0, f"{req.kind}: raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    try:
        problem = req.check(out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return latency, (f"{req.kind}: {problem}" if problem else None)


class Tally:
    """Latencies and failures of the requests run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def add(self, latency: float, problem) -> None:
        self.latencies.append(latency)
        if problem:
            self.failures.append(problem)


def run_pass(requests, tally: Tally, tracer=None) -> float:
    """Run ``requests`` once, in order; returns their summed latency."""
    total = 0.0
    for i, req in enumerate(requests):
        latency, problem = execute(req, tracer, i)
        tally.add(latency, problem)
        total += latency
    return total


def run_timed(plan, cycle_len: int, seconds: float, tally: Tally, scaled: bool):
    """Cycle through ``plan`` until ``seconds`` have passed and a cycle of
    ``cycle_len`` requests has ended.  Returns the latencies (scaled to the
    reference speed if ``scaled``), the probe times and the wall time of the
    window."""
    latencies, pending = [], []
    probes = [speed.measure()]
    t0 = last_probe = perf_counter()
    deadline = t0 + seconds
    i = 0
    while True:
        latency, problem = execute(plan[i % len(plan)])
        tally.add(latency, problem)
        pending.append(latency)
        i += 1
        done = i % cycle_len == 0 and perf_counter() >= deadline
        if done or perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed.measure())
            factor = speed.scale(probes[-2], probes[-1]) if scaled else 1.0
            latencies += [v * factor for v in pending]
            pending = []
            last_probe = perf_counter()
        if done:
            return latencies, probes, perf_counter() - t0


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, seconds, samples beyond): the 90th percentile, or the
    highest percentile that leaves TAIL_MIN_BEYOND samples above it."""
    n = len(latencies)
    q = 90.0
    if n > TAIL_MIN_BEYOND + 1:
        q = min(q, 100.0 * (n - 1 - TAIL_MIN_BEYOND) / (n - 1))
    value = statistics.quantiles(latencies, n=1000, method="inclusive")[round(10 * q) - 1] \
        if n > 1 else latencies[0]
    beyond = sum(1 for v in latencies if v > value)
    return q, value, beyond


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    try:
        api = import_package()
    except ImportError as exc:
        print(f"error: cannot import asinhsurv from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        tally = Tally()
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC,
            "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        }
        if args.trace:
            metrics = traced_run(api, workload, args.seed, workdir, tally, info)
        else:
            metrics = timed_run(api, workload, args, workdir, tally, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.failures[:MAX_REPORTED_FAILURES]:
        print(f"failed: {problem}", file=sys.stderr)
    attempted, failed = len(tally.latencies), len(tally.failures)
    info["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def timed_run(api, workload, args, workdir, tally, info) -> dict:
    from workloads import make_plan

    def prepare():
        plan, warmups = make_plan(workload, api, args.seed, workdir, workload.plan_cycles)
        run_pass(warmups, tally)
        return plan

    import_s, prepare_s, wall_import_s, wall_prepare_s = [], [], [], []
    for _ in range(SETUP_REPEATS):
        _, ref_s, wall_s = speed.timed(child_import)
        import_s.append(ref_s if workload.scaled else wall_s)
        wall_import_s.append(wall_s)
        plan = None  # release the previous set-up's inputs first
        plan, ref_s, wall_s = speed.timed(prepare)
        prepare_s.append(ref_s if workload.scaled else wall_s)
        wall_prepare_s.append(wall_s)
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    timed = Tally()
    lat, probes, window_s = run_timed(plan, len(plan) // workload.plan_cycles, args.seconds,
                                      timed, workload.scaled)
    tally.latencies += timed.latencies
    tally.failures += timed.failures

    q, tail_s, beyond = tail_latency(lat)
    wall = timed.latencies
    info.update({
        "scaled": workload.scaled, "requests": len(lat), "window_s": window_s,
        "plan_requests": len(plan),
        "latency_tail": {"percentile": q, "samples": len(lat), "samples_beyond": beyond},
        "probe_ms": {"reference": 1e3 * speed.REFERENCE_S, "count": len(probes),
                     "median": 1e3 * statistics.median(probes),
                     "min": 1e3 * min(probes), "max": 1e3 * max(probes)},
        "wall": {"setup_s": statistics.median(wall_import_s) + statistics.median(wall_prepare_s),
                 "ops_per_s": len(wall) / sum(wall),
                 "latency_p50_ms": 1e3 * statistics.median(wall),
                 "latency_p90_ms": 1e3 * tail_latency(wall)[1]},
    })
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
    }


def traced_run(api, workload, seed, workdir, tally, info) -> dict:
    from tracing import Tracer, instrument, layer_metrics
    from workloads import make_plan

    requests, warmups = make_plan(workload, api, seed, workdir, workload.trace_cycles)
    run_pass(warmups, tally)
    untraced_s = run_pass(requests, tally)

    tracer = Tracer()
    uninstall = instrument(tracer, api)
    try:
        traced_s = run_pass(requests, tally, tracer)
    finally:
        uninstall()
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(str(spans_path))

    metrics = {name: metric(value, unit)
               for name, (value, unit) in layer_metrics(tracer, traced_s).items()}
    metrics["trace.overhead_ratio"] = metric(untraced_s / traced_s, "ratio")
    info.update({"requests": len(requests), "untraced_s": untraced_s, "traced_s": traced_s,
                 "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT))})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
