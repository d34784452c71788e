"""Host-speed probe: scales wall times to a fixed reference speed.

The benchmark runs on small shared virtual machines whose CPU speed swings by
20-60% over seconds to minutes as other tenants load the host (a pure-Python
loop timed repeatedly takes 7.5 ms in one second and 12 ms a few seconds
later, on a 2-vCPU VM).  A whole 30 s run can fall in a slow stretch, so
raw wall times of the same code and seed spread by more than a quarter
across runs.

The probe is a fixed piece of work that does not touch ``asinhsurv``: a
Python loop of small numpy operations, the mix that dominates the package's
Nelder-Mead fits.  It runs between requests; a wall time measured between
two probes is multiplied by ``REFERENCE_S / mean(probe times)``, giving the
time the work would take on a host where one probe call takes
``REFERENCE_S``.  A change to the program moves the scaled times as it moves
the wall times; a change of the host's speed moves the probe too and cancels.
It does so only for work that slows down with the probe, which is why each
workload states whether its times are scaled (``workloads.Workload``).
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 2e-3      # probe-call time that defines the reference speed
CALLS = 3               # probe calls per measurement; their mean is used
_X = np.linspace(0.01, 10.0, 200)


def _work() -> float:
    s = 0.0
    for i in range(200):
        y = _X * (1.0 + 1e-3 * i)
        s += float(np.sum(np.log1p(y * y)))
        for j in range(20):
            s += (i * j) % 7
    return s


def measure() -> float:
    """Mean wall time of one probe call, in seconds."""
    t0 = perf_counter()
    for _ in range(CALLS):
        _work()
    return (perf_counter() - t0) / CALLS


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, from the probes around it."""
    return 2.0 * REFERENCE_S / (before + after)


def timed(fn):
    """Run ``fn()``; return (its result, its time at the reference speed, its wall time)."""
    before = measure()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, wall * scale(before, measure()), wall
