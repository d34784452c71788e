"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The traced counts must repeat exactly for a seed, a second seed must
change the data but not the request mix, the timed window must end on a
cycle boundary with every latency scaled, and the benchmark must refuse to
run where the package sources are missing.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

API = run.import_package()

EXACT_COUNTS = (
    "fitting.objective_evals", "fitting.minimize_calls", "fitting.nm_iterations",
    "numerics.log_beta_calls", "numerics.reg_inc_beta_calls", "numerics.reg_inc_beta_points",
    "numerics.find_root_calls", "numerics.evals_per_root", "distributions.eval_points",
    "distributions.quantile_points", "distributions.sample_draws",
    "distributions.gengamma_proposals", "baselines.kernel_calls", "experiments.rows",
    "rng.streams", "cli.calls", "cli.bytes_out",
)


def traced_counts(workload: str, seed: int, workdir: Path) -> dict:
    requests, _ = make_plan(WORKLOADS[workload], API, seed, str(workdir), cycles=1)
    tracer = Tracer()
    tally = run.Tally()
    uninstall = instrument(tracer, API)
    try:
        elapsed = run.run_pass(requests, tally, tracer)
    finally:
        uninstall()
    assert tally.failures == []
    metrics = layer_metrics(tracer, elapsed)
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_counts(workload, 3, tmp_path)
    second = traced_counts(workload, 3, tmp_path)
    assert first == second
    assert any(first.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_data_not_mix(workload, tmp_path):
    plan_a, warm_a = make_plan(WORKLOADS[workload], API, 1, str(tmp_path), cycles=2)
    plan_b, warm_b = make_plan(WORKLOADS[workload], API, 2, str(tmp_path), cycles=2)
    assert [r.kind for r in plan_a] == [r.kind for r in plan_b]
    assert [r.kind for r in warm_a] == [r.kind for r in warm_b]
    differs = [not np.array_equal(a.data, b.data) if isinstance(a.data, np.ndarray)
               else a.data != b.data for a, b in zip(plan_a, plan_b)]
    assert all(differs)
    plan_c, _ = make_plan(WORKLOADS[workload], API, 1, str(tmp_path), cycles=2)
    assert all(np.array_equal(a.data, c.data) if isinstance(a.data, np.ndarray)
               else a.data == c.data for a, c in zip(plan_a, plan_c))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "study", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timed_window_ends_on_a_cycle_and_scales_every_latency():
    from workloads import Request

    plan = [Request(kind=f"noop:{i}", run=lambda: None, check=lambda out: None) for i in range(6)]
    tally = run.Tally()
    scaled, probes, window_s = run.run_timed(plan, 3, 0.3, tally, scaled=True)
    assert len(scaled) == len(tally.latencies)
    assert len(scaled) % 3 == 0 and window_s >= 0.3
    assert len(probes) >= 2 and tally.failures == []
    assert all(v > 0.0 for v in scaled)
