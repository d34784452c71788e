"""What each step of a fresh interpreter loads of scipy.

The package imports no scipy module.  ``numerics`` alone loads
``scipy.special``, at the first special function it is asked for, and
``fitting`` loads ``scipy.optimize`` only for the bounded search of a
free-location fit of a family with beta.  Each check runs in a new
interpreter, since the test session itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Each step runs after the ones before it, and records the scipy modules
# loaded once it is done.
_STEPS = """
import json, sys
import numpy as np

def step(name):
    loaded[name] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import asinhsurv, asinhsurv.cli
from asinhsurv import (ExperimentConfig, FitOptions, Sample, fit_all, fit_mle, make_handle,
                       make_stream, run_robustness_study)
step("import")
run_robustness_study(ExperimentConfig(sample_sizes=(10, 100), replications=2))
step("study")
x = np.array([0.0, 1e-3, 0.5, 2.0, 40.0, 1e200, np.inf])
p = np.array([0.0, 0.1, 0.5, 0.99])
draws = {}
for family in ("exp", "genexp", "lomax", "genweibull", "burr12", "genexp2"):
    handle = make_handle(family, nu=2.5, beta=1.5, tau=2.0, eta=0.5)
    for method in ("pdf", "log_pdf", "cdf", "survival", "log_survival", "hazard"):
        getattr(handle, method)(x)
    handle.quantile(p)
    handle.median()
    draws[family] = handle.sample(50, make_stream(5))
    step(family)
fit_all(Sample(draws["genexp"]))
step("fit_all")
make_handle("gengamma", nu=2.5, beta=1.5).cdf(2.0)
step("gengamma cdf")
fit_mle("genweibull", Sample(draws["genweibull"]), FitOptions(free_eta=True))
step("free-location genweibull fit")
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _STEPS], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("step", ["import", "study", "exp", "genexp", "lomax", "genweibull",
                                  "burr12", "genexp2", "fit_all"])
def test_step_loads_no_scipy(loaded, step):
    assert loaded[step] == []


def test_gengamma_cdf_loads_special_and_not_optimize(loaded):
    assert "scipy.special" in loaded["gengamma cdf"]
    assert "scipy.optimize" not in loaded["gengamma cdf"]


def test_free_location_beta_fit_loads_optimize(loaded):
    assert "scipy.optimize" in loaded["free-location genweibull fit"]

