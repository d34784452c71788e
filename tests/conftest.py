"""Fixtures shared by the test modules."""

import warnings

import numpy as np
import pytest

from asinhsurv import make_stream

# Both ends of the support, a far point (x^beta/nu past 1e150 for beta >= 1)
# and the body in between.
_XS = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 50), [1e200, np.inf]])
_PS = np.linspace(0.0, 0.99, 12)


def _nan_for_none(value):
    return np.nan if value is None else value


def _evaluations(handle) -> dict:
    """The output of every evaluation method of ``handle``, keyed by name;
    any warning raised while computing them is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = {m: getattr(handle, m)(_XS)
               for m in ("pdf", "log_pdf", "cdf", "survival", "log_survival", "hazard")}
        out["quantile"] = handle.quantile(_PS)
        out["sample"] = handle.sample(100, make_stream(3))
        out["moment"] = np.array([_nan_for_none(handle.moment(n)) for n in (0.5, 1.0, 2.0, 3.0)])
        out["mode"] = handle.mode()
        out.update((k, _nan_for_none(v)) for k, v in vars(handle.moment_report()).items())
    return out


@pytest.fixture
def handle_evaluations():
    """``evaluations(handle)``: every method's output at fixed points, x = inf
    last, computed under warnings-as-errors."""
    return _evaluations
