"""The growth fit's bounded minimizer, against scipy's, iterate for iterate.

``calibrate_growth`` runs an in-tree port of Brent's bounded scalar
minimizer, so that ``import repro`` loads no scipy.  The port must
evaluate the same points, in the same order and with the same numpy
scalar types, as ``scipy.optimize.minimize_scalar(method="bounded")``:
Fig. 9 plots every iterate (``GrowthCalibration.iterations``) and the
``model_longrun`` digest holds ``growth.hex()``.  scipy is imported
here, as the oracle, and nowhere in ``repro``'s import path.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.core import growth
from repro.core.growth import _minimize_bounded, calibrate_growth

REPO = Path(__file__).resolve().parents[1]


def scipy_bounded(func, bounds, xatol):
    """The oracle, with the port's signature and return value."""
    res = minimize_scalar(func, bounds=bounds, method="bounded",
                          options={"xatol": xatol})
    return res.x, res.fun


def bits(x):
    """A float as its exact bits plus its Python/numpy scalar type."""
    return type(x).__name__, float(x).hex()


def traced_run(minimizer, func, bounds, xatol):
    """Every ``(x, f)`` the minimizer evaluated, then its result."""
    trace = []

    def recorded(x):
        fx = func(x)
        trace.append((bits(x), bits(fx)))
        return fx

    x, fx = minimizer(recorded, bounds, xatol)
    return trace, (float(x).hex(), float(fx).hex())


def assert_same_run(func, bounds, xatol):
    mine = traced_run(_minimize_bounded, func, bounds, xatol)
    assert mine == traced_run(scipy_bounded, func, bounds, xatol)
    return mine[0]


def calibration_bits(cal):
    return ([(bits(g), bits(v)) for g, v in cal.iterations],
            cal.growth.hex(), cal.objective.hex())


@st.composite
def growth_fits(draw):
    """A noisy growth series, a weight and a bracket (``lo == hi`` too)."""
    n = draw(st.integers(2, 60))
    base = draw(st.floats(1e3, 1e9))
    g = draw(st.floats(0.9, 1.3))
    noise = draw(st.floats(0.0, 0.1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    obs = np.abs(base * g ** np.arange(n) * rng.normal(1.0, noise, n)) + 1.0
    lo = draw(st.floats(0.5, 1.2))
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.8)))
    weight = draw(st.sampled_from(["relative", "absolute"]))
    return obs, (lo, lo + width), weight


@settings(max_examples=150, deadline=None)
@given(growth_fits())
def test_calibration_matches_scipy_iterate_for_iterate(fit):
    obs, bounds, weight = fit
    cal = calibrate_growth(obs, bounds=bounds, weight=weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "_minimize_bounded", scipy_bounded)
        want = calibrate_growth(obs, bounds=bounds, weight=weight)
    assert calibration_bits(cal) == calibration_bits(want)
    assert bounds[0] <= cal.growth <= bounds[1]


@pytest.mark.parametrize("bounds", [(0.95, 1.25), (1, 3), (0.5, 0.5)])
def test_constant_function(bounds):
    trace = assert_same_run(lambda x: 1.0, bounds, 1e-7)
    assert len(trace) == 1 if bounds[0] == bounds[1] else len(trace) > 1


def test_function_returning_nan():
    trace = assert_same_run(lambda x: math.nan, (0.0, 1.0), 1e-7)
    assert all(f == ("float", "nan") for _, f in trace)


def test_evaluation_cap_at_a_tiny_xatol():
    # |x| near its kink never lets the bracket shrink below 1e-300
    trace = assert_same_run(abs, (-1.0, 2.0), 1e-300)
    assert len(trace) == 500


@pytest.mark.parametrize("centre", [0.85, 1.13, 1.63])
def test_staircase_ties(centre):
    # equal values on one step take the tie branches of the point updates
    assert_same_run(lambda x: float(np.floor(20 * abs(x - centre))),
                    (0.0, 2.0), 1e-7)


def test_smooth_minimum_inside_the_bracket():
    trace = assert_same_run(lambda x: (x - 1.3) ** 2, (0.0, 3.0), 1e-7)
    assert abs(float.fromhex(trace[-1][0][1]) - 1.3) < 1e-6


@pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.inf),
                                    (-math.inf, 1.0)])
def test_non_finite_bounds_are_named(bounds):
    with pytest.raises(ValueError, match="bounds must be finite"):
        _minimize_bounded(lambda x: x, bounds, 1e-7)
    with pytest.raises(ValueError, match="bounds"):
        calibrate_growth([1.0, 2.0, 3.0], bounds=bounds)


def test_reversed_bounds_are_named():
    with pytest.raises(ValueError, match="bounds must have lower <= upper"):
        _minimize_bounded(lambda x: x, (1.2, 1.0), 1e-7)
    with pytest.raises(ValueError, match="bounds"):
        calibrate_growth([1.0, 2.0, 3.0], bounds=(1.2, 1.0))


def test_repro_and_its_clis_load_no_scipy():
    """A fresh interpreter imports ``repro`` and the CLIs and runs a
    growth fit without loading any ``scipy`` module."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_SANITIZE", "REPRO_FAULTS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    child = (
        "import sys\n"
        "import repro, repro.cli\n"
        "from repro.core.growth import calibrate_growth\n"
        "cal = calibrate_growth([1e6, 1.01e6, 1.0201e6, 1.030301e6])\n"
        "assert 1.0 < cal.growth < 1.02, cal.growth\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, cwd=str(REPO),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
