"""The adaptive Gauss-Kronrod integrator against closed-form oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import zeta

import casimir
from casimir.errors import ConvergenceError
from casimir.quadrature import adaptive_quad, neumaier_sum

ZETA3 = float(zeta(3))


def test_polynomial_is_exact():
    val, err = adaptive_quad(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert err <= 1e-10 / 3.0


def test_bose_occupancy_integral():
    # int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = zeta(3)/4
    def f(y):
        return y * y * np.exp(-2.0 * y) / -np.expm1(-2.0 * y)

    val, _ = adaptive_quad(f, 0.0, 30.0)
    assert val == pytest.approx(ZETA3 / 4.0, rel=1e-12)


def test_log_endpoint_singularity():
    # int_0^inf y ln(1 - e^{-2y}) dy = -zeta(3)/4
    def f(y):
        return y * np.log(-np.expm1(-2.0 * y))

    val, _ = adaptive_quad(f, 0.0, 30.0)
    assert val == pytest.approx(-ZETA3 / 4.0, rel=1e-9)


def test_breakpoints_at_the_singularity_save_rounds():
    # the y ln y end of -zeta(3)/4, the m = 0 free energy of one polarization
    rounds = []

    def f(y):
        rounds.append(len(y))
        return y * np.log(-np.expm1(-2.0 * y))

    val, _ = adaptive_quad(f, 0.0, 30.0, points=[1 / 64, 1 / 16, 1 / 4, 1, 3, 8])
    assert val == pytest.approx(-ZETA3 / 4.0, rel=1e-9)
    graded = len(rounds)
    rounds.clear()
    adaptive_quad(f, 0.0, 30.0)
    assert graded < len(rounds)


def test_breakpoints_must_increase_inside_the_interval():
    for points in ([2.0, 1.0], [0.0], [5.0], [math.nan]):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 0.0, 5.0, points=points)


def test_agrees_with_scipy_quadpack():
    def f(x):
        return np.exp(-50.0 * (x - 3.0) ** 2) * np.sin(3.0 * x) + np.exp(-x)

    ref, _ = scipy_quad(f, 0.0, 10.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    val, _ = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-12)
    assert val == pytest.approx(ref, rel=1e-10)


def test_zero_integrand_returns_zero():
    val, err = adaptive_quad(lambda x: 0.0 * x, 0.0, 5.0)
    assert val == 0.0
    assert err == 0.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: x, 1.0, 1.0)


def test_convergence_error_carries_estimate():
    # inverse-sqrt cusp inside the interval; 2 refinement rounds cannot
    # reach 1e-10
    def f(x):
        return np.abs(x - np.pi / 7.0) ** -0.5

    with pytest.raises(ConvergenceError) as excinfo:
        adaptive_quad(f, 0.0, 1.0, rel_tol=1e-10, max_subdivisions=2)
    assert excinfo.value.estimate is not None
    assert np.isfinite(excinfo.value.estimate)


def test_neumaier_sum_compensates_cancellation():
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0


def test_neumaier_matches_exact_fraction_sum():
    values = [0.1] * 10
    assert neumaier_sum(values) == pytest.approx(1.0, abs=1e-16)


def test_import_loads_no_scipy():
    # adaptive_quad is the package's only integrator
    env = dict(os.environ)
    src = str(Path(casimir.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, casimir, casimir.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
