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
from casimir.quadrature import adaptive_quad, gk15_rule, neumaier_sum

ZETA3 = float(zeta(3))
GRADED = [0.0, 1 / 64, 1 / 16, 1 / 4, 1, 3, 8, 30.0]  # graded toward the y ln y end


def equal_panels(a, b):
    """The edges of 8 equal panels on [a, b]."""
    return np.linspace(a, b, 9)


def row(f):
    """f as a stack of one row."""
    return lambda x: f(x)[None]


def test_polynomial_is_exact():
    (val,), (err,), _, _ = adaptive_quad(row(lambda x: x * x), equal_panels(0.0, 1.0))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert err <= 1e-10 / 3.0


def test_bose_occupancy_integral():
    # int_0^inf y^2 e^{-2y}/(1 - e^{-2y}) dy = zeta(3)/4
    def f(y):
        return y * y * np.exp(-2.0 * y) / -np.expm1(-2.0 * y)

    val = adaptive_quad(row(f), equal_panels(0.0, 30.0))[0][0]
    assert val == pytest.approx(ZETA3 / 4.0, rel=1e-12)


def test_log_endpoint_singularity():
    # int_0^inf y ln(1 - e^{-2y}) dy = -zeta(3)/4
    def f(y):
        return y * np.log(-np.expm1(-2.0 * y))

    val = adaptive_quad(row(f), equal_panels(0.0, 30.0))[0][0]
    assert val == pytest.approx(-ZETA3 / 4.0, rel=1e-9)


def test_breakpoints_at_the_singularity_save_rounds():
    # the y ln y end of -zeta(3)/4, the m = 0 free energy of one polarization
    rounds = []

    def f(y):
        rounds.append(len(y))
        return y * np.log(-np.expm1(-2.0 * y))

    val = adaptive_quad(row(f), GRADED)[0][0]
    assert val == pytest.approx(-ZETA3 / 4.0, rel=1e-9)
    graded = len(rounds)
    rounds.clear()
    adaptive_quad(row(f), equal_panels(0.0, 30.0))
    assert graded < len(rounds)


def test_returned_rule_integrates_another_function():
    # the final panels of y ln(1 - e^{-2y}) also hold int_0^30 x e^{-2x} dx = 1/4
    def f(y):
        return y * np.log(-np.expm1(-2.0 * y))

    _, _, x, w = adaptive_quad(row(f), GRADED)
    assert x.shape == w.shape
    assert w @ (x * np.exp(-2.0 * x)) == pytest.approx(0.25, rel=1e-12)


def test_stack_of_one_takes_the_arithmetic_of_a_plain_integrand():
    # the value and error estimate are pinned at their bits from before
    # stacked integrands existed, when f was integrated alone; a (1, N)
    # stack returns them, and each row of a stack of two copies the same,
    # on the same rule
    def f(y):
        return y * np.log(-np.expm1(-2.0 * y))

    val, err, x, w = adaptive_quad(lambda y: f(y)[None], GRADED)
    assert val.shape == err.shape == (1,)
    assert (val[0].hex(), err[0].hex(), len(x)) == (
        "-0x1.33ba004f0067cp-2", "0x1.af82588cc5f4ap-38", 315)
    vals, errs, xs, ws = adaptive_quad(lambda y: np.stack((f(y), f(y))), GRADED)
    assert vals.shape == errs.shape == (2,)
    assert (vals[0], errs[0]) == (vals[1], errs[1]) == (val[0], err[0])
    assert np.array_equal(xs, x) and np.array_equal(ws, w)


def test_stack_holds_rel_tol_on_each_component():
    # 1e6 x^2 is exact on the first panels; sqrt(x) needs bisections toward
    # x = 0, and would stop far short of rel_tol on the sum of the two
    def f(x):
        return np.stack((1e6 * x * x, np.sqrt(x)))

    exact = np.array([1e6 / 3.0, 2.0 / 3.0])
    for rel_tol in (1e-8, 1e-12):
        vals, errs, _, _ = adaptive_quad(f, equal_panels(0.0, 1.0), rel_tol=rel_tol)
        assert np.all(np.abs(vals - exact) <= rel_tol * exact)
        assert np.all(errs <= rel_tol * np.abs(vals))
        alone = adaptive_quad(row(np.sqrt), equal_panels(0.0, 1.0), rel_tol=rel_tol)[0][0]
        assert vals[1] == pytest.approx(alone, rel=rel_tol, abs=0.0)


def test_stack_bisects_by_each_components_own_budget():
    # the smooth component's panel errors are far larger in absolute terms,
    # but it has converged: every round must refine toward sqrt's end at 0
    rounds = []

    def f(x):
        rounds.append(x.min())
        return np.stack((1e12 * np.exp(x), np.sqrt(x)))

    adaptive_quad(f, equal_panels(0.0, 1.0), rel_tol=1e-10)
    assert len(rounds) > 2
    assert all(lo < 1e-3 for lo in rounds[1:])


def test_breakpoints_must_increase_inside_the_interval():
    for edges in ([0.0, 2.0, 1.0, 5.0], [0.0, 0.0, 5.0], [0.0, 5.0, 5.0], [0.0, math.nan, 5.0],
                  [0, 2, 1, 5], [0, math.nan, 5]):
        with pytest.raises(ValueError):
            adaptive_quad(row(lambda x: x), edges)


def test_agrees_with_scipy_quadpack():
    def f(x):
        return np.exp(-50.0 * (x - 3.0) ** 2) * np.sin(3.0 * x) + np.exp(-x)

    ref, _ = scipy_quad(f, 0.0, 10.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    val = adaptive_quad(row(f), equal_panels(0.0, 10.0), rel_tol=1e-12)[0][0]
    assert val == pytest.approx(ref, rel=1e-10)


def test_zero_integrand_returns_zero():
    (val,), (err,), _, _ = adaptive_quad(row(lambda x: 0.0 * x), equal_panels(0.0, 5.0))
    assert val == 0.0
    assert err == 0.0


def test_empty_interval_rejected():
    # edges that make no panel: an empty interval, too few edges, not 1-D
    for edges in ([1.0, 1.0], [], [1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            adaptive_quad(row(lambda x: x), edges)


def test_convergence_error_carries_estimate():
    # a million radians of oscillation exhaust the 4096 panels before
    # the error estimate can reach 1e-10
    with pytest.raises(ConvergenceError) as excinfo:
        adaptive_quad(row(lambda x: np.sin(1e6 * x)), equal_panels(0.0, 1.0), rel_tol=1e-10)
    assert excinfo.value.estimate is not None
    assert np.isfinite(excinfo.value.estimate)


def _log_end(y):
    return y * np.log(-np.expm1(-2.0 * y))


@pytest.mark.parametrize("f, rounds", [
    (row(lambda y: np.exp(-y)), 1),
    (lambda y: np.stack((np.exp(-y), y * np.exp(-y))), 1),
    (lambda y: np.stack((np.exp(-y), 1.0 / (1.0 + y) ** 2)), 3),
    (row(_log_end), 16),
], ids=["scalar", "stacked", "stacked-refines", "refines"])
def test_first_round_as_data_gives_the_same_bits(f, rounds):
    # f's own values on the initial nodes, handed in, are the first round:
    # value, estimate and final rule are those of the plain call, and f is
    # called for the later rounds only
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    edges = equal_panels(0.0, 30.0)
    nodes = gk15_rule(edges[:-1], edges[1:])[0].ravel()
    plain = adaptive_quad(counted, edges)
    assert len(calls) == rounds and calls[0] == len(nodes)
    calls.clear()
    given = adaptive_quad(counted, edges, first=f(nodes))
    assert len(calls) == rounds - 1
    for a, b in zip(plain, given):
        assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("shape", [(119,), (2, 121), (1, 2, 120), (), (120,)])
def test_first_round_of_the_wrong_shape_is_named(shape):
    with pytest.raises(ValueError, match=r"shape \(C, 120\), got "):
        adaptive_quad(row(np.exp), equal_panels(0.0, 1.0), first=np.zeros(shape))


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_non_finite_integrand_fails_after_one_round(stacked):
    # a NaN integrand used to run 48 rounds on no panel, and a stack with one
    # NaN component reported the other component's estimated error
    calls = []

    def f(x):
        calls.append(len(x))
        nan = np.full_like(x, np.nan)
        return np.stack((np.exp(-x), nan)) if stacked else nan[None]

    with pytest.raises(ConvergenceError, match="non-finite estimate"):
        adaptive_quad(f, equal_panels(0.0, 1.0))
    assert len(calls) == 1


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
