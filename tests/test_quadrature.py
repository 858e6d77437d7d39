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
from casimir.quadrature import _gk15_panels, adaptive_quad, gk15_rule, neumaier_sum

ZETA3 = float(zeta(3))
GRADED = [0.0, 1 / 64, 1 / 16, 1 / 4, 1, 3, 8, 30.0]  # graded toward the y ln y end


def equal_panels(a, b):
    """The edges of 8 equal panels on [a, b]."""
    return np.linspace(a, b, 9)


def row(f):
    """f as a stack of one row."""
    return lambda x: f(x)[None]


def test_polynomial_is_exact():
    (val,), (err,) = adaptive_quad(row(lambda x: x * x), equal_panels(0.0, 1.0))
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


def test_stack_of_one_takes_the_arithmetic_of_a_plain_integrand():
    # the value and error estimate are pinned at their bits from before
    # stacked integrands existed, when f was integrated alone; a (1, N)
    # stack returns them, and each row of a stack of two copies the same,
    # on the same rounds: the points of each round, from 7 to 21 panels
    def f(y):
        return y * np.log(-np.expm1(-2.0 * y))

    points, pairs = [], []
    val, err = adaptive_quad(lambda y: points.append(len(y)) or f(y)[None], GRADED)
    assert val.shape == err.shape == (1,)
    assert (val[0].hex(), err[0].hex()) == ("-0x1.33ba004f0067cp-2", "0x1.af82588cc5f4ap-38")
    assert points == [105, 60, 30, 60, 30, 60, 60, 60, 60]
    vals, errs = adaptive_quad(lambda y: pairs.append(len(y)) or np.stack((f(y), f(y))), GRADED)
    assert vals.shape == errs.shape == (2,)
    assert (vals[0], errs[0]) == (vals[1], errs[1]) == (val[0], err[0])
    assert pairs == points


def test_stack_holds_rel_tol_on_each_component():
    # 1e6 x^2 is exact on the first panels; sqrt(x) needs bisections toward
    # x = 0, and would stop far short of rel_tol on the sum of the two
    def f(x):
        return np.stack((1e6 * x * x, np.sqrt(x)))

    exact = np.array([1e6 / 3.0, 2.0 / 3.0])
    for rel_tol in (1e-8, 1e-12):
        vals, errs = adaptive_quad(f, equal_panels(0.0, 1.0), rel_tol=rel_tol)
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
    (val,), (err,) = adaptive_quad(row(lambda x: 0.0 * x), equal_panels(0.0, 5.0))
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
def test_first_round_is_the_fsum_of_its_kronrod_panel_values(f, rounds):
    # f is called once per round, first on the start panels' nodes; that
    # round's values are each component's math.fsum of _gk15_panels' Kronrod
    # values, bit for bit: the fixed t-rule of the Lifshitz sums, which is
    # the value where the first round converges
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    edges = equal_panels(0.0, 30.0)
    nodes = gk15_rule(edges[:-1], edges[1:])[0].ravel()
    value = adaptive_quad(counted, edges)[0]
    assert len(calls) == rounds and calls[0] == len(nodes)
    first = [math.fsum(v) for v in _gk15_panels(f(nodes), edges[:-1], edges[1:])[0].tolist()]
    assert adaptive_quad(f, edges, rel_tol=1.0)[0].tolist() == first
    if rounds == 1:
        assert value.tolist() == first


@pytest.mark.parametrize("shape", [(119,), (2, 121), (1, 2, 120), (), (120,)])
def test_panel_values_of_the_wrong_shape_are_named(shape):
    edges = equal_panels(0.0, 1.0)
    with pytest.raises(ValueError, match=r"shape \(C, 120\), got "):
        _gk15_panels(np.zeros(shape), edges[:-1], edges[1:])


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


def test_tolerance_below_float_rounding_fails_after_one_round():
    # below 2^-53 the estimates of later rounds are rounding noise, which
    # used to take all 48 rounds or 4096 panels (2,338 panels for the sum of
    # `casimir pressure --gap 0.5` at 1e-30); the error carries the first
    # round's values
    calls = []

    def f(x):
        calls.append(len(x))
        return (1.0 / (1.0 + x) ** 2)[None]

    edges = equal_panels(0.0, 30.0)
    first = adaptive_quad(f, edges, rel_tol=1.0)[0]
    for rel_tol in (2.0 ** -54, 1e-30):
        calls.clear()
        with pytest.raises(ConvergenceError, match=(
                r"did not reach rel_tol=.* with 8 panels\): rel_tol is below 1.1e-16, "
                "the rounding of a float total$")) as exc:
            adaptive_quad(f, edges, rel_tol=rel_tol)
        assert len(calls) == 1
        assert exc.value.estimate.tobytes() == first.tobytes()
    # at the floor itself the rounds go on (7 of them), and meet it
    calls.clear()
    value = adaptive_quad(f, edges, rel_tol=2.0 ** -53)[0].item()
    assert len(calls) > 1 and value == pytest.approx(30.0 / 31.0, rel=2.0 ** -53, abs=0.0)


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
