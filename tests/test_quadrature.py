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
from casimir import lifshitz
from casimir.quadrature import (_WGL20_EX, _WGL_EX, _XGL, _XGL20, _gk15_panels, adaptive_quad,
                                gk15_rule, laguerre_rule, neumaier_sum)

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


def modules_after_import(prefix):
    """The modules under prefix that a fresh `import casimir, casimir.cli` loads."""
    env = dict(os.environ)
    src = str(Path(casimir.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, casimir, casimir.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # adaptive_quad is the package's only integrator
    assert modules_after_import("scipy") == "[]"


def test_import_loads_no_numpy_polynomial():
    # the Gauss-Laguerre rule is tabulated: numpy.polynomial would add about
    # 0.8 MB to every process
    assert modules_after_import("numpy.polynomial") == "[]"


def test_laguerre_rule_matches_laggauss_and_is_exact():
    # the tabulated nodes and weights are numpy's (whose weights carry about
    # 3e-13 of rounding), and at rate 2 the rule integrates t^k e^{-2t} over
    # [0, inf), k! / 2^(k+1), for every k <= 2 * 32 - 1
    from numpy.polynomial.laguerre import laggauss, lagval
    x, W = laggauss(32)
    assert np.allclose(_XGL, x, rtol=1e-14, atol=0.0)
    assert np.allclose(_WGL_EX * np.exp(-_XGL), W, rtol=1e-12, atol=0.0)
    t, w, null = laguerre_rule(2.0, 32)
    assert np.array_equal(t, _XGL / 2.0) and np.array_equal(w, _WGL_EX / 2.0)
    for k in range(64):
        exact = math.factorial(k) / 2.0 ** (k + 1)
        assert math.fsum(w * t ** k * np.exp(-2.0 * t)) == pytest.approx(exact, rel=1e-15), k
    # the null rule reads the Laguerre coefficients of degrees 30 and 31 of
    # f e^{2t}, over the rate: 1/2 on L_30(2t) and L_31(2t), 0 below degree 30
    for k, want in ((29, [0.0, 0.0]), (30, [0.5, 0.0]), (31, [0.0, 0.5])):
        f = np.exp(-2.0 * t) * lagval(2.0 * t, [0.0] * k + [1.0])
        assert f @ null == pytest.approx(want, abs=1e-15), k
    f = np.exp(-2.0 * t) * (3.0 + t) ** 2  # smooth: far below its integral
    assert np.abs(f @ null).max() <= 1e-15 * math.fsum(w * f)


def test_20_point_laguerre_rule_matches_laggauss():
    from numpy.polynomial.laguerre import laggauss
    x, W = laggauss(20)
    assert np.allclose(_XGL20, x, rtol=1e-14, atol=0.0)
    assert np.allclose(_WGL20_EX * np.exp(-_XGL20), W, rtol=1e-12, atol=0.0)
    t, w, null = laguerre_rule(2.0, 20)
    assert np.array_equal(t, _XGL20 / 2.0) and np.array_equal(w, _WGL20_EX / 2.0)
    assert null.shape == (20, 2)


# The sums' fixed t-rule: the GK15 nodes of the panels of _T_MESH up to
# t = 2, then the 20-point Laguerre rule for e^{-2t} shifted to [2, inf)
TAIL = slice(-20, None)


def test_fixed_t_rule_is_panels_to_2_then_a_laguerre_tail():
    t, w, est = lifshitz._T_NODES, lifshitz._T_WEIGHTS, lifshitz._T_EST
    panels = lifshitz._T_PANELS
    assert panels[-1] == lifshitz._T_TAIL == 2.0
    assert len(t) == len(w) == 15 * (len(panels) - 1) + 20 == 110
    assert est.shape == (len(panels) - 1 + 2, len(t)) == (8, 110)
    x, wk = (r.ravel() for r in gk15_rule(panels[:-1], panels[1:])[:2])
    assert np.array_equal(t[:len(x)], x) and np.array_equal(w[:len(x)], wk)
    assert t[:len(x)].max() < 2.0 < t[TAIL].min()
    tail, w_tail, _ = laguerre_rule(2.0, 20)
    assert np.array_equal(t[TAIL], 2.0 + tail) and np.array_equal(w[TAIL], w_tail)


def test_estimate_matrix_reads_each_panels_raw_gk15_error_and_the_null_rules():
    # a panel row of the near rule's matrix, read on a row of values at the
    # nodes, is that panel's |K15 - G7| half-width, the error _gk15_panels
    # rescales: K15 its Kronrod value, G7 the 7-point Gauss rule (numpy's
    # leggauss) at the odd Kronrod nodes.  They agree to 1e-15 of the
    # panel's half-width times sum |f|, the scale of K15's and G7's rounding,
    # on values drawn at random, where K15 - G7 is of the size of K15.  The
    # last two rows, and the far rule's matrix, are laguerre_rule's null rules
    from numpy.polynomial.legendre import leggauss
    panels, est = lifshitz._T_PANELS, lifshitz._T_EST
    lo, hi, half = panels[:-1], panels[1:], 0.5 * (panels[1:] - panels[:-1])
    xg, wg = leggauss(7)
    kronrod_nodes = gk15_rule(-np.ones(1), np.ones(1))[0][0]
    assert np.allclose(kronrod_nodes[1::2], xg, rtol=0.0, atol=1e-15)
    rows = np.random.default_rng(41).standard_normal((40, len(lifshitz._T_NODES)))
    kronrod = _gk15_panels(rows[:, :90], lo, hi)[0]
    gauss = (rows[:, :90].reshape(40, 6, 15)[..., 1::2] @ wg) * half
    read = np.einsum("ij,lj->il", rows, est)
    scale = np.abs(rows[:, :90]).reshape(40, 6, 15).sum(axis=2) * half
    assert (np.abs(np.abs(read[:, :6]) - np.abs(kronrod - gauss)) <= 1e-15 * scale).all()
    for i, weights in enumerate(gk15_rule(lo, hi)[2]):  # each panel row on its own nodes
        assert np.array_equal(est[i], np.pad(weights, (15 * i, 110 - 15 * i - 15)))
    assert np.array_equal(est[6:, 90:], laguerre_rule(2.0, 20)[2].T)
    assert np.array_equal(lifshitz._L_EST, laguerre_rule(2.0, 32)[2].T)


def test_shifted_laguerre_tail_is_exact_past_2():
    # int_2^inf t^k e^{-2t} dt = e^{-4} sum_j k!/j! 2^j / 2^(k-j+1), for
    # every k <= 2 * 20 - 1
    t, w = lifshitz._T_NODES[TAIL], lifshitz._T_WEIGHTS[TAIL]
    for k in range(40):
        exact = math.exp(-4.0) * math.fsum(math.factorial(k) / math.factorial(j) * 2.0 ** j
                                           / 2.0 ** (k - j + 1) for j in range(k + 1))
        assert math.fsum(w * t ** k * np.exp(-2.0 * t)) == pytest.approx(exact, rel=2e-15), k


def test_tail_null_rule_reads_the_top_laguerre_coefficients():
    # 1/2 on e^{-2s} L_18(2s) and e^{-2s} L_19(2s), s = t - 2, and 0 below
    # degree 18; a smooth factor reads far below its integral
    from numpy.polynomial.laguerre import lagval
    # (the estimate matrix's last two rows, 0 on the panels' nodes)
    s, w, null = lifshitz._T_NODES[TAIL] - 2.0, lifshitz._T_WEIGHTS[TAIL], lifshitz._T_EST[-2:]
    assert not null[:, :90].any()
    null = null[:, TAIL].T
    for k, want in ((17, [0.0, 0.0]), (18, [0.5, 0.0]), (19, [0.0, 0.5])):
        f = np.exp(-2.0 * s) * lagval(2.0 * s, [0.0] * k + [1.0])
        assert f @ null == pytest.approx(want, abs=1e-15), k
    f = np.exp(-2.0 * (s + 2.0)) * (5.0 + s) ** 2
    assert np.abs(f @ null).max() <= 1e-15 * math.fsum(w * f)


def test_remainder_density_integrates_to_its_closed_value_on_both_rules():
    # a remainder whose kernel cancels is its closed density alone, c/2 on
    # t < 2: 2 is an edge of the fixed rule's panels and of every adaptive
    # round's, so both integrate it exactly, adaptive_quad in one round
    def zero_kernel(Au, Bu, y, u):
        return 0.0 * y

    c = 3.0 * 0.25 + 5.0 * 0.125
    remainder, = lifshitz._remainders((zero_kernel,), [(3.0, 5.0)], 0.25, 0.125)
    calls = []

    def f(t):
        calls.append(len(t))
        return remainder(0.0, 0.0, t, np.exp(-2.0 * t))[None]

    assert math.fsum(f(lifshitz._T_NODES)[0] * lifshitz._T_WEIGHTS) == pytest.approx(
        c, rel=4.4e-16, abs=0.0)
    calls.clear()
    (value,), _ = adaptive_quad(f, lifshitz._T_MESH, rel_tol=1e-13)
    assert value == pytest.approx(c, rel=4.4e-16, abs=0.0) and len(calls) == 1
