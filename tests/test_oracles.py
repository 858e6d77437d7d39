"""High-precision mpmath references for the reflection algebra and mode integrals.

The classical zeta(3) limits are tested in test_lifshitz.py; these oracles
cover what no closed form does: the squared reflection coefficients where
eps -> 1 or p -> 1 make the textbook form cancel, and complete Matsubara mode
integrals of gold and of the plasma and plasma-like zero modes (with
te_mode_function at zero frequency, and rel_tol held on the whole term),
and the closed form that replaces the zero-mode integral when both
coefficients are constant 0 or 1.
The zero-temperature limit of the sums (the zero_temperature fixture) is
checked against the ideal closed forms and against P = -dF/da.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest

import casimir as cs
from casimir.lifshitz import _reflection_sq

EPS = [1.0 + 1e-12, 1.0 + 1e-8, 1.5, 10.0, 1e6, 1e12]
P = [1.0, 1.0 + 1e-12, 1.0 + 1e-8, 1.01, 10.0, 1e6]


def reflection_sq_mp(eps, p):
    """Squared TM/TE coefficients in the textbook form, at the current mp.dps."""
    eps, p = mp.mpf(eps), mp.mpf(p)
    s = mp.sqrt(eps - 1 + p * p)
    return ((eps * p - s) / (eps * p + s)) ** 2, ((s - p) / (s + p)) ** 2


@pytest.mark.parametrize("eps, p", list(itertools.product(EPS, P)))
def test_reflection_sq_against_40_digits(eps, p):
    A, B = _reflection_sq(eps, p)
    with mp.workdps(40):
        A_ref, B_ref = reflection_sq_mp(eps, p)
        assert abs((A - A_ref) / A_ref) <= 1e-14
        assert abs((B - B_ref) / B_ref) <= 1e-14


def mode_mp(m, cfg, model, observable):
    """prefactor * weight * int kernel dy of mode m, by mp.quad at 30 digits.

    eps(zeta_m), omega_p and the constants enter as the engine's own doubles;
    the reflection coefficients, kernel and integral are done in mpmath.  The
    observable "te" is te_mode_function's bare TE integral, with neither
    prefactor nor weight.
    """
    with mp.workdps(30):
        T, a = mp.mpf(cfg.T), mp.mpf(cfg.a)
        kT = mp.mpf(cs.K_B) * T
        if m == 0:  # plasma-like zero mode: A = 1, B from omega_p a / c
            omega_p = (model.omega_p_eff_rad_s if isinstance(model, cs.Tabulated)
                       else model.omega_p_rad_s)
            yp = mp.mpf(omega_p) * a / mp.mpf(cs.C)

            def coeffs(y):
                r = mp.sqrt(y * y + yp * yp)
                return 1, ((r - y) / (r + y)) ** 2
            # B falls from 1 over y ~ omega_p a / c
            y_lo, weight, points = mp.mpf(0), mp.mpf(0.5), [0, min(yp, 1), 1, mp.inf]
        else:
            eps = model.eps(cfg.matsubara(m), cfg.T)
            y_lo = a * mp.mpf(cfg.matsubara(m)) / mp.mpf(cs.C)

            def coeffs(y):
                return reflection_sq_mp(eps, y / y_lo)
            weight, points = mp.mpf(1), [y_lo, y_lo + 1, mp.inf]
        if observable == "pressure":
            prefactor = -kT / (mp.pi * a ** 3)

            def kernel(y):
                u = mp.exp(-2 * y)
                return y * y * sum(X * u / (1 - X * u) for X in coeffs(y))
        elif observable == "free_energy":
            prefactor = kT / (2 * mp.pi * a ** 2)

            def kernel(y):
                u = mp.exp(-2 * y)
                return y * sum(mp.log(1 - X * u) for X in coeffs(y))
        else:
            prefactor = weight = 1

            def kernel(y):
                return y * mp.log(1 - coeffs(y)[1] * mp.exp(-2 * y))
        return float(prefactor * weight * mp.quad(kernel, sorted(set(points))))


FINE = cs.QuadratureSettings(rel_tol=1e-13)
PLASMA_LIKE = ["plasma", "plasma_0.5eV", "plasma_like"]
MODE_CASES = ([("gold", m, T) for m in (1, 10) for T in (300.0, 2.0)]
              + [(name, 0, 300.0) for name in PLASMA_LIKE])


def mode_models(gold):
    zs = np.geomspace(1e11, 1e17, 100)
    table = cs.PermittivityTable(zs, cs.eps_drude(zs, gold))
    return {"gold": gold, "drude": gold, "ideal": cs.Ideal(),
            "drude_like": cs.Tabulated(table, "drude_like"),
            "plasma": cs.Plasma(), "plasma_0.5eV": cs.Plasma(0.5),
            "plasma_like": cs.Tabulated(table, "plasma_like")}


@pytest.mark.parametrize("observable", ["pressure", "free_energy"])
@pytest.mark.parametrize("name, m, T", MODE_CASES)
def test_mode_integral_against_mp_quad(gold, observable, name, m, T):
    cfg = cs.ThermalGapConfig(T=T, a=1e-6)
    model = mode_models(gold)[name]
    mode_fn = cs.mode_pressure if observable == "pressure" else cs.mode_free_energy
    assert mode_fn(m, cfg, model, FINE) == pytest.approx(
        mode_mp(m, cfg, model, observable), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("observable", ["pressure", "free_energy", "te"])
@pytest.mark.parametrize("a", [10e-9, 0.3e-6, 5e-6])
@pytest.mark.parametrize("name", PLASMA_LIKE)
def test_plasma_zero_mode_against_mp_quad(gold, name, a, observable):
    # omega_p a / c from 0.02 to 228: B falls from 1 over y of that order
    cfg = cs.ThermalGapConfig(T=300.0, a=a)
    model = mode_models(gold)[name]
    if observable == "te":
        value = cs.te_mode_function(0.0, a, model, quad=FINE)
    else:
        mode_fn = cs.mode_pressure if observable == "pressure" else cs.mode_free_energy
        value = mode_fn(0, cfg, model, FINE)
    assert value == pytest.approx(mode_mp(0, cfg, model, observable), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name", PLASMA_LIKE)
def test_zero_mode_holds_rel_tol(gold, name, rel_tol):
    # the whole m = 0 term, closed part and remainder, against rel_tol 1e-15
    model = mode_models(gold)[name]
    quad, reference = cs.QuadratureSettings(rel_tol=rel_tol), cs.QuadratureSettings(rel_tol=1e-15)
    for a in (10e-9, 0.3e-6, 5e-6):
        cfg = cs.ThermalGapConfig(T=300.0, a=a)
        for mode_fn in (cs.mode_pressure, cs.mode_free_energy):
            ref = mode_fn(0, cfg, model, reference)
            assert abs(mode_fn(0, cfg, model, quad) - ref) <= rel_tol * abs(ref), (a, mode_fn)
        ref = cs.te_mode_function(0.0, a, model, quad=reference)
        assert abs(cs.te_mode_function(0.0, a, model, quad=quad) - ref) <= rel_tol * abs(ref), a


@pytest.mark.parametrize("a", [0.3e-6, 1e-6])
@pytest.mark.parametrize("name", ["drude", "ideal", "drude_like"])
def test_constant_zero_mode_is_zeta3_closed_form(gold, name, a):
    # (A + B) zeta(3)/4 per mode integral with the half weight of m = 0
    cfg = cs.ThermalGapConfig(T=300.0, a=a)
    model = mode_models(gold)[name]
    pair = cs.zero_frequency_reflection(model, 1.0, cfg)
    with mp.workdps(30):
        kT, a_mp = mp.mpf(cs.K_B) * mp.mpf(cfg.T), mp.mpf(a)
        zero = (mp.mpf(pair.A) + mp.mpf(pair.B)) * mp.zeta(3) / 8
        pressure = -kT / (mp.pi * a_mp ** 3) * zero
        free_energy = -kT / (2 * mp.pi * a_mp ** 2) * zero
        for value, ref in ((cs.mode_pressure(0, cfg, model), pressure),
                           (cs.mode_free_energy(0, cfg, model), free_energy)):
            assert abs((value - ref) / ref) <= 1e-15


# The zero-temperature oracle (the zero_temperature fixture of conftest.py)
# checked on its own: the ideal closed forms, and P = -dF/da for gold.

@pytest.mark.parametrize("observable, denominator, power",
                         [("free_energy", 720.0, 3), ("pressure", 240.0, 4)])
def test_zero_temperature_ideal_reflector_closed_forms(zero_temperature, observable,
                                                       denominator, power):
    a = 1e-6
    exact = -np.pi ** 2 * cs.HBAR * cs.C / (denominator * a ** power)
    assert zero_temperature(cs.Ideal(), a, observable) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_zero_temperature_gold_pressure_is_minus_dF_da(zero_temperature, gold):
    # central difference: truncation about 20 (h/a)^2 / 6 = 3e-8 at h = 1e-4 a
    a = 1e-8
    h = 1e-4 * a
    dF = (zero_temperature(gold, a + h, "free_energy")
          - zero_temperature(gold, a - h, "free_energy")) / (2.0 * h)
    assert -dF == pytest.approx(zero_temperature(gold, a, "pressure"), rel=1e-7, abs=0.0)
