"""High-precision mpmath references for the reflection algebra and mode integrals.

The classical zeta(3) limits are tested in test_lifshitz.py; these oracles
cover what no closed form does: the squared reflection coefficients where
eps -> 1 or p -> 1 make the textbook form cancel, and complete Matsubara mode
integrals of gold and of the plasma zero mode.
"""

import itertools

import mpmath as mp
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

    eps(zeta_m) and the constants enter as the engine's own doubles; the
    reflection coefficients, kernel and integral are done in mpmath.
    """
    with mp.workdps(30):
        T, a = mp.mpf(cfg.T), mp.mpf(cfg.a)
        kT = mp.mpf(cs.K_B) * T
        if m == 0:  # plasma zero mode: A = 1, B from omega_p a / c
            yp = mp.mpf(model.omega_p_rad_s) * a / mp.mpf(cs.C)

            def coeffs(y):
                r = mp.sqrt(y * y + yp * yp)
                return 1, ((r - y) / (r + y)) ** 2
            y_lo, weight = mp.mpf(0), mp.mpf(0.5)
        else:
            eps = model.eps(cfg.matsubara(m), cfg.T)
            y_lo = a * mp.mpf(cfg.matsubara(m)) / mp.mpf(cs.C)

            def coeffs(y):
                return reflection_sq_mp(eps, y / y_lo)
            weight = mp.mpf(1)
        if observable == "pressure":
            prefactor = -kT / (mp.pi * a ** 3)

            def kernel(y):
                u = mp.exp(-2 * y)
                return y * y * sum(X * u / (1 - X * u) for X in coeffs(y))
        else:
            prefactor = kT / (2 * mp.pi * a ** 2)

            def kernel(y):
                u = mp.exp(-2 * y)
                return y * sum(mp.log(1 - X * u) for X in coeffs(y))
        return float(prefactor * weight * mp.quad(kernel, [y_lo, y_lo + 1, mp.inf]))


FINE = cs.QuadratureSettings(rel_tol=1e-13)
MODE_CASES = [("gold", m, T) for m in (1, 10) for T in (300.0, 2.0)] + [("plasma", 0, 300.0)]


@pytest.mark.parametrize("observable", ["pressure", "free_energy"])
@pytest.mark.parametrize("name, m, T", MODE_CASES)
def test_mode_integral_against_mp_quad(gold, observable, name, m, T):
    cfg = cs.ThermalGapConfig(T=T, a=1e-6)
    model = gold if name == "gold" else cs.Plasma()
    mode_fn = cs.mode_pressure if observable == "pressure" else cs.mode_free_energy
    assert mode_fn(m, cfg, model, FINE) == pytest.approx(
        mode_mp(m, cfg, model, observable), rel=1e-12)
